// Client-side audio contexts and the play/record entry points
// (AFCreateAC / AFPlaySamples / AFRecordSamples).
#ifndef AF_CLIENT_AUDIO_CONTEXT_H_
#define AF_CLIENT_AUDIO_CONTEXT_H_

#include <span>

#include "client/connection.h"

namespace af {

struct RecordResult {
  ATime time = 0;          // current device time, from the reply
  size_t actual_bytes = 0;  // bytes actually returned (short when ANoBlock)
};

class AC {
 public:
  ACId id() const { return id_; }
  AFAudioConn& conn() { return *conn_; }
  DeviceId device_id() const { return device_; }
  const DeviceDesc& device() const;
  const ACAttributes& attrs() const { return attrs_; }

  // AFChangeACAttributes.
  void ChangeAttributes(uint32_t value_mask, const ACAttributes& attrs);

  // AFPlaySamples: plays buf starting at device time start_time. Long
  // requests are chunked into 8 KB pieces; only the final chunk requests
  // the time reply (Section 10.1.3's optimization). Returns the device
  // time from that reply.
  Result<ATime> PlaySamples(ATime start_time, std::span<const uint8_t> buf);

  // AFRecordSamples: records buf.size() bytes beginning at start_time.
  // block=true waits until all data exists; block=false returns whatever
  // is available immediately (the returned actual_bytes may be short).
  // Long requests are chunked like plays, but the chunks are pipelined: up
  // to 16 leave in one write and their replies are collected in order, so
  // a multi-chunk record costs one round trip, not one per chunk.
  Result<RecordResult> RecordSamples(ATime start_time, std::span<uint8_t> buf, bool block);

  // Chunk size used for play/record splitting; configurable for the
  // chunk-size ablation benchmark.
  size_t chunk_bytes() const { return chunk_bytes_; }
  void set_chunk_bytes(size_t n) { chunk_bytes_ = n; }

 private:
  friend class AFAudioConn;
  AC(AFAudioConn* conn, ACId id, DeviceId device, const ACAttributes& attrs)
      : conn_(conn), id_(id), device_(device), attrs_(attrs) {}

  AFAudioConn* conn_;
  ACId id_;
  DeviceId device_;
  ACAttributes attrs_;
  size_t chunk_bytes_ = kDefaultChunkBytes;
};

}  // namespace af

#endif  // AF_CLIENT_AUDIO_CONTEXT_H_
