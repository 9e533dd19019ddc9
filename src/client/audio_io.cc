// AFPlaySamples / AFRecordSamples: the two requests that move audio data,
// with the client library's 8 KB chunking (CRL 93/8 Sections 5.7 and 10.1).
// Neither pays a round trip per chunk: play suppresses the intermediate
// replies, record pipelines its chunks.
#include <algorithm>
#include <cstring>

#include "client/audio_context.h"

namespace af {

namespace {

// One sample frame's worth of client bytes for an AC's encoding/channels.
size_t FrameBytesOf(const ACAttributes& attrs) {
  return SamplesToBytes(attrs.encoding, 1, attrs.channels);
}

// Record chunks in flight at once. It equals the server's per-sweep request
// cap and fills its egress spare-segment pool, so a window's replies leave
// in one writev without allocating, and it bounds what the server buffers
// for a client recording megabytes (128 KiB at the default chunk size).
constexpr size_t kRecordWindow = 16;

}  // namespace

const DeviceDesc& AC::device() const { return conn_->devices()[device_]; }

void AC::ChangeAttributes(uint32_t value_mask, const ACAttributes& attrs) {
  ChangeACAttributesReq req;
  req.ac = id_;
  req.value_mask = value_mask;
  req.attrs = attrs;
  conn_->QueueRequest(Opcode::kChangeACAttributes, req);
  if (value_mask & kACPlayGain) {
    attrs_.play_gain_db = attrs.play_gain_db;
  }
  if (value_mask & kACRecordGain) {
    attrs_.record_gain_db = attrs.record_gain_db;
  }
  if (value_mask & kACPreemption) {
    attrs_.preempt = attrs.preempt;
  }
  if (value_mask & kACEndian) {
    attrs_.big_endian_data = attrs.big_endian_data;
  }
  if (value_mask & kACEncodingType) {
    attrs_.encoding = attrs.encoding;
  }
  if (value_mask & kACChannels) {
    attrs_.channels = attrs.channels;
  }
}

Result<ATime> AC::PlaySamples(ATime start_time, std::span<const uint8_t> buf) {
  const size_t frame_bytes = std::max<size_t>(1, FrameBytesOf(attrs_));
  // Chunk boundaries stay frame-aligned so every request is well-formed.
  const size_t chunk = std::max(frame_bytes, chunk_bytes_ - (chunk_bytes_ % frame_bytes));

  uint32_t base_flags = 0;
  if (attrs_.big_endian_data != 0) {
    base_flags |= kPlayBigEndianData;
  }

  uint16_t last_seq = 0;
  size_t offset = 0;
  ATime t = start_time;
  do {
    const size_t n = std::min(chunk, buf.size() - offset);
    const bool last = offset + n >= buf.size();
    PlaySamplesReq req;
    req.ac = id_;
    req.start_time = t;
    req.nbytes = static_cast<uint32_t>(n);
    // Intermediate replies are unnecessary during a contiguous series of
    // play requests; only the final chunk asks for the time.
    req.flags = base_flags | (last ? 0 : kPlaySuppressReply);
    req.data = buf.subspan(offset, n);
    last_seq = conn_->QueueRequest(
        Opcode::kPlaySamples, req,
        last ? AFAudioConn::ReplyMode::kAwaited : AFAudioConn::ReplyMode::kNone);
    offset += n;
    t += static_cast<ATime>(BytesToSamples(attrs_.encoding, n, attrs_.channels));
  } while (offset < buf.size());

  auto reply = conn_->AwaitReply(last_seq);
  if (!reply.ok()) {
    return reply.status();
  }
  PlaySamplesReply decoded;
  if (!PlaySamplesReply::Decode(reply.value(), conn_->order(), &decoded)) {
    return Status(AfError::kConnectionLost, "bad PlaySamples reply");
  }
  conn_->NoteDeviceTime(device_, decoded.time);
  return decoded.time;
}

Result<RecordResult> AC::RecordSamples(ATime start_time, std::span<uint8_t> buf, bool block) {
  const size_t frame_bytes = std::max<size_t>(1, FrameBytesOf(attrs_));
  const size_t chunk = std::max(frame_bytes, chunk_bytes_ - (chunk_bytes_ % frame_bytes));

  uint32_t base_flags = block ? 0 : kRecordNoBlock;
  if (attrs_.big_endian_data != 0) {
    base_flags |= kRecordBigEndianData;
  }

  // A window of chunks is queued, the first AwaitReply sends it in one
  // write, and the replies are taken in order. offset and t always describe
  // the contiguous prefix received so far, which is where chunk i of the
  // window starts while every earlier chunk came back full.
  RecordResult result;
  size_t offset = 0;
  ATime t = start_time;
  Status failed;
  bool ran_short = false;
  bool requeued = false;
  for (;;) {
    const uint64_t gen = conn_->reconnects();
    uint16_t seqs[kRecordWindow];
    size_t queued = 0;
    size_t end = offset;
    ATime end_time = t;
    do {
      const size_t n = std::min(chunk, buf.size() - end);
      RecordSamplesReq req;
      req.ac = id_;
      req.start_time = end_time;
      req.nbytes = static_cast<uint32_t>(n);
      req.flags = base_flags;
      seqs[queued++] =
          conn_->QueueRequest(Opcode::kRecordSamples, req, AFAudioConn::ReplyMode::kAwaited);
      end += n;
      end_time += static_cast<ATime>(BytesToSamples(attrs_.encoding, n, attrs_.channels));
    } while (end < buf.size() && queued < kRecordWindow);

    bool healed = false;
    for (size_t i = 0; i < queued; ++i) {
      // Every reply is taken, even after a failure or a short chunk, so no
      // error is left to reach the asynchronous error handler later.
      auto reply = conn_->AwaitReply(seqs[i]);
      if (conn_->reconnects() != gen) {
        // The window's sequence numbers died with the old connection: on
        // the new one they would match replayed requests or never be
        // answered. Any reply got here came from AwaitReply's reissue of
        // the newest request, under the AC's old id; drop it too.
        healed = true;
        break;
      }
      if (!failed.ok() || ran_short) {
        continue;
      }
      if (!reply.ok()) {
        failed = reply.status();
        continue;
      }
      RecordSamplesReply decoded;
      if (!RecordSamplesReply::Decode(reply.value(), conn_->order(), &decoded)) {
        failed = Status(AfError::kConnectionLost, "bad RecordSamples reply");
        continue;
      }
      const size_t n = std::min(chunk, buf.size() - offset);
      const size_t got = std::min<size_t>(decoded.data.size(), n);
      if (got > 0) {  // an empty reply carries a null span; memcpy forbids it
        std::memcpy(buf.data() + offset, decoded.data.data(), got);
      }
      result.time = decoded.time;
      conn_->NoteDeviceTime(device_, decoded.time);
      offset += got;
      t += static_cast<ATime>(BytesToSamples(attrs_.encoding, got, attrs_.channels));
      ran_short = got < n;  // non-blocking record ran out of available data
    }
    if (!failed.ok()) {
      return failed;
    }
    if (ran_short || (!healed && offset >= buf.size())) {
      break;
    }
    if (healed) {
      // Re-queue the unanswered chunks, once, on the healed connection.
      if (requeued) {
        return Status(AfError::kConnectionLost);
      }
      requeued = true;
    }
  }

  result.actual_bytes = offset;
  return result;
}

}  // namespace af
