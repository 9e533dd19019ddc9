// Request, reply, and error packet definitions for all 37 protocol
// requests (Table 1) plus this reproduction's opcodes 38-40, the field
// lists their encoders and decoders walk, and the opcode table.
//
// Framing: every request starts with a 4-byte header { opcode, extension,
// 16-bit length in 32-bit words, including the header }. Request data is
// naturally aligned and padded to a 32-bit boundary. Server-to-client
// traffic is a sequence of 32-byte units: type 0 = error, type 1 = reply
// (optionally followed by extra data whose length in words is in the
// header), types 2..6 = events.
#ifndef AF_PROTO_REQUESTS_H_
#define AF_PROTO_REQUESTS_H_

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/atime.h"
#include "common/error.h"
#include "proto/opcodes.h"
#include "proto/types.h"
#include "proto/wire.h"

namespace af {

// ---------------------------------------------------------------------------
// Request framing

struct RequestHeader {
  Opcode opcode;
  uint8_t ext;
  uint16_t length_words;  // total request length including the header

  size_t TotalBytes() const { return static_cast<size_t>(length_words) * 4; }
};

// Request extension-byte flags. The extension byte has been 0 since the
// original protocol; bits defined here flag optional aux data appended
// AFTER the request body's natural end (inside the padded length), which
// decoders that predate the bit never look at — the same append-only rule
// the reply blocks follow, applied to requests.
//
// kRequestExtCorrId: the final 8 bytes of the padded request carry the
// client-minted 64-bit correlation ID (proto byte order), linking every
// server-side trace record back to the client's enqueue record.
constexpr uint8_t kRequestExtCorrId = 1u << 0;

// Writes a header with a zero length placeholder; returns its byte offset.
size_t BeginRequest(WireWriter& w, Opcode op, uint8_t ext = 0);
// Pads the body to a 4-byte boundary and patches the length field.
void EndRequest(WireWriter& w, size_t header_offset);
// Reads a header from the first 4 bytes.
bool DecodeRequestHeader(WireReader& r, RequestHeader* out);

// ---------------------------------------------------------------------------
// Field lists
//
// Each request body, and each reply whose payload is fixed words inside the
// 32-byte unit, lists its fields once, in wire order:
//
//   template <class V> void Fields(V& v) { v.Word("dev", device); ... }
//
// One encoder, one decoder and one printer (proto/decode.cc) walk that
// list. A visitor knows exactly four field kinds:
//
//   v.Word(name, x)        one 32-bit word: uint32_t, int32_t or a uint32_t
//   v.Word(name, x, kHex)  enum (kHex: printed in hex, for flags and masks)
//   v.Attrs(name, a)       the nested ACAttributes
//   v.Blob(name, s)        a std::string or byte vector: a u32 length, the
//                          bytes, zero padding to a 4-byte boundary
//   v.Samples(name, n, d)  PlaySamples' data: n (an earlier field) bytes,
//                          not padded by the body, decoded as a view
//
// Visitors are templates only, so a body's Encode and Decode inline to the
// same straight-line word writes and reads as a hand-written codec.

enum class Show : uint8_t { kDec, kHex };
constexpr Show kHex = Show::kHex;

class FieldEncoder {
 public:
  explicit FieldEncoder(WireWriter& w) : w_(w) {}
  template <typename T>
  void Word(const char*, const T& x, Show = Show::kDec) {
    static_assert(sizeof(T) == 4, "a word field is 32 bits");
    w_.U32(static_cast<uint32_t>(x));
  }
  template <typename A>
  void Attrs(const char*, A& a) {
    a.Fields(*this);
  }
  template <typename C>
  void Blob(const char*, const C& c) {
    w_.U32(static_cast<uint32_t>(c.size()));
    w_.Bytes(c.data(), c.size());
    w_.AlignPad();
  }
  void Samples(const char*, uint32_t, std::span<const uint8_t> data) { w_.Bytes(data); }

 private:
  WireWriter& w_;
};

// Reads through the bounds-checked WireReader: a short body leaves the
// reader failed, which the caller reports (the server as BadLength).
class FieldDecoder {
 public:
  explicit FieldDecoder(WireReader& r) : r_(r) {}
  template <typename T>
  void Word(const char*, T& x, Show = Show::kDec) {
    static_assert(sizeof(T) == 4, "a word field is 32 bits");
    x = static_cast<T>(r_.U32());
  }
  template <typename A>
  void Attrs(const char*, A& a) {
    a.Fields(*this);
  }
  template <typename C>
  void Blob(const char*, C& c) {
    const std::span<const uint8_t> view = r_.Bytes(r_.U32());
    c.assign(view.begin(), view.end());
    r_.AlignSkip();
  }
  void Samples(const char*, uint32_t nbytes, std::span<const uint8_t>& data) {
    data = r_.Bytes(nbytes);
  }

 private:
  WireReader& r_;
};

// Walks a const message's fields with a read-only visitor. Fields is one
// non-const member shared by all three walks; the encoder never writes.
template <typename Msg, typename V>
void VisitConst(const Msg& msg, V& v) {
  const_cast<Msg&>(msg).Fields(v);
}

// Gives a request body its Encode and Decode.
template <typename Req>
struct RequestBody {
  void Encode(WireWriter& w) const {
    FieldEncoder e(w);
    VisitConst(static_cast<const Req&>(*this), e);
  }
  static bool Decode(WireReader& r, Req* out) {
    FieldDecoder d(r);
    out->Fields(d);
    return r.ok();
  }
};

// ---------------------------------------------------------------------------
// Audio context attributes

// Value mask bits for CreateAC / ChangeACAttributes.
constexpr uint32_t kACPlayGain = 1u << 0;
constexpr uint32_t kACRecordGain = 1u << 1;
constexpr uint32_t kACPreemption = 1u << 2;
constexpr uint32_t kACEndian = 1u << 3;
constexpr uint32_t kACEncodingType = 1u << 4;
constexpr uint32_t kACChannels = 1u << 5;

struct ACAttributes {
  int32_t play_gain_db = 0;
  int32_t record_gain_db = 0;
  uint32_t preempt = 0;          // 0 = mix (default), 1 = preempt
  uint32_t big_endian_data = 0;  // sample byte order for multi-byte types
  AEncodeType encoding = AEncodeType::kMu255;
  uint32_t channels = 1;
  template <class V>
  void Fields(V& v) {
    v.Word("play_gain", play_gain_db);
    v.Word("rec_gain", record_gain_db);
    v.Word("preempt", preempt);
    v.Word("be", big_endian_data);
    v.Word("enc", encoding);
    v.Word("ch", channels);
  }
};

// ---------------------------------------------------------------------------
// Requests (body layouts; header handled by Begin/End/DecodeRequestHeader)

// NoOperation, SyncConnection, ListHosts, ListExtensions, GetServerStats.
struct EmptyReq : RequestBody<EmptyReq> {
  template <class V>
  void Fields(V&) {}
};

struct SelectEventsReq : RequestBody<SelectEventsReq> {
  DeviceId device = 0;
  uint32_t mask = 0;
  template <class V>
  void Fields(V& v) {
    v.Word("dev", device);
    v.Word("mask", mask, kHex);
  }
};

struct CreateACReq : RequestBody<CreateACReq> {
  ACId ac = 0;
  DeviceId device = 0;
  uint32_t value_mask = 0;
  ACAttributes attrs;
  template <class V>
  void Fields(V& v) {
    v.Word("ac", ac);
    v.Word("dev", device);
    v.Word("mask", value_mask, kHex);
    v.Attrs("attrs", attrs);
  }
};

struct ChangeACAttributesReq : RequestBody<ChangeACAttributesReq> {
  ACId ac = 0;
  uint32_t value_mask = 0;
  ACAttributes attrs;
  template <class V>
  void Fields(V& v) {
    v.Word("ac", ac);
    v.Word("mask", value_mask, kHex);
    v.Attrs("attrs", attrs);
  }
};

struct FreeACReq : RequestBody<FreeACReq> {
  ACId ac = 0;
  template <class V>
  void Fields(V& v) { v.Word("ac", ac); }
};

// PlaySamples flags.
constexpr uint32_t kPlaySuppressReply = 1u << 0;  // no time reply wanted
constexpr uint32_t kPlayBigEndianData = 1u << 1;  // sample data byte order

struct PlaySamplesReq : RequestBody<PlaySamplesReq> {
  ACId ac = 0;
  ATime start_time = 0;
  uint32_t nbytes = 0;
  uint32_t flags = 0;
  std::span<const uint8_t> data;  // nbytes sample bytes
  template <class V>
  void Fields(V& v) {
    v.Word("ac", ac);
    v.Word("time", start_time);
    v.Word("nbytes", nbytes);
    v.Word("flags", flags, kHex);
    v.Samples("data", nbytes, data);
  }
};

// RecordSamples flags.
constexpr uint32_t kRecordNoBlock = 1u << 0;       // return what is available
constexpr uint32_t kRecordBigEndianData = 1u << 1; // requested reply byte order

struct RecordSamplesReq : RequestBody<RecordSamplesReq> {
  ACId ac = 0;
  ATime start_time = 0;
  uint32_t nbytes = 0;
  uint32_t flags = 0;
  template <class V>
  void Fields(V& v) {
    v.Word("ac", ac);
    v.Word("time", start_time);
    v.Word("nbytes", nbytes);
    v.Word("flags", flags, kHex);
  }
};

struct GetTimeReq : RequestBody<GetTimeReq> {
  DeviceId device = 0;
  template <class V>
  void Fields(V& v) { v.Word("dev", device); }
};

// ResyncTime (opcode 40): after a failover reconnect the client re-anchors
// its device-time model. client_watermark is the last device time the
// client observed on its old connection (0 = none); the server answers
// with current device time so the client can measure the audio gap, and
// reports whether this server promoted itself from a backup (and if so the
// op-log watermark it promoted at).
struct ResyncTimeReq : RequestBody<ResyncTimeReq> {
  DeviceId device = 0;
  ATime client_watermark = 0;
  template <class V>
  void Fields(V& v) {
    v.Word("dev", device);
    v.Word("watermark", client_watermark);
  }
};

// Telephony ------------------------------------------------------------------

struct QueryPhoneReq : RequestBody<QueryPhoneReq> {
  DeviceId device = 0;
  template <class V>
  void Fields(V& v) { v.Word("dev", device); }
};

struct PassThroughReq : RequestBody<PassThroughReq> {  // Enable/DisablePassThrough
  DeviceId device_a = 0;
  DeviceId device_b = 0;
  template <class V>
  void Fields(V& v) {
    v.Word("dev_a", device_a);
    v.Word("dev_b", device_b);
  }
};

struct HookSwitchReq : RequestBody<HookSwitchReq> {
  DeviceId device = 0;
  uint32_t off_hook = 0;  // 1 = off-hook, 0 = on-hook
  template <class V>
  void Fields(V& v) {
    v.Word("dev", device);
    v.Word("off_hook", off_hook);
  }
};

struct FlashHookReq : RequestBody<FlashHookReq> {
  DeviceId device = 0;
  uint32_t duration_ms = 500;
  template <class V>
  void Fields(V& v) {
    v.Word("dev", device);
    v.Word("ms", duration_ms);
  }
};

struct GainControlReq : RequestBody<GainControlReq> {  // Enable/DisableGainControl
  DeviceId device = 0;
  template <class V>
  void Fields(V& v) { v.Word("dev", device); }
};

struct DialPhoneReq : RequestBody<DialPhoneReq> {  // obsolete: answered with Obsolete
  DeviceId device = 0;
  std::string number;
  template <class V>
  void Fields(V& v) {
    v.Word("dev", device);
    v.Blob("number", number);
  }
};

// I/O control ----------------------------------------------------------------

struct SetGainReq : RequestBody<SetGainReq> {  // SetInputGain / SetOutputGain
  DeviceId device = 0;
  int32_t gain_db = 0;
  template <class V>
  void Fields(V& v) {
    v.Word("dev", device);
    v.Word("gain_db", gain_db);
  }
};

struct QueryGainReq : RequestBody<QueryGainReq> {  // QueryInputGain / QueryOutputGain
  DeviceId device = 0;
  template <class V>
  void Fields(V& v) { v.Word("dev", device); }
};

struct IOEnableReq : RequestBody<IOEnableReq> {  // Enable/Disable Input/Output
  DeviceId device = 0;
  uint32_t mask = ~0u;  // which inputs/outputs, bit per connector
  template <class V>
  void Fields(V& v) {
    v.Word("dev", device);
    v.Word("mask", mask, kHex);
  }
};

// Access control ---------------------------------------------------------

struct SetAccessControlReq : RequestBody<SetAccessControlReq> {
  uint32_t enabled = 0;
  template <class V>
  void Fields(V& v) { v.Word("enabled", enabled); }
};

enum class HostChangeMode : uint32_t { kInsert = 0, kDelete = 1 };

struct ChangeHostsReq : RequestBody<ChangeHostsReq> {
  HostChangeMode mode = HostChangeMode::kInsert;
  uint32_t family = 0;  // 0 = IPv4, 1 = IPv6, 2 = local
  std::vector<uint8_t> address;
  template <class V>
  void Fields(V& v) {
    v.Word("mode", mode);
    v.Word("family", family);
    v.Blob("address", address);
  }
};

// Atoms and properties ----------------------------------------------------

struct InternAtomReq : RequestBody<InternAtomReq> {
  uint32_t only_if_exists = 0;
  std::string name;
  template <class V>
  void Fields(V& v) {
    v.Word("only_if_exists", only_if_exists);
    v.Blob("name", name);
  }
};

struct GetAtomNameReq : RequestBody<GetAtomNameReq> {
  Atom atom = 0;
  template <class V>
  void Fields(V& v) { v.Word("atom", atom); }
};

enum class PropertyMode : uint32_t { kReplace = 0, kPrepend = 1, kAppend = 2 };

struct ChangePropertyReq : RequestBody<ChangePropertyReq> {
  DeviceId device = 0;
  Atom property = 0;
  Atom type = 0;
  uint32_t format = 8;  // 8, 16, or 32
  PropertyMode mode = PropertyMode::kReplace;
  std::vector<uint8_t> data;
  template <class V>
  void Fields(V& v) {
    v.Word("dev", device);
    v.Word("prop", property);
    v.Word("type", type);
    v.Word("format", format);
    v.Word("mode", mode);
    v.Blob("data", data);
  }
};

struct DeletePropertyReq : RequestBody<DeletePropertyReq> {
  DeviceId device = 0;
  Atom property = 0;
  template <class V>
  void Fields(V& v) {
    v.Word("dev", device);
    v.Word("prop", property);
  }
};

struct GetPropertyReq : RequestBody<GetPropertyReq> {
  DeviceId device = 0;
  Atom property = 0;
  Atom type = kAnyPropertyType;
  uint32_t long_offset = 0;  // in 32-bit units, as in X
  uint32_t long_length = ~0u;
  uint32_t do_delete = 0;
  template <class V>
  void Fields(V& v) {
    v.Word("dev", device);
    v.Word("prop", property);
    v.Word("type", type);
    v.Word("offset", long_offset);
    v.Word("length", long_length);
    v.Word("delete", do_delete);
  }
};

struct ListPropertiesReq : RequestBody<ListPropertiesReq> {
  DeviceId device = 0;
  template <class V>
  void Fields(V& v) { v.Word("dev", device); }
};

// Housekeeping -------------------------------------------------------------

struct QueryExtensionReq : RequestBody<QueryExtensionReq> {
  std::string name;
  template <class V>
  void Fields(V& v) { v.Blob("name", name); }
};

struct KillClientReq : RequestBody<KillClientReq> {
  uint32_t resource = 0;
  template <class V>
  void Fields(V& v) { v.Word("resource", resource); }
};

// Observability --------------------------------------------------------------

// GetTrace request flags. Enable applies before the drain, disable after,
// so enable|disable captures exactly one window.
constexpr uint32_t kTraceFlagEnable = 1u << 0;
constexpr uint32_t kTraceFlagDisable = 1u << 1;

struct GetTraceReq : RequestBody<GetTraceReq> {
  uint32_t flags = 0;
  template <class V>
  void Fields(V& v) { v.Word("flags", flags, kHex); }
};

// ---------------------------------------------------------------------------
// The opcode table: the one per-opcode list. Entry i describes opcode
// kMinOpcode + i: its name, its body type and how the dispatcher routes it
// across shards. OpcodeName, OpcodeRoute, the request printer
// (DecodeRequestLine) and the client's heal reissue read it; only the
// dispatcher's handler switch lists opcodes besides.

// Which shard executes a request: the owner of the resource id its body
// leads with, or the client's home shard.
enum class Route : uint8_t {
  kHome,         // client- or server-global state (events, atoms, hosts, stats)
  kACWord0,      // word 0 is an AC id: the shard holding that AC
  kDeviceWord0,  // word 0 is a device id: the device's owner
  kDeviceWord1,  // CreateAC: word 0 is the new AC id, word 1 the device
};

template <typename Body>
struct OpcodeEntry {
  using Type = Body;
  Opcode op;
  const char* name;
  Route route;
};

template <typename Body>
constexpr OpcodeEntry<Body> Op(Opcode op, const char* name, Route route) {
  return {op, name, route};
}

inline constexpr std::tuple kOpcodeTable{
    Op<SelectEventsReq>(Opcode::kSelectEvents, "SelectEvents", Route::kHome),
    Op<CreateACReq>(Opcode::kCreateAC, "CreateAC", Route::kDeviceWord1),
    Op<ChangeACAttributesReq>(Opcode::kChangeACAttributes, "ChangeACAttributes",
                              Route::kACWord0),
    Op<FreeACReq>(Opcode::kFreeAC, "FreeAC", Route::kACWord0),
    Op<PlaySamplesReq>(Opcode::kPlaySamples, "PlaySamples", Route::kACWord0),
    Op<RecordSamplesReq>(Opcode::kRecordSamples, "RecordSamples", Route::kACWord0),
    Op<GetTimeReq>(Opcode::kGetTime, "GetTime", Route::kDeviceWord0),
    Op<QueryPhoneReq>(Opcode::kQueryPhone, "QueryPhone", Route::kDeviceWord0),
    // PassThrough routes by device_a; the handler rejects cross-shard pairs.
    Op<PassThroughReq>(Opcode::kEnablePassThrough, "EnablePassThrough", Route::kDeviceWord0),
    Op<PassThroughReq>(Opcode::kDisablePassThrough, "DisablePassThrough", Route::kDeviceWord0),
    Op<HookSwitchReq>(Opcode::kHookSwitch, "HookSwitch", Route::kDeviceWord0),
    Op<FlashHookReq>(Opcode::kFlashHook, "FlashHook", Route::kDeviceWord0),
    Op<GainControlReq>(Opcode::kEnableGainControl, "EnableGainControl", Route::kDeviceWord0),
    Op<GainControlReq>(Opcode::kDisableGainControl, "DisableGainControl", Route::kDeviceWord0),
    Op<DialPhoneReq>(Opcode::kDialPhone, "DialPhone", Route::kHome),
    Op<SetGainReq>(Opcode::kSetInputGain, "SetInputGain", Route::kDeviceWord0),
    Op<SetGainReq>(Opcode::kSetOutputGain, "SetOutputGain", Route::kDeviceWord0),
    Op<QueryGainReq>(Opcode::kQueryInputGain, "QueryInputGain", Route::kDeviceWord0),
    Op<QueryGainReq>(Opcode::kQueryOutputGain, "QueryOutputGain", Route::kDeviceWord0),
    Op<IOEnableReq>(Opcode::kEnableInput, "EnableInput", Route::kDeviceWord0),
    Op<IOEnableReq>(Opcode::kEnableOutput, "EnableOutput", Route::kDeviceWord0),
    Op<IOEnableReq>(Opcode::kDisableInput, "DisableInput", Route::kDeviceWord0),
    Op<IOEnableReq>(Opcode::kDisableOutput, "DisableOutput", Route::kDeviceWord0),
    Op<SetAccessControlReq>(Opcode::kSetAccessControl, "SetAccessControl", Route::kHome),
    Op<ChangeHostsReq>(Opcode::kChangeHosts, "ChangeHosts", Route::kHome),
    Op<EmptyReq>(Opcode::kListHosts, "ListHosts", Route::kHome),
    Op<InternAtomReq>(Opcode::kInternAtom, "InternAtom", Route::kHome),
    Op<GetAtomNameReq>(Opcode::kGetAtomName, "GetAtomName", Route::kHome),
    Op<ChangePropertyReq>(Opcode::kChangeProperty, "ChangeProperty", Route::kDeviceWord0),
    Op<DeletePropertyReq>(Opcode::kDeleteProperty, "DeleteProperty", Route::kDeviceWord0),
    Op<GetPropertyReq>(Opcode::kGetProperty, "GetProperty", Route::kDeviceWord0),
    Op<ListPropertiesReq>(Opcode::kListProperties, "ListProperties", Route::kDeviceWord0),
    Op<EmptyReq>(Opcode::kNoOperation, "NoOperation", Route::kHome),
    Op<EmptyReq>(Opcode::kSyncConnection, "SyncConnection", Route::kHome),
    Op<QueryExtensionReq>(Opcode::kQueryExtension, "QueryExtension", Route::kHome),
    Op<EmptyReq>(Opcode::kListExtensions, "ListExtensions", Route::kHome),
    Op<KillClientReq>(Opcode::kKillClient, "KillClient", Route::kHome),
    Op<EmptyReq>(Opcode::kGetServerStats, "GetServerStats", Route::kHome),
    Op<GetTraceReq>(Opcode::kGetTrace, "GetTrace", Route::kHome),
    Op<ResyncTimeReq>(Opcode::kResyncTime, "ResyncTime", Route::kDeviceWord0),
};

constexpr size_t kNumOpcodes = size_t{kMaxOpcode} - kMinOpcode + 1;
using OpcodeTable = std::remove_const_t<decltype(kOpcodeTable)>;

static_assert(std::tuple_size_v<OpcodeTable> == kNumOpcodes,
              "the opcode table must have one entry per opcode");
static_assert(
    []<size_t... I>(std::index_sequence<I...>) {
      return ((std::get<I>(kOpcodeTable).op == static_cast<Opcode>(kMinOpcode + I)) && ...);
    }(std::make_index_sequence<kNumOpcodes>{}),
    "the opcode table must run kMinOpcode..kMaxOpcode in order");

// The table's name and route columns, indexable at run time.
struct OpcodeInfo {
  const char* name;
  Route route;
};
inline constexpr auto kOpcodeInfo = []<size_t... I>(std::index_sequence<I...>) {
  return std::array<OpcodeInfo, kNumOpcodes>{
      OpcodeInfo{std::get<I>(kOpcodeTable).name, std::get<I>(kOpcodeTable).route}...};
}(std::make_index_sequence<kNumOpcodes>{});

// Route::kHome for opcodes outside the table.
inline Route OpcodeRoute(Opcode op) {
  const uint8_t i = static_cast<uint8_t>(op);
  return i >= kMinOpcode && i <= kMaxOpcode ? kOpcodeInfo[i - kMinOpcode].route : Route::kHome;
}

// Calls f(Body{}) with a default body of op's type; false (and no call)
// for an opcode outside the table.
template <typename F>
bool VisitRequestBody(Opcode op, F&& f) {
  return [&]<size_t... I>(std::index_sequence<I...>) {
    return ((op == std::get<I>(kOpcodeTable).op &&
             (f(typename std::tuple_element_t<I, OpcodeTable>::Type{}), true)) ||
            ...);
  }(std::make_index_sequence<kNumOpcodes>{});
}

// ---------------------------------------------------------------------------
// Server-to-client packets

constexpr uint8_t kErrorPacketType = 0;
constexpr uint8_t kReplyPacketType = 1;

struct ErrorPacket {
  AfError code = AfError::kSuccess;
  uint16_t seq = 0;
  Opcode opcode = Opcode::kNoOperation;
  uint8_t ext = 0;
  uint32_t value = 0;  // offending value, when meaningful
  void Encode(WireWriter& w) const;
  // data must be exactly 32 bytes beginning with the type byte 0.
  static bool Decode(std::span<const uint8_t> data, WireOrder order, ErrorPacket* out);
};

// Generic reply header view: first 8 bytes of any reply.
struct ReplyHeader {
  uint8_t data0 = 0;
  uint16_t seq = 0;
  uint32_t extra_words = 0;
};
// Parses the fixed part of a 32-byte reply unit.
bool PeekReplyHeader(std::span<const uint8_t> unit, WireOrder order, ReplyHeader* out);

// Writes the 8 fixed bytes of a reply unit; returns its start offset. The
// caller appends up to 24 payload bytes and then calls EndReplyUnit.
size_t BeginReplyUnit(WireWriter& w, uint16_t seq, uint32_t extra_words);
// Zero-pads the unit that began at `start` to 32 bytes.
void EndReplyUnit(WireWriter& w, size_t start);
// Checks the type byte and positions *r past the 8 fixed reply bytes.
bool OpenReplyUnit(std::span<const uint8_t> data, WireOrder order, WireReader* r);

// Gives a reply whose payload is fixed words inside the 32-byte unit its
// Encode (the full packet) and Decode (from the full packet).
template <typename Reply>
struct FixedReply {
  void Encode(WireWriter& w, uint16_t seq) const {
    const size_t start = BeginReplyUnit(w, seq, 0);
    FieldEncoder e(w);
    VisitConst(static_cast<const Reply&>(*this), e);
    EndReplyUnit(w, start);
  }
  static bool Decode(std::span<const uint8_t> data, WireOrder order, Reply* out) {
    WireReader r({});
    if (!OpenReplyUnit(data, order, &r)) {
      return false;
    }
    FieldDecoder d(r);
    out->Fields(d);
    return r.ok();
  }
};

// Replies. Encode emits the full packet (32 bytes + extra, padded);
// Decode consumes the full packet.
struct GetTimeReply : FixedReply<GetTimeReply> {
  ATime time = 0;
  template <class V>
  void Fields(V& v) { v.Word("time", time); }
};

// Also used for PlaySamples replies (paper: play and record return device
// time as a convenience).
using PlaySamplesReply = GetTimeReply;

struct ResyncTimeReply : FixedReply<ResyncTimeReply> {
  ATime server_time = 0;          // device time when the resync was served
  ATime promoted_watermark = 0;   // op-log device-time watermark at promotion
  uint32_t promoted = 0;          // 1 if this server promoted from a backup
  template <class V>
  void Fields(V& v) {
    v.Word("server_time", server_time);
    v.Word("promoted_watermark", promoted_watermark);
    v.Word("promoted", promoted);
  }
};

struct RecordSamplesReply {
  ATime time = 0;           // current device time
  uint32_t actual_bytes = 0;  // how many sample bytes follow
  std::vector<uint8_t> data;
  void Encode(WireWriter& w, uint16_t seq) const;
  // Copy-free server-side encode: writes the reply straight from a span
  // (e.g. the device's scratch arena) without staging it in a vector.
  static void EncodeTo(WireWriter& w, uint16_t seq, ATime time,
                       std::span<const uint8_t> data);
  static bool Decode(std::span<const uint8_t> data, WireOrder order, RecordSamplesReply* out);
};

struct QueryPhoneReply : FixedReply<QueryPhoneReply> {
  uint32_t off_hook = 0;      // hookswitch state
  uint32_t loop_current = 0;  // extension phone state
  template <class V>
  void Fields(V& v) {
    v.Word("off_hook", off_hook);
    v.Word("loop_current", loop_current);
  }
};

struct QueryGainReply : FixedReply<QueryGainReply> {
  int32_t gain_db = 0;
  int32_t min_db = kGainMinDb;
  int32_t max_db = kGainMaxDb;
  template <class V>
  void Fields(V& v) {
    v.Word("gain_db", gain_db);
    v.Word("min_db", min_db);
    v.Word("max_db", max_db);
  }
};

struct InternAtomReply : FixedReply<InternAtomReply> {
  Atom atom = 0;
  template <class V>
  void Fields(V& v) { v.Word("atom", atom); }
};

struct GetAtomNameReply {
  std::string name;
  void Encode(WireWriter& w, uint16_t seq) const;
  static bool Decode(std::span<const uint8_t> data, WireOrder order, GetAtomNameReply* out);
};

struct GetPropertyReply {
  Atom type = 0;
  uint32_t format = 0;
  uint32_t bytes_after = 0;
  std::vector<uint8_t> data;
  void Encode(WireWriter& w, uint16_t seq) const;
  static bool Decode(std::span<const uint8_t> data, WireOrder order, GetPropertyReply* out);
};

struct ListPropertiesReply {
  std::vector<Atom> atoms;
  void Encode(WireWriter& w, uint16_t seq) const;
  static bool Decode(std::span<const uint8_t> data, WireOrder order, ListPropertiesReply* out);
};

struct HostEntry {
  uint16_t family = 0;
  std::vector<uint8_t> address;
};

struct ListHostsReply {
  uint32_t enabled = 0;
  std::vector<HostEntry> hosts;
  void Encode(WireWriter& w, uint16_t seq) const;
  static bool Decode(std::span<const uint8_t> data, WireOrder order, ListHostsReply* out);
};

// Empty-bodied acknowledgement (SyncConnection, HookSwitch, SetInputGain...).
struct EmptyReply : FixedReply<EmptyReply> {
  template <class V>
  void Fields(V&) {}
};

}  // namespace af

#endif  // AF_PROTO_REQUESTS_H_
