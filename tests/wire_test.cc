// Wire protocol round trips: every request and reply in both byte orders,
// the setup handshake, events, atoms, and malformed-input behavior; and the
// wire golden, which pins the exact bytes of every request and fixed reply.
#include <gtest/gtest.h>

#include <cstdio>
#include <iterator>
#include <span>
#include <string>
#include <vector>

#include "proto/atoms.h"
#include "proto/events.h"
#include "proto/requests.h"
#include "proto/setup.h"
#include "proto/wire.h"
#include "torture_util.h"

namespace af {
namespace {

class WireOrderTest : public ::testing::TestWithParam<WireOrder> {
 protected:
  WireOrder order() const { return GetParam(); }

  // Encodes a request with framing, decodes the header and body back.
  template <typename Req>
  Req RoundTrip(Opcode op, const Req& req) {
    WireWriter w(order());
    const size_t header = BeginRequest(w, op);
    req.Encode(w);
    EndRequest(w, header);

    WireReader r(w.data(), order());
    RequestHeader decoded_header;
    EXPECT_TRUE(DecodeRequestHeader(r, &decoded_header));
    EXPECT_EQ(decoded_header.opcode, op);
    EXPECT_EQ(decoded_header.TotalBytes(), w.size());
    Req out;
    EXPECT_TRUE(Req::Decode(r, &out));
    return out;
  }
};

TEST_P(WireOrderTest, PrimitiveRoundTrips) {
  WireWriter w(order());
  w.U8(0xAB);
  w.U16(0x1234);
  w.U32(0xDEADBEEF);
  w.U64(0x0123456789ABCDEFull);
  w.I32(-42);
  w.PaddedString("hello");
  // 19 fixed bytes + "hello" = 24, already 4-aligned so no extra pad.
  EXPECT_EQ(w.size(), 24u);

  WireReader r(w.data(), order());
  EXPECT_EQ(r.U8(), 0xAB);
  EXPECT_EQ(r.U16(), 0x1234);
  EXPECT_EQ(r.U32(), 0xDEADBEEFu);
  EXPECT_EQ(r.U64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.I32(), -42);
  EXPECT_EQ(r.PaddedString(5), "hello");
  EXPECT_TRUE(r.ok());
}

TEST_P(WireOrderTest, ReaderBoundsChecking) {
  WireWriter w(order());
  w.U16(7);
  WireReader r(w.data(), order());
  EXPECT_EQ(r.U16(), 7);
  r.U32();  // past the end
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.U32(), 0u);  // sticky failure returns zeroes
}

TEST_P(WireOrderTest, SelectEvents) {
  SelectEventsReq req;
  req.device = 3;
  req.mask = kPhoneRingMask | kPropertyChangeMask;
  const auto out = RoundTrip(Opcode::kSelectEvents, req);
  EXPECT_EQ(out.device, 3u);
  EXPECT_EQ(out.mask, req.mask);
}

TEST_P(WireOrderTest, CreateAC) {
  CreateACReq req;
  req.ac = 0x100007;
  req.device = 1;
  req.value_mask = kACPlayGain | kACEncodingType;
  req.attrs.play_gain_db = -12;
  req.attrs.encoding = AEncodeType::kLin16;
  req.attrs.channels = 2;
  const auto out = RoundTrip(Opcode::kCreateAC, req);
  EXPECT_EQ(out.ac, req.ac);
  EXPECT_EQ(out.attrs.play_gain_db, -12);
  EXPECT_EQ(out.attrs.encoding, AEncodeType::kLin16);
  EXPECT_EQ(out.attrs.channels, 2u);
}

TEST_P(WireOrderTest, PlaySamplesCarriesData) {
  std::vector<uint8_t> samples(1000);
  for (size_t i = 0; i < samples.size(); ++i) {
    samples[i] = static_cast<uint8_t>(i * 7);
  }
  PlaySamplesReq req;
  req.ac = 0x100001;
  req.start_time = 0xFFFFFFF0u;  // near the wrap
  req.nbytes = static_cast<uint32_t>(samples.size());
  req.flags = kPlaySuppressReply;
  req.data = samples;

  // The decoded request's data is a view into the wire buffer, so (as in
  // the server's dispatcher) the buffer must outlive the decoded struct.
  WireWriter w(order());
  const size_t header = BeginRequest(w, Opcode::kPlaySamples);
  req.Encode(w);
  EndRequest(w, header);

  WireReader r(w.data(), order());
  RequestHeader decoded_header;
  ASSERT_TRUE(DecodeRequestHeader(r, &decoded_header));
  PlaySamplesReq out;
  ASSERT_TRUE(PlaySamplesReq::Decode(r, &out));
  EXPECT_EQ(out.start_time, req.start_time);
  EXPECT_EQ(out.nbytes, req.nbytes);
  EXPECT_EQ(out.flags, kPlaySuppressReply);
  ASSERT_EQ(out.data.size(), samples.size());
  EXPECT_TRUE(std::equal(samples.begin(), samples.end(), out.data.begin()));
}

TEST_P(WireOrderTest, RecordSamples) {
  RecordSamplesReq req;
  req.ac = 0x100002;
  req.start_time = 12345;
  req.nbytes = 8192;
  req.flags = kRecordNoBlock;
  const auto out = RoundTrip(Opcode::kRecordSamples, req);
  EXPECT_EQ(out.nbytes, 8192u);
  EXPECT_EQ(out.flags, kRecordNoBlock);
}

TEST_P(WireOrderTest, StringRequests) {
  InternAtomReq intern;
  intern.only_if_exists = 1;
  intern.name = "MY_PROPERTY";
  EXPECT_EQ(RoundTrip(Opcode::kInternAtom, intern).name, "MY_PROPERTY");

  DialPhoneReq dial;
  dial.device = 1;
  dial.number = "18005551212";
  EXPECT_EQ(RoundTrip(Opcode::kDialPhone, dial).number, "18005551212");

  QueryExtensionReq ext;
  ext.name = "NOT-YET";
  EXPECT_EQ(RoundTrip(Opcode::kQueryExtension, ext).name, "NOT-YET");
}

TEST_P(WireOrderTest, ChangeProperty) {
  ChangePropertyReq req;
  req.device = 0;
  req.property = kAtomLAST_NUMBER_DIALED;
  req.type = kAtomSTRING;
  req.format = 8;
  req.mode = PropertyMode::kAppend;
  req.data = {'5', '5', '5'};
  const auto out = RoundTrip(Opcode::kChangeProperty, req);
  EXPECT_EQ(out.mode, PropertyMode::kAppend);
  EXPECT_EQ(out.data, req.data);
}

TEST_P(WireOrderTest, HostRequests) {
  ChangeHostsReq req;
  req.mode = HostChangeMode::kDelete;
  req.family = 0;
  req.address = {192, 168, 1, 5};
  const auto out = RoundTrip(Opcode::kChangeHosts, req);
  EXPECT_EQ(out.mode, HostChangeMode::kDelete);
  EXPECT_EQ(out.address, req.address);
}

TEST_P(WireOrderTest, Replies) {
  WireWriter w(order());
  GetTimeReply time_reply;
  time_reply.time = 0xCAFEBABEu;
  time_reply.Encode(w, 77);
  ASSERT_EQ(w.size(), kReplyBaseBytes);
  ReplyHeader header;
  ASSERT_TRUE(PeekReplyHeader(w.data(), order(), &header));
  EXPECT_EQ(header.seq, 77);
  GetTimeReply decoded;
  ASSERT_TRUE(GetTimeReply::Decode(w.data(), order(), &decoded));
  EXPECT_EQ(decoded.time, 0xCAFEBABEu);
}

TEST_P(WireOrderTest, RecordReplyWithData) {
  WireWriter w(order());
  RecordSamplesReply reply;
  reply.time = 999;
  reply.data = {1, 2, 3, 4, 5, 6, 7};
  reply.actual_bytes = 7;
  reply.Encode(w, 5);
  EXPECT_EQ(w.size(), kReplyBaseBytes + 8);  // 7 bytes padded to 8

  RecordSamplesReply decoded;
  ASSERT_TRUE(RecordSamplesReply::Decode(w.data(), order(), &decoded));
  EXPECT_EQ(decoded.time, 999u);
  EXPECT_EQ(decoded.data, reply.data);
}

TEST_P(WireOrderTest, ListHostsReply) {
  WireWriter w(order());
  ListHostsReply reply;
  reply.enabled = 1;
  reply.hosts.push_back({0, {10, 0, 0, 1}});
  reply.hosts.push_back({1, std::vector<uint8_t>(16, 0xFE)});
  reply.Encode(w, 3);

  ListHostsReply decoded;
  ASSERT_TRUE(ListHostsReply::Decode(w.data(), order(), &decoded));
  EXPECT_EQ(decoded.enabled, 1u);
  ASSERT_EQ(decoded.hosts.size(), 2u);
  EXPECT_EQ(decoded.hosts[0].address, (std::vector<uint8_t>{10, 0, 0, 1}));
  EXPECT_EQ(decoded.hosts[1].address.size(), 16u);
}

TEST_P(WireOrderTest, ErrorPacket) {
  WireWriter w(order());
  ErrorPacket error;
  error.code = AfError::kBadDevice;
  error.seq = 42;
  error.opcode = Opcode::kGetTime;
  error.value = 9;
  error.Encode(w);
  ASSERT_EQ(w.size(), kReplyBaseBytes);

  ErrorPacket decoded;
  ASSERT_TRUE(ErrorPacket::Decode(w.data(), order(), &decoded));
  EXPECT_EQ(decoded.code, AfError::kBadDevice);
  EXPECT_EQ(decoded.seq, 42);
  EXPECT_EQ(decoded.opcode, Opcode::kGetTime);
  EXPECT_EQ(decoded.value, 9u);
}

TEST_P(WireOrderTest, EventRoundTrip) {
  WireWriter w(order());
  AEvent event;
  event.type = EventType::kPhoneDTMF;
  event.detail = '7';
  event.seq = 300;
  event.device = 2;
  event.dev_time = 0x80000001u;
  event.host_time_us = 1234567890123ull;
  event.w0 = '7';
  event.Encode(w);
  ASSERT_EQ(w.size(), kReplyBaseBytes);

  AEvent decoded;
  ASSERT_TRUE(AEvent::Decode(w.data(), order(), &decoded));
  EXPECT_EQ(decoded.type, EventType::kPhoneDTMF);
  EXPECT_EQ(decoded.detail, '7');
  EXPECT_EQ(decoded.dev_time, 0x80000001u);
  EXPECT_EQ(decoded.host_time_us, 1234567890123ull);
}

TEST_P(WireOrderTest, SetupHandshake) {
  SetupRequest request;
  request.order = order();
  request.auth_name = "MIT-MAGIC";
  request.auth_data = "xyzzy";
  const auto bytes = request.Encode();

  SetupRequest decoded;
  uint16_t name_len = 0;
  uint16_t data_len = 0;
  ASSERT_TRUE(SetupRequest::DecodeFixed(bytes, &decoded, &name_len, &data_len));
  EXPECT_EQ(decoded.order, order());
  EXPECT_EQ(name_len, 9);
  EXPECT_EQ(data_len, 5);
  EXPECT_EQ(bytes.size(), SetupRequest::kFixedBytes + Pad4(9) + Pad4(5));

  SetupReply reply;
  reply.success = true;
  reply.resource_id_base = 0x100000;
  reply.resource_id_mask = 0xFFFFF;
  reply.vendor = "AudioFile test";
  DeviceDesc dev;
  dev.index = 0;
  dev.type = DevType::kCodec;
  dev.play_buffer_samples = 32768;
  dev.inputs_from_phone = 1;
  reply.devices.push_back(dev);
  const auto reply_bytes = reply.Encode(order());

  bool success = false;
  uint32_t additional = 0;
  ASSERT_TRUE(SetupReply::DecodeFixed(
      std::span<const uint8_t>(reply_bytes).first(SetupReply::kFixedBytes), order(),
      &success, &additional));
  EXPECT_TRUE(success);
  EXPECT_EQ(reply_bytes.size(), SetupReply::kFixedBytes + additional * 4);

  SetupReply decoded_reply;
  ASSERT_TRUE(SetupReply::DecodeVariable(
      std::span<const uint8_t>(reply_bytes).subspan(SetupReply::kFixedBytes), order(),
      success, &decoded_reply));
  EXPECT_EQ(decoded_reply.vendor, "AudioFile test");
  ASSERT_EQ(decoded_reply.devices.size(), 1u);
  EXPECT_EQ(decoded_reply.devices[0].play_buffer_samples, 32768u);
  EXPECT_EQ(decoded_reply.devices[0].inputs_from_phone, 1u);
  EXPECT_NEAR(decoded_reply.devices[0].BufferSeconds(), 4.096, 0.001);
}

TEST_P(WireOrderTest, SetupFailureReply) {
  SetupReply reply;
  reply.success = false;
  reply.failure_reason = "host not authorized to connect";
  const auto bytes = reply.Encode(order());
  bool success = true;
  uint32_t additional = 0;
  ASSERT_TRUE(SetupReply::DecodeFixed(bytes, order(), &success, &additional));
  EXPECT_FALSE(success);
  SetupReply decoded;
  ASSERT_TRUE(SetupReply::DecodeVariable(
      std::span<const uint8_t>(bytes).subspan(SetupReply::kFixedBytes), order(), success,
      &decoded));
  EXPECT_EQ(decoded.failure_reason, "host not authorized to connect");
}

INSTANTIATE_TEST_SUITE_P(BothOrders, WireOrderTest,
                         ::testing::Values(WireOrder::kLittle, WireOrder::kBig));

TEST(WireTest, RequestTooLargeIsFatalCheckedByLimit) {
  // The 16-bit length field limits requests to 262144 bytes (Section 5.3).
  EXPECT_EQ(kMaxRequestBytes, 262144u);
}

TEST(AtomTest, BuiltinsArePreloaded) {
  AtomTable atoms;
  EXPECT_EQ(atoms.Intern("STRING", true), kAtomSTRING);
  EXPECT_EQ(atoms.Intern("LAST_NUMBER_DIALED", true), kAtomLAST_NUMBER_DIALED);
  EXPECT_EQ(atoms.NameOf(kAtomTIME).value(), "TIME");
  EXPECT_EQ(atoms.size(), static_cast<size_t>(kLastBuiltinAtom));
}

TEST(AtomTest, InternCreatesAndFinds) {
  AtomTable atoms;
  EXPECT_EQ(atoms.Intern("NEW_THING", true), kNoAtom);
  const Atom a = atoms.Intern("NEW_THING");
  EXPECT_GT(a, kLastBuiltinAtom);
  EXPECT_EQ(atoms.Intern("NEW_THING"), a);
  EXPECT_EQ(atoms.NameOf(a).value(), "NEW_THING");
  EXPECT_FALSE(atoms.NameOf(a + 100).has_value());
}

TEST(SampleTypeTest, Table) {
  EXPECT_EQ(SampleTypeOf(AEncodeType::kMu255).bytes_per_unit, 1u);
  EXPECT_EQ(SampleTypeOf(AEncodeType::kLin16).bytes_per_unit, 2u);
  EXPECT_STREQ(SampleTypeOf(AEncodeType::kLin32).name, "LIN32");
  // ADPCM32: 4 bits per sample, 2 samples per byte.
  EXPECT_EQ(SamplesToBytes(AEncodeType::kAdpcm32, 16, 1), 8u);
  EXPECT_EQ(BytesToSamples(AEncodeType::kLin16, 4000, 2), 1000u);
  EXPECT_EQ(SamplesToBytes(AEncodeType::kLin16, 1000, 2), 4000u);
}

// ---------------------------------------------------------------------------
// Wire golden: the exact bytes each request and fixed-size reply encodes to,
// in both byte orders, as a length plus an FNV-1a 64 digest per order. A
// codec change that moves a single byte fails here. On a deliberate wire
// change the failure message prints the replacement row.

uint64_t Fnv1a64(std::span<const uint8_t> bytes) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (const uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  return h;
}

struct Golden {
  const char* name;
  size_t size;
  uint64_t little;  // digest of the 'l' encoding
  uint64_t big;     // digest of the 'B' encoding
};

// Checks one case in both orders; encode(order) produces its bytes.
template <typename Encode>
void ExpectGolden(const Golden& g, Encode encode) {
  const std::vector<uint8_t> le = encode(WireOrder::kLittle);
  const std::vector<uint8_t> be = encode(WireOrder::kBig);
  const auto row = [&] {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "{\"%s\", %zu, 0x%016llxull, 0x%016llxull}", g.name,
                  le.size(), static_cast<unsigned long long>(Fnv1a64(le)),
                  static_cast<unsigned long long>(Fnv1a64(be)));
    return std::string(buf);
  };
  EXPECT_EQ(le.size(), g.size) << "now " << row();
  EXPECT_EQ(be.size(), g.size) << "now " << row();
  EXPECT_EQ(Fnv1a64(le), g.little) << "now " << row();
  EXPECT_EQ(Fnv1a64(be), g.big) << "now " << row();
}

// torture::CanonicalRequest(op), indexed by opcode - kMinOpcode.
constexpr Golden kCanonicalGolden[] = {
    {"SelectEvents", 12, 0xa91390444c3292bfull, 0x19632d5280130e1dull},
    {"CreateAC", 40, 0xce3612508cca79bcull, 0xe5a998b6921f6882ull},
    {"ChangeACAttributes", 36, 0x4913a1c263664be6ull, 0x571942a442be069eull},
    {"FreeAC", 8, 0xe609a473d8409db3ull, 0x137f15b901be3c7bull},
    {"PlaySamples", 52, 0x6b88e8167fec2ceaull, 0xed30ddccafb65128ull},
    {"RecordSamples", 20, 0xf8d5c7e6d111ec9full, 0x426b1ac17f3f555full},
    {"GetTime", 8, 0x92aadab12b68cef0ull, 0x3279dcc20cad869cull},
    {"QueryPhone", 8, 0x59caf8e05b78173full, 0x87406a2584f5b607ull},
    {"EnablePassThrough", 12, 0x532fad4722a45847ull, 0xc37f4a555684d3a5ull},
    {"DisablePassThrough", 12, 0x9f1b72131f2e34a4ull, 0x7c752a7b3db99192ull},
    {"HookSwitch", 12, 0xdb223079cb004085ull, 0x605cfc1fb9b56cbbull},
    {"FlashHook", 12, 0xcb044afb05fc9181ull, 0x6f3af942ca7cb085ull},
    {"EnableGainControl", 8, 0xbee515b324cba49aull, 0x1f1613a24386eceeull},
    {"DisableGainControl", 8, 0xa97bda028dd26a19ull, 0x7c0668bd6454cb51ull},
    {"DialPhone", 20, 0x454d5e1d1a90c6dfull, 0xd1eafd0bf6ab24dbull},
    {"SetInputGain", 12, 0xc1450be34d4411eeull, 0xee60eac70c230d6cull},
    {"SetOutputGain", 12, 0xfd4bca49f9161dcfull, 0x6d9b67582cf6992dull},
    {"QueryInputGain", 8, 0x1d3d2e6f1109e3a5ull, 0xefc7bd29e78c44ddull},
    {"QueryOutputGain", 8, 0xfe426766061a9984ull, 0x9e116976e75f5130ull},
    {"EnableInput", 12, 0x6af31aafc32bde86ull, 0x5372d7fa2e8d5c04ull},
    {"EnableOutput", 12, 0x725b67d62093ac67ull, 0x1e76655ce11e51c5ull},
    {"DisableInput", 12, 0x0cb66fca3cddccc4ull, 0xc180bf46da4443b2ull},
    {"DisableOutput", 12, 0xb680cd9335c166a5ull, 0x5ba9d3f1d22502dbull},
    {"SetAccessControl", 8, 0x497769710a6cb94full, 0x76ecdab633ea5817ull},
    {"ChangeHosts", 20, 0x6eb33b941b60ad5dull, 0x26bb4a17d731a873ull},
    {"ListHosts", 4, 0x8c9789585f405786ull, 0x8c9aee585f4338fcull},
    {"InternAtom", 20, 0xd3245a7682c67f45ull, 0x3a61889ffb89bdc1ull},
    {"GetAtomName", 8, 0x2d91a1448879d43aull, 0xfb01bd92082d2de0ull},
    {"ChangeProperty", 36, 0x22d9e80ef887ac6full, 0x2c89052a51bd4c45ull},
    {"DeleteProperty", 12, 0x1e459d9760d8dcf0ull, 0xfb9f55ff7f6439deull},
    {"GetProperty", 28, 0x47add9faa6b06e51ull, 0xdae3f4ebf91b2e97ull},
    {"ListProperties", 8, 0x829bdf76a6148217ull, 0xb01150bbcf9220dfull},
    {"NoOperation", 4, 0xadd8af6c80e3a86dull, 0xadd54a6c80e0c6f7ull},
    {"SyncConnection", 4, 0x8dc1e785837f17ceull, 0x8dc54c858381f944ull},
    {"QueryExtension", 24, 0x6614b7f719bc15cbull, 0x6026c44799a87d17ull},
    {"ListExtensions", 4, 0xcde1df537e3cac68ull, 0xcde544537e3f8ddeull},
    {"KillClient", 8, 0xe7b5fc496f680f72ull, 0x47e6fa388e2357c6ull},
    {"GetServerStats", 4, 0x0dd737642aa8258aull, 0x0dda9c642aab0700ull},
    {"GetTrace", 8, 0xb351f98fcd7f8ad0ull, 0x5320fba0aec4427cull},
    {"ResyncTime", 12, 0x8d5a03ace70424a3ull, 0x9d76dbb8dd4e2ff7ull},
};

TEST(WireGoldenTest, CanonicalRequestBytesArePinned) {
  static_assert(std::size(kCanonicalGolden) == kMaxOpcode - kMinOpcode + 1);
  for (uint8_t opi = kMinOpcode; opi <= kMaxOpcode; ++opi) {
    const Opcode op = static_cast<Opcode>(opi);
    const Golden& g = kCanonicalGolden[opi - kMinOpcode];
    ASSERT_STREQ(g.name, OpcodeName(op));
    ExpectGolden(g, [op](WireOrder order) { return torture::CanonicalRequest(op, order); });
  }
}

TEST(WireGoldenTest, LiteralBytes) {
  // Two cases spelled out, so the digests above have a readable anchor.
  EXPECT_EQ(torture::CanonicalRequest(Opcode::kGetTime, WireOrder::kLittle),
            (std::vector<uint8_t>{0x07, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00}));
  EXPECT_EQ(torture::CanonicalRequest(Opcode::kRecordSamples, WireOrder::kBig),
            (std::vector<uint8_t>{0x06, 0x00, 0x00, 0x05,  // header: 5 words
                                  0x00, 0x00, 0x00, 0x00,  // ac
                                  0x00, 0x00, 0x00, 0x00,  // start time
                                  0x00, 0x00, 0x00, 0x40,  // nbytes 64
                                  0x00, 0x00, 0x00, 0x01}));  // flags: no-block
}

// A framed request, then the same bytes decoded and re-encoded: the decoder
// must read back every field the encoder wrote.
template <typename Req>
std::vector<uint8_t> FramedRoundTrip(Opcode op, const Req& req, WireOrder order) {
  WireWriter w(order);
  const size_t header = BeginRequest(w, op);
  req.Encode(w);
  EndRequest(w, header);
  WireReader r(w.data(), order);
  RequestHeader h;
  Req back;
  EXPECT_TRUE(DecodeRequestHeader(r, &h));
  EXPECT_TRUE(Req::Decode(r, &back));
  WireWriter again(order);
  const size_t header2 = BeginRequest(again, op);
  back.Encode(again);
  EndRequest(again, header2);
  EXPECT_EQ(again.data(), w.data());
  return w.Take();
}

template <typename Reply>
std::vector<uint8_t> ReplyRoundTrip(const Reply& reply, WireOrder order) {
  WireWriter w(order);
  reply.Encode(w, 0x1234);
  Reply back;
  EXPECT_TRUE(Reply::Decode(w.data(), order, &back));
  WireWriter again(order);
  back.Encode(again, 0x1234);
  EXPECT_EQ(again.data(), w.data());
  return w.Take();
}

TEST(WireGoldenTest, NonDefaultRequestBytesArePinned) {
  CreateACReq create;
  create.ac = 0x00100001;
  create.device = 1;
  create.value_mask =
      kACPlayGain | kACRecordGain | kACPreemption | kACEndian | kACEncodingType | kACChannels;
  create.attrs.play_gain_db = -6;
  create.attrs.record_gain_db = 3;
  create.attrs.preempt = 1;
  create.attrs.big_endian_data = 1;
  create.attrs.encoding = AEncodeType::kLin16;
  create.attrs.channels = 2;
  ExpectGolden(Golden{"CreateAC all attrs", 40, 0x5490a0d83fa819e0ull, 0x0dd5fd2551f1cd8eull}, [&](WireOrder o) {
    return FramedRoundTrip(Opcode::kCreateAC, create, o);
  });

  static const uint8_t odd[5] = {1, 2, 3, 4, 5};
  PlaySamplesReq play;
  play.ac = 0x00100002;
  play.start_time = 0x89abcdef;
  play.nbytes = sizeof(odd);
  play.flags = kPlaySuppressReply | kPlayBigEndianData;
  play.data = odd;
  ExpectGolden(Golden{"PlaySamples odd nbytes", 28, 0xdc41da996716ee5eull, 0x99c61904c1e27594ull}, [&](WireOrder o) {
    return FramedRoundTrip(Opcode::kPlaySamples, play, o);
  });

  ChangeHostsReq hosts;
  hosts.mode = HostChangeMode::kDelete;
  hosts.family = 2;
  hosts.address = {10, 0, 7};
  ExpectGolden(Golden{"ChangeHosts 3-byte", 20, 0x8cea4eaeedcda394ull, 0x9e2a83adf08b48d6ull}, [&](WireOrder o) {
    return FramedRoundTrip(Opcode::kChangeHosts, hosts, o);
  });

  InternAtomReq intern;
  intern.only_if_exists = 1;
  intern.name = "AUDIO";
  ExpectGolden(Golden{"InternAtom 5 chars", 20, 0xab0c09b1cea17aa1ull, 0x36dd824a614e2137ull}, [&](WireOrder o) {
    return FramedRoundTrip(Opcode::kInternAtom, intern, o);
  });
}

TEST(WireGoldenTest, FixedReplyBytesArePinned) {
  GetTimeReply time;
  time.time = 0xdeadbeef;
  ExpectGolden(Golden{"GetTimeReply", 32, 0x4282a1fd6c849c68ull, 0xb0160ea0ab094f90ull}, [&](WireOrder o) { return ReplyRoundTrip(time, o); });

  ResyncTimeReply resync;
  resync.server_time = 48000;
  resync.promoted_watermark = 47000;
  resync.promoted = 1;
  ExpectGolden(Golden{"ResyncTimeReply", 32, 0x47c89cc51b7029b3ull, 0x09618d5a20b38f59ull}, [&](WireOrder o) { return ReplyRoundTrip(resync, o); });

  QueryPhoneReply phone;
  phone.off_hook = 1;
  phone.loop_current = 1;
  ExpectGolden(Golden{"QueryPhoneReply", 32, 0x336f863bd8611fd6ull, 0x4e4904ebbbe2ec72ull}, [&](WireOrder o) { return ReplyRoundTrip(phone, o); });

  QueryGainReply gain;
  gain.gain_db = -7;
  ExpectGolden(Golden{"QueryGainReply", 32, 0x7997f0a6c74d51f3ull, 0xfce6626240472819ull}, [&](WireOrder o) { return ReplyRoundTrip(gain, o); });

  InternAtomReply atom;
  atom.atom = 42;
  ExpectGolden(Golden{"InternAtomReply", 32, 0xabd7b7c060e778acull, 0x7c0eeda2a04ffef4ull}, [&](WireOrder o) { return ReplyRoundTrip(atom, o); });

  ExpectGolden(Golden{"EmptyReply", 32, 0xeef498e2432eae46ull, 0x13a43699d278d7c2ull}, [](WireOrder o) { return ReplyRoundTrip(EmptyReply{}, o); });
}

}  // namespace
}  // namespace af
