// FaultStream/FaultSchedule unit coverage: every scripted fault kind over
// a socketpair, trace determinism from a seed, pass-through behaviour when
// no schedule is attached, the client/server partial-I/O resume paths
// (byte-at-a-time delivery through a live connection must not desync the
// protocol on either side), and the pipelined multi-chunk record, whose
// window of replies crosses shards and split reads in the re-runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "client/audio_context.h"
#include "clients/server_runner.h"
#include "devices/sim_hw.h"
#include "dsp/g711.h"
#include "transport/fault_stream.h"

namespace af {
namespace {

struct FaultPair {
  FaultStream faulty;   // wrapped end under test
  FdStream peer;        // raw far end
};

FaultPair MakePair(std::shared_ptr<FaultSchedule> schedule) {
  auto pair = CreateStreamPair();
  EXPECT_TRUE(pair.ok());
  FaultPair out;
  out.faulty = FaultStream(std::move(pair.value().first), std::move(schedule));
  out.peer = std::move(pair.value().second);
  return out;
}

bool TraceContains(const FaultSchedule& schedule, const std::string& needle) {
  return schedule.TraceString().find(needle) != std::string::npos;
}

// ---------------------------------------------------------------------------
// Fragmentation

TEST(FaultScheduleTest, SplitReadsAtScriptedOffsets) {
  auto schedule = std::make_shared<FaultSchedule>();
  schedule->SplitReadAt(5);
  schedule->SplitReadAt(8);
  FaultPair fp = MakePair(schedule);

  const char msg[] = "hello world!";  // 12 bytes
  ASSERT_TRUE(fp.peer.WriteAll(msg, 12).ok());

  char buf[16] = {};
  IoResult r = fp.faulty.Read(buf, sizeof(buf));
  EXPECT_EQ(r.status, IoStatus::kOk);
  EXPECT_EQ(r.bytes, 5u);  // cut at the first boundary
  r = fp.faulty.Read(buf + 5, sizeof(buf) - 5);
  EXPECT_EQ(r.status, IoStatus::kOk);
  EXPECT_EQ(r.bytes, 3u);  // 5 -> 8
  r = fp.faulty.Read(buf + 8, sizeof(buf) - 8);
  EXPECT_EQ(r.status, IoStatus::kOk);
  EXPECT_EQ(r.bytes, 4u);  // the rest
  EXPECT_EQ(std::memcmp(buf, msg, 12), 0);
  EXPECT_TRUE(TraceContains(*schedule, "read@0 short=5"));
  EXPECT_TRUE(TraceContains(*schedule, "read@5 short=3"));
}

TEST(FaultScheduleTest, MaxChunkForcesByteAtATime) {
  auto schedule = std::make_shared<FaultSchedule>();
  schedule->SetMaxReadChunk(1);
  FaultPair fp = MakePair(schedule);

  ASSERT_TRUE(fp.peer.WriteAll("abcd", 4).ok());
  char buf[4] = {};
  for (int i = 0; i < 4; ++i) {
    const IoResult r = fp.faulty.Read(buf + i, 4 - i);
    ASSERT_EQ(r.status, IoStatus::kOk);
    ASSERT_EQ(r.bytes, 1u);
  }
  EXPECT_EQ(std::memcmp(buf, "abcd", 4), 0);
}

TEST(FaultScheduleTest, SplitWritesAtScriptedOffsets) {
  auto schedule = std::make_shared<FaultSchedule>();
  schedule->SplitWriteAt(3);
  FaultPair fp = MakePair(schedule);

  IoResult r = fp.faulty.Write("abcdef", 6);
  EXPECT_EQ(r.status, IoStatus::kOk);
  EXPECT_EQ(r.bytes, 3u);  // the caller must resume from here
  r = fp.faulty.Write("def", 3);
  EXPECT_EQ(r.status, IoStatus::kOk);
  EXPECT_EQ(r.bytes, 3u);

  char buf[6] = {};
  ASSERT_TRUE(fp.peer.ReadAll(buf, 6).ok());
  EXPECT_EQ(std::memcmp(buf, "abcdef", 6), 0);
}

// ---------------------------------------------------------------------------
// Flow control

TEST(FaultScheduleTest, WouldBlockBurstThenData) {
  auto schedule = std::make_shared<FaultSchedule>();
  schedule->WouldBlockReadAt(0, 3);
  FaultPair fp = MakePair(schedule);

  ASSERT_TRUE(fp.peer.WriteAll("xy", 2).ok());
  char buf[2] = {};
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(fp.faulty.Read(buf, 2).status, IoStatus::kWouldBlock);
  }
  const IoResult r = fp.faulty.Read(buf, 2);
  EXPECT_EQ(r.status, IoStatus::kOk);
  EXPECT_EQ(r.bytes, 2u);
  EXPECT_EQ(schedule->faults_applied(), 3u);
}

TEST(FaultScheduleTest, MidStreamWouldBlockTruncatesFirst) {
  // A stall scripted at offset 4 must not let a single read sail past it.
  auto schedule = std::make_shared<FaultSchedule>();
  schedule->WouldBlockWriteAt(4, 1);
  FaultPair fp = MakePair(schedule);

  IoResult r = fp.faulty.Write("abcdefgh", 8);
  EXPECT_EQ(r.status, IoStatus::kOk);
  EXPECT_EQ(r.bytes, 4u);  // capped at the pending stall
  EXPECT_EQ(fp.faulty.Write("efgh", 4).status, IoStatus::kWouldBlock);
  r = fp.faulty.Write("efgh", 4);
  EXPECT_EQ(r.status, IoStatus::kOk);
  EXPECT_EQ(r.bytes, 4u);
}

// ---------------------------------------------------------------------------
// Data integrity

TEST(FaultScheduleTest, ReadCorruptionFlipsExactlyOneByte) {
  auto schedule = std::make_shared<FaultSchedule>();
  schedule->CorruptReadByte(6, 0xFF);
  FaultPair fp = MakePair(schedule);

  const char msg[] = "0123456789";
  ASSERT_TRUE(fp.peer.WriteAll(msg, 10).ok());
  uint8_t buf[10] = {};
  ASSERT_TRUE(fp.faulty.ReadAll(buf, 10).ok());
  for (int i = 0; i < 10; ++i) {
    if (i == 6) {
      EXPECT_EQ(buf[i], static_cast<uint8_t>(msg[i] ^ 0xFF));
    } else {
      EXPECT_EQ(buf[i], static_cast<uint8_t>(msg[i]));
    }
  }
  EXPECT_TRUE(TraceContains(*schedule, "read@6 corrupt^FF"));
}

TEST(FaultScheduleTest, WriteCorruptionLeavesCallerBufferIntact) {
  auto schedule = std::make_shared<FaultSchedule>();
  schedule->CorruptWriteByte(2, 0x01);
  FaultPair fp = MakePair(schedule);

  const char msg[] = "ABCD";
  ASSERT_TRUE(fp.faulty.WriteAll(msg, 4).ok());
  EXPECT_EQ(std::memcmp(msg, "ABCD", 4), 0);  // corruption staged on a copy

  char buf[4] = {};
  ASSERT_TRUE(fp.peer.ReadAll(buf, 4).ok());
  EXPECT_EQ(buf[0], 'A');
  EXPECT_EQ(buf[1], 'B');
  EXPECT_EQ(buf[2], 'C' ^ 0x01);
  EXPECT_EQ(buf[3], 'D');
  EXPECT_TRUE(TraceContains(*schedule, "write@2 corrupt^01"));
}

// ---------------------------------------------------------------------------
// Connection lifetime

TEST(FaultScheduleTest, EofAtEveryPrefix) {
  const char msg[] = "audio-file-protocol";
  const size_t n = sizeof(msg) - 1;
  for (size_t cut = 0; cut <= n; ++cut) {
    auto schedule = std::make_shared<FaultSchedule>();
    schedule->CutReadAt(cut);
    FaultPair fp = MakePair(schedule);
    ASSERT_TRUE(fp.peer.WriteAll(msg, n).ok());

    std::vector<uint8_t> buf(n);
    size_t got = 0;
    for (;;) {
      const IoResult r = fp.faulty.Read(buf.data() + got, n - got);
      if (r.status == IoStatus::kClosed) {
        break;
      }
      ASSERT_EQ(r.status, IoStatus::kOk);
      got += r.bytes;
    }
    EXPECT_EQ(got, cut);  // exactly the prefix, then clean EOF
    EXPECT_EQ(std::memcmp(buf.data(), msg, cut), 0);
    // EOF is sticky.
    EXPECT_EQ(fp.faulty.Read(buf.data(), 1).status, IoStatus::kClosed);
  }
}

TEST(FaultScheduleTest, ResetMidMessageIsSticky) {
  auto schedule = std::make_shared<FaultSchedule>();
  schedule->ResetWriteAt(4);
  FaultPair fp = MakePair(schedule);

  IoResult r = fp.faulty.Write("abcdefgh", 8);
  EXPECT_EQ(r.status, IoStatus::kOk);
  EXPECT_EQ(r.bytes, 4u);  // truncated at the upcoming reset
  EXPECT_EQ(fp.faulty.Write("efgh", 4).status, IoStatus::kError);
  EXPECT_EQ(fp.faulty.Write("efgh", 4).status, IoStatus::kError);
  EXPECT_TRUE(TraceContains(*schedule, "write@4 reset"));
}

// ---------------------------------------------------------------------------
// Timing

TEST(FaultScheduleTest, DelayRoutedThroughLatencyHook) {
  auto schedule = std::make_shared<FaultSchedule>();
  schedule->DelayReadAt(4, 1000);
  uint64_t hook_total = 0;
  schedule->SetLatencyHook([&hook_total](uint64_t usec) { hook_total += usec; });
  FaultPair fp = MakePair(schedule);

  ASSERT_TRUE(fp.peer.WriteAll("abcdefgh", 8).ok());
  char buf[8] = {};
  IoResult r = fp.faulty.Read(buf, 8);
  EXPECT_EQ(r.status, IoStatus::kOk);
  EXPECT_EQ(r.bytes, 4u);  // transfer stops at the pending delay
  EXPECT_EQ(hook_total, 0u);
  r = fp.faulty.Read(buf + 4, 4);
  EXPECT_EQ(r.status, IoStatus::kOk);
  EXPECT_EQ(r.bytes, 4u);
  EXPECT_EQ(hook_total, 1000u);  // no real sleep: the hook absorbed it
  EXPECT_TRUE(TraceContains(*schedule, "read@4 delay=1000us"));
}

// ---------------------------------------------------------------------------
// Determinism and pass-through

TEST(FaultScheduleTest, SameSeedSameTrace) {
  auto run = [](uint64_t seed) {
    FaultSchedule::RandomProfile profile;
    profile.p_short = 0.5;
    profile.p_would_block = 0.3;
    profile.p_delay = 0.0;  // keep the walk sleep-free
    auto schedule = FaultSchedule::Random(seed, profile);
    FaultPair fp = MakePair(schedule);
    std::vector<uint8_t> payload(256);
    for (size_t i = 0; i < payload.size(); ++i) {
      payload[i] = static_cast<uint8_t>(i);
    }
    EXPECT_TRUE(fp.peer.WriteAll(payload.data(), payload.size()).ok());
    std::vector<uint8_t> got(payload.size());
    EXPECT_TRUE(fp.faulty.ReadAll(got.data(), got.size()).ok());
    EXPECT_EQ(got, payload);  // splits and stalls never lose bytes
    return schedule->TraceString();
  };
  const std::string a = run(42);
  const std::string b = run(42);
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a.empty());
  const std::string c = run(43);
  EXPECT_NE(a, c);  // a different walk (true for these seeds)
}

TEST(FaultStreamTest, NoSchedulePassesThrough) {
  auto pair = CreateStreamPair();
  ASSERT_TRUE(pair.ok());
  FaultStream plain(std::move(pair.value().first));  // implicit, no schedule
  FdStream peer = std::move(pair.value().second);

  EXPECT_EQ(plain.schedule(), nullptr);
  ASSERT_TRUE(peer.WriteAll("pass", 4).ok());
  char buf[4] = {};
  const IoResult r = plain.Read(buf, 4);
  EXPECT_EQ(r.status, IoStatus::kOk);
  EXPECT_EQ(r.bytes, 4u);
  ASSERT_TRUE(plain.WriteAll("back", 4).ok());
  ASSERT_TRUE(peer.ReadAll(buf, 4).ok());
  EXPECT_EQ(std::memcmp(buf, "back", 4), 0);
}

// ---------------------------------------------------------------------------
// Partial-I/O resume through a live server

class FaultResumeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ServerRunner::Config config;
    config.with_codec = true;
    config.realtime = false;
    runner_ = ServerRunner::Start(config);
    ASSERT_NE(runner_, nullptr);
  }

  std::unique_ptr<ServerRunner> runner_;
};

TEST_F(FaultResumeTest, ServerResumesByteAtATimeIO) {
  // Every server-side read and write is one byte: ClientConn::ReadAvailable
  // must reassemble requests and FlushOutput must resume partial replies
  // without desynchronizing the stream.
  auto server_faults = std::make_shared<FaultSchedule>();
  server_faults->SetMaxReadChunk(1);
  server_faults->SetMaxWriteChunk(1);
  auto conn = runner_->ConnectInProcess(nullptr, server_faults);
  ASSERT_TRUE(conn.ok()) << conn.status().ToString();

  for (int i = 0; i < 20; ++i) {
    auto t = conn.value()->GetTime(0);
    ASSERT_TRUE(t.ok()) << "request " << i;
  }
  auto atom = conn.value()->InternAtom("BYTE_AT_A_TIME");
  ASSERT_TRUE(atom.ok());
  auto name = conn.value()->GetAtomName(atom.value());
  ASSERT_TRUE(name.ok());
  EXPECT_EQ(name.value(), "BYTE_AT_A_TIME");
}

TEST_F(FaultResumeTest, ClientResumesSplitReadsAndStalls) {
  // The client's transport staggers: short reads, stall bursts. AwaitReply
  // and the demultiplexer must reassemble the 32-byte units correctly.
  FaultSchedule::RandomProfile profile;
  profile.p_short = 0.5;
  profile.short_max = 3;
  profile.p_would_block = 0.3;
  profile.p_delay = 0.0;
  auto client_faults = FaultSchedule::Random(77, profile);
  auto conn = runner_->ConnectInProcess(client_faults, nullptr);
  ASSERT_TRUE(conn.ok()) << conn.status().ToString()
                         << " trace: " << client_faults->TraceString();

  for (int i = 0; i < 50; ++i) {
    auto t = conn.value()->GetTime(0);
    ASSERT_TRUE(t.ok()) << "request " << i
                        << " trace: " << client_faults->TraceString();
  }
  EXPECT_GT(client_faults->faults_applied(), 0u);
}

TEST_F(FaultResumeTest, BothSidesFaultySimultaneously) {
  auto client_faults = std::make_shared<FaultSchedule>();
  client_faults->SetMaxReadChunk(2);
  auto server_faults = std::make_shared<FaultSchedule>();
  server_faults->SetMaxReadChunk(3);
  server_faults->SetMaxWriteChunk(5);
  auto conn = runner_->ConnectInProcess(client_faults, server_faults);
  ASSERT_TRUE(conn.ok()) << conn.status().ToString();

  auto atom = conn.value()->InternAtom("DOUBLE_FAULT");
  ASSERT_TRUE(atom.ok());
  auto rt = conn.value()->GetAtomName(atom.value());
  ASSERT_TRUE(rt.ok());
  EXPECT_EQ(rt.value(), "DOUBLE_FAULT");
}

// ---------------------------------------------------------------------------
// Pipelined multi-chunk record

class PipelinedRecordTest : public ::testing::Test {
 protected:
  // One recordable device: its clock, the audio on its input, and the
  // clock step (half its hardware ring, so no update misses a frame).
  struct Input {
    AudioDevice* device;
    ManualSampleClock* clock;
    BufferSource* source;
    ATime step;
  };

  void SetUp() override {
    ServerRunner::Config config;
    config.with_codec = true;
    config.with_hifi = true;
    config.realtime = false;
    runner_ = ServerRunner::Start(config);
    ASSERT_NE(runner_, nullptr);
    codec_source_ = std::make_shared<BufferSource>(1 << 15, 1, kMulawSilence);
    hifi_source_ = std::make_shared<BufferSource>(1 << 16, 4, 0);
    runner_->RunOnLoop([this] {
      runner_->codec()->sim().SetSource(codec_source_);
      runner_->hifi()->sim().SetSource(hifi_source_);
    });
    // Both ends split their transfers at odd sizes: the server reassembles
    // each pipelined window from 7-byte reads, and the replies leave and
    // arrive in pieces that cut packets in the middle.
    auto client_faults = std::make_shared<FaultSchedule>();
    client_faults->SetMaxReadChunk(4093);
    auto server_faults = std::make_shared<FaultSchedule>();
    server_faults->SetMaxReadChunk(7);
    server_faults->SetMaxWriteChunk(6007);
    auto conn = runner_->ConnectInProcess(client_faults, server_faults);
    ASSERT_TRUE(conn.ok()) << conn.status().ToString();
    conn_ = conn.take();
    conn_->SetErrorHandler(
        [this](AFAudioConn&, const ErrorPacket& error) { async_errors_.push_back(error); });
  }

  Input Codec() {
    return {runner_->codec(), runner_->manual_clock().get(), codec_source_.get(), 512};
  }
  Input HiFi() {
    return {runner_->hifi(), runner_->manual_hifi_clock().get(), hifi_source_.get(), 2048};
  }

  AC* MakeAC(DeviceId device) {
    auto ac = conn_->CreateAC(device, 0, ACAttributes{});
    EXPECT_TRUE(ac.ok());
    return ac.value();
  }

  // Puts audio.size() bytes of distinct audio on the AC's input and runs
  // the clock to exactly where they end, so they sit in the record buffer
  // as the most recent past. Returns the device time the audio starts at.
  ATime SeedPast(AC* ac, const Input& in, std::vector<uint8_t>* audio) {
    for (size_t i = 0; i < audio->size(); ++i) {
      (*audio)[i] = static_cast<uint8_t>((i % 251) ^ (i >> 8));
    }
    auto now = conn_->GetTime(ac->device_id());
    EXPECT_TRUE(now.ok());
    // Recording is gated: an empty record marks the AC as recording, so
    // the device captures its input from here on.
    EXPECT_TRUE(ac->RecordSamples(now.value(), {}, /*block=*/false).ok());
    const size_t frame_bytes = SamplesToBytes(ac->attrs().encoding, 1, ac->attrs().channels);
    const ATime start = now.value() + in.step;
    const ATime end = start + static_cast<ATime>(audio->size() / frame_bytes);
    runner_->RunOnLoop([&] { in.source->PutAt(start, *audio); });
    for (ATime t = now.value(); TimeBefore(t, end);) {
      const ATime step = std::min<ATime>(in.step, end - t);
      in.clock->Advance(step);
      runner_->RunOnLoop([&] { in.device->Update(); });
      t += step;
    }
    return start;
  }

  std::unique_ptr<ServerRunner> runner_;
  std::shared_ptr<BufferSource> codec_source_;
  std::shared_ptr<BufferSource> hifi_source_;
  std::unique_ptr<AFAudioConn> conn_;
  std::vector<ErrorPacket> async_errors_;
};

TEST_F(PipelinedRecordTest, ThreeAndAHalfChunksFromThePastAreByteExact) {
  AC* ac = MakeAC(runner_->codec_id());
  std::vector<uint8_t> audio(kDefaultChunkBytes * 7 / 2);
  const ATime start = SeedPast(ac, Codec(), &audio);
  auto now = conn_->GetTime(runner_->codec_id());
  ASSERT_TRUE(now.ok());
  for (const bool block : {true, false}) {
    std::vector<uint8_t> heard(audio.size());
    auto rec = ac->RecordSamples(start, heard, block);
    ASSERT_TRUE(rec.ok()) << rec.status().ToString();
    EXPECT_EQ(rec.value().actual_bytes, audio.size()) << "block=" << block;
    EXPECT_EQ(rec.value().time, now.value()) << "block=" << block;
    EXPECT_EQ(heard, audio) << "block=" << block;
  }
  EXPECT_TRUE(async_errors_.empty());
}

TEST_F(PipelinedRecordTest, MultiChunkRecordLeavesInOneFlush) {
  AC* ac = MakeAC(runner_->codec_id());
  std::vector<uint8_t> audio(kDefaultChunkBytes * 4);
  const ATime start = SeedPast(ac, Codec(), &audio);
  std::vector<TraceEvent> events;
  conn_->SetClientTracing(true);
  conn_->client_trace().Drain(&events);
  events.clear();
  std::vector<uint8_t> heard(audio.size());
  auto rec = ac->RecordSamples(start, heard, /*block=*/false);
  conn_->SetClientTracing(false);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_EQ(heard, audio);
  conn_->client_trace().Drain(&events);
  size_t flushes = 0;
  size_t enqueues = 0;
  size_t replies = 0;
  for (const TraceEvent& ev : events) {
    flushes += ev.kind == static_cast<uint8_t>(TraceKind::kClientFlush);
    enqueues += ev.kind == static_cast<uint8_t>(TraceKind::kClientEnqueue);
    replies += ev.kind == static_cast<uint8_t>(TraceKind::kClientReply);
  }
  EXPECT_EQ(flushes, 1u) << "every chunk must leave in the same write";
  EXPECT_EQ(enqueues, 4u);
  EXPECT_EQ(replies, 4u);
}

TEST_F(PipelinedRecordTest, ShortNonBlockingChunkReturnsExactlyThePrefix) {
  // Audio ends 1000 bytes into chunk 2 of 4: chunk 2 comes back short and
  // chunks 3 and 4, already in flight, must be taken but not copied.
  AC* ac = MakeAC(runner_->codec_id());
  std::vector<uint8_t> audio(kDefaultChunkBytes + 1000);
  const ATime start = SeedPast(ac, Codec(), &audio);
  auto now = conn_->GetTime(runner_->codec_id());
  ASSERT_TRUE(now.ok());
  std::vector<uint8_t> heard(kDefaultChunkBytes * 4, 0xA5);
  auto rec = ac->RecordSamples(start, heard, /*block=*/false);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  ASSERT_EQ(rec.value().actual_bytes, audio.size());
  EXPECT_EQ(rec.value().time, now.value());
  EXPECT_TRUE(std::equal(audio.begin(), audio.end(), heard.begin()));
  EXPECT_TRUE(std::all_of(heard.begin() + static_cast<ptrdiff_t>(audio.size()), heard.end(),
                          [](uint8_t b) { return b == 0xA5; }))
      << "bytes past the prefix were written";
  // The replies to chunks 3 and 4 were consumed: the next round trip on the
  // connection gets its own reply.
  auto after = conn_->GetTime(runner_->codec_id());
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after.value(), now.value());
  EXPECT_TRUE(async_errors_.empty());
}

TEST_F(PipelinedRecordTest, RecordOnFreedACReturnsOneErrorAndNoAsyncOnes) {
  AC* ac = MakeAC(runner_->codec_id());
  // Free the AC on the server only; the client object stays usable.
  FreeACReq free_req;
  free_req.ac = ac->id();
  conn_->QueueRequest(Opcode::kFreeAC, free_req);
  std::vector<uint8_t> buf(kDefaultChunkBytes * 4);
  auto rec = ac->RecordSamples(0, buf, /*block=*/false);
  ASSERT_FALSE(rec.ok());
  EXPECT_EQ(rec.status().code(), AfError::kBadAC);
  // Every chunk failed; all four errors were taken by the record, so none
  // is left to reach the handler during the next round trips.
  conn_->Sync();
  auto t = conn_->GetTime(runner_->codec_id());
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_TRUE(async_errors_.empty()) << async_errors_.size() << " errors leaked";
}

TEST_F(PipelinedRecordTest, RecordLongerThanOneWindowIsByteExact) {
  // 25 chunks of 48 kHz stereo lin16: more than one 16-chunk window.
  AC* ac = MakeAC(runner_->hifi_id());
  std::vector<uint8_t> audio(kDefaultChunkBytes * 25);
  const ATime start = SeedPast(ac, HiFi(), &audio);
  auto now = conn_->GetTime(runner_->hifi_id());
  ASSERT_TRUE(now.ok());
  for (const bool block : {true, false}) {
    std::vector<uint8_t> heard(audio.size());
    auto rec = ac->RecordSamples(start, heard, block);
    ASSERT_TRUE(rec.ok()) << rec.status().ToString();
    EXPECT_EQ(rec.value().actual_bytes, audio.size()) << "block=" << block;
    EXPECT_EQ(rec.value().time, now.value()) << "block=" << block;
    EXPECT_EQ(heard, audio) << "block=" << block;
  }
  EXPECT_TRUE(async_errors_.empty());
}

}  // namespace
}  // namespace af
