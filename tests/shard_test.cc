// The sharded server (PR 6): the cross-shard mailbox in isolation, then a
// four-shard server exercised through the public client API.
//
// The mailbox tests pin the SPSC contract (FIFO per producer ring, spill
// beyond kRingCapacity, wake semantics, HasPending) and run a seeded
// multi-producer soak that is the TSan target for the whole hand-off
// design: every producer thread owns exactly one ring, the consumer drains
// from its own thread, and the release/acquire cursor pair is the only
// synchronization - any missing fence shows up as a data-race report or a
// sequence gap here.
//
// The server tests pin clients to specific shards (AdoptClientOnShard) so
// every request to the shard-0-owned CODEC crosses a shard boundary:
// dispatch via the borrow protocol, events fanning out across shards,
// faults on a borrowed connection, kill/restart of a shard thread, and
// stats/trace aggregation at reply time. The executor-egress tests pin
// that the owner shard writes a forwarded request's reply itself: wire
// order against a one-shard server, short and stalled writes, a peer that
// leaves mid-borrow, and the flush instant's shard.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <thread>
#include <vector>

#include "client/audio_context.h"
#include "client/connection.h"
#include "common/clock.h"
#include "devices/sim_hw.h"
#include "dsp/g711.h"
#include "clients/server_runner.h"
#include "proto/stats.h"
#include "proto/trace_wire.h"
#include "server/mailbox.h"
#include "server/shard.h"
#include "torture_util.h"
#include "transport/fault_stream.h"
#include "transport/stream.h"

namespace af {
namespace {

size_t CounterIndex(const char* name) {
  for (size_t i = 0; i < kNumServerCounters; ++i) {
    if (std::strcmp(kServerCounterNames[i], name) == 0) {
      return i;
    }
  }
  ADD_FAILURE() << "unknown counter " << name;
  return 0;
}

// --- mailbox unit tests -----------------------------------------------------

TEST(ShardMailboxTest, FifoPerProducerRing) {
  ShardMailbox box(3);  // owner = shard 0; producers 1 and 2
  std::vector<int> got;
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(box.Post(1, [&got, i] { got.push_back(100 + i); }));
    EXPECT_TRUE(box.Post(2, [&got, i] { got.push_back(200 + i); }));
  }
  EXPECT_TRUE(box.HasPending());
  std::vector<ShardMailbox::Message> msgs;
  EXPECT_EQ(box.Drain(&msgs), 8u);
  for (auto& m : msgs) m();
  ASSERT_EQ(got.size(), 8u);
  // Order within one producer's ring is FIFO even though the interleaving
  // between rings is unspecified.
  std::vector<int> ring1, ring2;
  for (int v : got) (v < 200 ? ring1 : ring2).push_back(v);
  EXPECT_EQ(ring1, (std::vector<int>{100, 101, 102, 103}));
  EXPECT_EQ(ring2, (std::vector<int>{200, 201, 202, 203}));
  EXPECT_FALSE(box.HasPending());
}

TEST(ShardMailboxTest, OverflowSpillsWithoutLoss) {
  ShardMailbox box(2);
  std::atomic<int> ran{0};
  const size_t total = ShardMailbox::kRingCapacity + 10;
  size_t ringed = 0;
  for (size_t i = 0; i < total; ++i) {
    if (box.Post(1, [&ran] { ran.fetch_add(1); })) {
      ++ringed;
    }
  }
  EXPECT_EQ(ringed, ShardMailbox::kRingCapacity);
  EXPECT_EQ(box.spills(), 10u);
  std::vector<ShardMailbox::Message> msgs;
  EXPECT_EQ(box.Drain(&msgs), total);
  for (auto& m : msgs) m();
  EXPECT_EQ(ran.load(), static_cast<int>(total));
  EXPECT_FALSE(box.HasPending());
  // The high-water mark tracks drained batch sizes, so it records the full
  // backlog the stalled consumer found.
  EXPECT_GE(box.depth_high_water(), total);
}

TEST(ShardMailboxTest, WakeAndPendingSemantics) {
  ShardMailbox box(2);
  EXPECT_FALSE(box.ConsumeWake());
  EXPECT_FALSE(box.HasPending());
  EXPECT_TRUE(box.Post(1, [] {}));
  EXPECT_TRUE(box.HasPending());
  EXPECT_TRUE(box.ConsumeWake());
  // The message is still pending after the wake is consumed - exactly the
  // state the shard loop's post-drain HasPending() check exists for.
  EXPECT_TRUE(box.HasPending());
  EXPECT_FALSE(box.ConsumeWake());
  std::vector<ShardMailbox::Message> msgs;
  EXPECT_EQ(box.Drain(&msgs), 1u);
  EXPECT_FALSE(box.HasPending());
}

// The TSan target: P producer threads, each owning its ring per the SPSC
// contract, against one consumer thread. Per-producer sequence numbers
// must arrive gap-free and in order; the seeded jitter varies the
// interleavings between runs of the soak loop in CI.
TEST(ShardMailboxTest, SeededMultiProducerSoakKeepsOrder) {
  constexpr size_t kProducers = 4;
  constexpr uint64_t kPerProducer = 5000;
  ShardMailbox box(kProducers + 1);  // ring 0 (the owner's) stays idle

  std::vector<uint64_t> next_expected(kProducers + 1, 0);
  std::atomic<uint64_t> received{0};
  std::atomic<bool> order_ok{true};

  std::thread consumer([&] {
    std::vector<ShardMailbox::Message> msgs;
    while (received.load(std::memory_order_relaxed) < kProducers * kPerProducer) {
      box.ConsumeWake();
      msgs.clear();
      if (box.Drain(&msgs) == 0) {
        std::this_thread::yield();
        continue;
      }
      for (auto& m : msgs) m();
    }
  });

  std::vector<std::thread> producers;
  for (size_t p = 1; p <= kProducers; ++p) {
    producers.emplace_back([&, p] {
      std::mt19937_64 rng(0xF00D + p);
      for (uint64_t seq = 0; seq < kPerProducer; ++seq) {
        box.Post(p, [&, p, seq] {
          if (next_expected[p] != seq) {
            order_ok.store(false, std::memory_order_relaxed);
          }
          next_expected[p] = seq + 1;
          received.fetch_add(1, std::memory_order_relaxed);
        });
        if ((rng() & 0x3F) == 0) {
          std::this_thread::yield();
        }
      }
    });
  }
  for (auto& t : producers) t.join();
  consumer.join();

  EXPECT_TRUE(order_ok.load());
  EXPECT_EQ(received.load(), kProducers * kPerProducer);
  for (size_t p = 1; p <= kProducers; ++p) {
    EXPECT_EQ(next_expected[p], kPerProducer) << "producer " << p;
  }
}

// --- four-shard server tests ------------------------------------------------

class ShardServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ServerRunner::Config config;
    config.realtime = false;
    config.server.num_shards = 4;
    runner_ = ServerRunner::Start(std::move(config));
    ASSERT_NE(runner_, nullptr);
    ASSERT_EQ(runner_->server().num_shards(), 4u);
  }

  // Connects a client whose server end is pinned to `shard`.
  std::unique_ptr<AFAudioConn> ConnectOnShard(
      uint32_t shard, std::shared_ptr<FaultSchedule> server_faults = nullptr) {
    auto pair = CreateStreamPair();
    if (!pair.ok()) {
      return nullptr;
    }
    auto& [client_end, server_end] = pair.value();
    runner_->server().AdoptClientOnShard(std::move(server_end),
                                         std::move(server_faults), {}, shard);
    auto conn = AFAudioConn::FromStream(std::move(client_end), nullptr,
                                        "(in-process)");
    return conn.ok() ? conn.take() : nullptr;
  }

  std::unique_ptr<ServerRunner> runner_;
};

TEST_F(ShardServerTest, RoundRobinAdoptSpreadsAcrossShards) {
  std::vector<std::unique_ptr<AFAudioConn>> conns;
  for (int i = 0; i < 8; ++i) {
    auto conn = runner_->ConnectInProcess();
    ASSERT_TRUE(conn.ok());
    conns.push_back(conn.take());
    conns.back()->Sync();
  }
  EXPECT_EQ(runner_->server().client_count(), 8u);
  for (size_t s = 0; s < 4; ++s) {
    EXPECT_EQ(runner_->server().shard(s)->client_count(), 2u) << "shard " << s;
  }
  // Every client works no matter which shard it landed on; the CODEC lives
  // on shard 0, so six of these round-trips cross shards.
  for (auto& conn : conns) {
    EXPECT_TRUE(conn->GetTime(runner_->codec_id()).ok());
  }
}

TEST_F(ShardServerTest, CrossShardDispatchUsesMailbox) {
  auto conn = ConnectOnShard(2);
  ASSERT_NE(conn, nullptr);
  const DeviceId dev = runner_->codec_id();
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(conn->GetTime(dev).ok());
  }
  // Play through an AC to cover the suspension-capable path as well.
  auto now = conn->GetTime(dev);
  ASSERT_TRUE(now.ok());
  auto ac = conn->CreateAC(dev, 0, ACAttributes{});
  ASSERT_TRUE(ac.ok());
  std::vector<uint8_t> tone(160, 0xFF);
  EXPECT_TRUE(ac.value()->PlaySamples(now.value() + 400, tone).ok());

  // The home shard counts both the mailbox posts and the forwarded device
  // requests; the executor's drain count proves they arrived.
  const uint64_t posted =
      runner_->server().shard(2)->metrics().cross_shard_posted.Value();
  const uint64_t forwarded =
      runner_->server().shard(2)->metrics().cross_shard_plays.Value();
  const uint64_t drained =
      runner_->server().shard(0)->metrics().cross_shard_drained.Value();
  EXPECT_GT(posted, 0u);
  EXPECT_GT(forwarded, 0u);
  EXPECT_GT(drained, 0u);
}

TEST_F(ShardServerTest, EventsCrossShards) {
  auto watcher = ConnectOnShard(3);
  auto changer = ConnectOnShard(1);
  ASSERT_NE(watcher, nullptr);
  ASSERT_NE(changer, nullptr);
  watcher->SelectEvents(0, kPropertyChangeMask);
  watcher->Sync();

  const uint8_t payload[] = {'s', 'h', 'a', 'r', 'd'};
  changer->ChangeProperty(0, kAtomLAST_NUMBER_DIALED, kAtomSTRING, 8,
                          PropertyMode::kReplace, payload);
  changer->Sync();

  // The change executes on shard 0 (the device owner), the watcher lives
  // on shard 3: the event must hop the mailbox to arrive.
  AEvent event;
  ASSERT_TRUE(watcher->NextEvent(&event).ok());
  EXPECT_EQ(event.type, EventType::kPropertyChange);
  EXPECT_EQ(event.w0, kAtomLAST_NUMBER_DIALED);
  EXPECT_GT(runner_->server().shard(0)->metrics().cross_shard_events.Value(), 0u);
}

TEST_F(ShardServerTest, FaultedBorrowedConnectionSurvives) {
  // Server-side read faults on a shard-1 client whose every device request
  // is executed on shard 0: chunked reads and short delays land while the
  // connection is being lent back and forth.
  auto faults = std::make_shared<FaultSchedule>();
  faults->SetMaxReadChunk(3);
  faults->DelayReadAt(64, 200);
  faults->DelayReadAt(256, 200);
  auto conn = ConnectOnShard(1, faults);
  ASSERT_NE(conn, nullptr);
  const DeviceId dev = runner_->codec_id();
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(conn->GetTime(dev).ok()) << "iteration " << i;
  }
  conn->Sync();
}

TEST_F(ShardServerTest, StopAndRestartShardThread) {
  auto pinned = ConnectOnShard(1);
  ASSERT_NE(pinned, nullptr);
  ASSERT_TRUE(pinned->GetTime(runner_->codec_id()).ok());

  ASSERT_TRUE(runner_->server().StopShard(1));
  EXPECT_FALSE(runner_->server().StopShard(0));  // shard 0 is not killable

  // The rest of the server keeps serving while shard 1 is down.
  auto other = ConnectOnShard(0);
  ASSERT_NE(other, nullptr);
  EXPECT_TRUE(other->GetTime(runner_->codec_id()).ok());

  ASSERT_TRUE(runner_->server().RestartShard(1));
  EXPECT_FALSE(runner_->server().RestartShard(1));  // already running

  // The pinned client's connection state survived the thread swap.
  EXPECT_TRUE(pinned->GetTime(runner_->codec_id()).ok());
  pinned->Sync();
}

TEST_F(ShardServerTest, StatsAggregateAcrossShards) {
  std::vector<std::unique_ptr<AFAudioConn>> conns;
  for (uint32_t s = 0; s < 4; ++s) {
    auto conn = ConnectOnShard(s);
    ASSERT_NE(conn, nullptr);
    ASSERT_TRUE(conn->GetTime(runner_->codec_id()).ok());
    conns.push_back(std::move(conn));
  }

  auto stats_result = conns[1]->GetServerStats();
  ASSERT_TRUE(stats_result.ok()) << stats_result.status().ToString();
  const ServerStatsWire& stats = stats_result.value();

  ASSERT_EQ(stats.counters.size(), kNumServerCounters);
  EXPECT_EQ(stats.counters[CounterIndex("clients_accepted")], 4u);
  EXPECT_EQ(stats.counters[CounterIndex("shards")], 4u);
  EXPECT_GT(stats.counters[CounterIndex("cross_shard_posted")], 0u);
  EXPECT_GT(stats.counters[CounterIndex("cross_shard_drained")], 0u);

  // The per-shard slices sum back to the aggregate for pure counters.
  ASSERT_EQ(stats.shards.size(), 4u);
  uint64_t accepted = 0, dispatched = 0;
  for (const ShardStatsWire& sh : stats.shards) {
    EXPECT_EQ(sh.index, &sh - stats.shards.data());
    ASSERT_EQ(sh.counters.size(), kNumServerCounters);
    accepted += sh.counters[CounterIndex("clients_accepted")];
    dispatched += sh.counters[CounterIndex("requests_dispatched")];
    EXPECT_EQ(sh.counters[CounterIndex("clients_accepted")], 1u);
  }
  EXPECT_EQ(accepted, stats.counters[CounterIndex("clients_accepted")]);
  EXPECT_EQ(dispatched, stats.counters[CounterIndex("requests_dispatched")]);
}

TEST_F(ShardServerTest, TraceAggregatesAcrossShards) {
  auto near = ConnectOnShard(0);
  auto far = ConnectOnShard(2);
  ASSERT_NE(near, nullptr);
  ASSERT_NE(far, nullptr);
  ASSERT_TRUE(far->GetTrace(kTraceFlagEnable).ok());
  ASSERT_TRUE(near->GetTime(runner_->codec_id()).ok());
  ASSERT_TRUE(far->GetTime(runner_->codec_id()).ok());

  auto trace = far->GetTrace(kTraceFlagDisable);
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  // Request records from both clients must appear in the one merged
  // stream; client numbers stride by shard count, so two clients on
  // different shards always carry distinct numbers.
  std::set<uint32_t> request_conns;
  for (const TraceEvent& ev : trace.value().events) {
    if (ev.kind == static_cast<uint8_t>(TraceKind::kRequest) && ev.conn != 0) {
      request_conns.insert(ev.conn);
    }
  }
  EXPECT_GE(request_conns.size(), 2u);
}

TEST_F(ShardServerTest, TraceWindowsShareOneGeneration) {
  // PR 9 regression: GetTrace(enable) used to flip each shard's private
  // flag as the enable request reached it, so shards opened their windows
  // at different instants and the merged stream mixed captures that never
  // overlapped. The shared generation gate opens every ring at one atomic
  // instant; each ring stamps a kTraceStart carrying the generation, so a
  // gathered window can prove all four shards captured the same one.
  std::vector<std::unique_ptr<AFAudioConn>> conns;
  for (uint32_t s = 0; s < 4; ++s) {
    auto conn = ConnectOnShard(s);
    ASSERT_NE(conn, nullptr);
    conns.push_back(std::move(conn));
  }

  auto window_generations = [&]() -> std::map<uint64_t, std::set<uint16_t>> {
    EXPECT_TRUE(conns[0]->GetTrace(kTraceFlagEnable).ok());
    // Traffic from every shard: the home shard records the read/dispatch,
    // shard 0 (the CODEC owner) records the borrowed execution.
    for (auto& conn : conns) {
      EXPECT_TRUE(conn->GetTime(runner_->codec_id()).ok());
    }
    auto trace = conns[0]->GetTrace(kTraceFlagDisable);
    EXPECT_TRUE(trace.ok());
    std::map<uint64_t, std::set<uint16_t>> gens;
    if (!trace.ok()) {
      return gens;
    }
    for (const TraceEvent& ev : trace.value().events) {
      if (ev.kind == static_cast<uint8_t>(TraceKind::kTraceStart)) {
        gens[ev.value].insert(ev.shard);
      }
    }
    return gens;
  };

  const auto first = window_generations();
  ASSERT_EQ(first.size(), 1u) << "shards captured under different generations";
  EXPECT_EQ(first.begin()->first & 1, 1u) << "capture generations are odd";
  EXPECT_EQ(first.begin()->second.size(), 4u)
      << "not every shard stamped the window's start";

  // The next window is a fresh generation — exactly one enable/disable
  // cycle later — again shared by all four shards.
  const auto second = window_generations();
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second.begin()->first, first.begin()->first + 2);
  EXPECT_EQ(second.begin()->second.size(), 4u);
}


// --- executor-side egress ----------------------------------------------------

// One server-to-client packet as it arrived: the type byte (0 error,
// 1 reply, event types from 2) and the sequence number.
struct Packet {
  uint8_t type = 0;
  uint16_t seq = 0;
  bool operator==(const Packet&) const = default;
};

// Opens a raw connection pinned to `shard`, sends `requests` in one write
// and reads back `count` packets.
std::vector<Packet> RawExchange(ServerRunner& runner, uint32_t shard,
                                const std::vector<uint8_t>& requests, size_t count) {
  std::vector<Packet> got;
  auto pair = CreateStreamPair();
  if (!pair.ok()) {
    ADD_FAILURE() << pair.status().ToString();
    return got;
  }
  auto& [client_end, server_end] = pair.value();
  runner.server().AdoptClientOnShard(std::move(server_end), nullptr, {}, shard);
  if (!torture::RawSetup(client_end) ||
      !client_end.WriteAll(requests.data(), requests.size()).ok()) {
    ADD_FAILURE() << "raw connection failed";
    return got;
  }
  for (size_t i = 0; i < count; ++i) {
    uint8_t unit[kReplyBaseBytes];
    if (!client_end.ReadAll(unit, sizeof(unit)).ok()) {
      ADD_FAILURE() << "connection ended after " << i << " packets";
      break;
    }
    WireReader r(unit, HostWireOrder());
    Packet p;
    p.type = r.U8();
    r.Skip(1);
    p.seq = r.U16();
    got.push_back(p);
    ReplyHeader header;
    if (PeekReplyHeader(unit, HostWireOrder(), &header) && header.extra_words > 0) {
      std::vector<uint8_t> tail(header.extra_words * 4u);
      if (!client_end.ReadAll(tail.data(), tail.size()).ok()) {
        ADD_FAILURE() << "reply tail cut short";
        break;
      }
    }
  }
  return got;
}

template <typename Req>
void AppendRequest(WireWriter& w, Opcode op, const Req& req) {
  const size_t header = BeginRequest(w, op);
  req.Encode(w);
  EndRequest(w, header);
}

TEST_F(ShardServerTest, ForwardedReplyThenParkedEventKeepOneShardWireOrder) {
  // Pipelined in one write: select property events on device 0, a GetTime
  // (a reply), a property change (an event, raised on the device owner
  // while the connection is lent to it) and a sync (a reply). From a
  // shard-1 client both device requests run on shard 0, which writes the
  // GetTime reply itself; the event parks at home and follows on return.
  WireWriter w(HostWireOrder());
  SelectEventsReq select;
  select.device = 0;
  select.mask = kPropertyChangeMask;
  AppendRequest(w, Opcode::kSelectEvents, select);
  GetTimeReq get_time;
  get_time.device = 0;
  AppendRequest(w, Opcode::kGetTime, get_time);
  ChangePropertyReq change;
  change.device = 0;
  change.property = kAtomLAST_NUMBER_DIALED;
  change.type = kAtomSTRING;
  change.data = {'e', 'g', 'r', 'e', 's', 's'};
  AppendRequest(w, Opcode::kChangeProperty, change);
  AppendRequest(w, Opcode::kSyncConnection, EmptyReq{});
  const std::vector<uint8_t> requests = w.Take();

  const std::vector<Packet> sharded = RawExchange(*runner_, 1, requests, 3);
  const std::vector<Packet> expected = {
      {kReplyPacketType, 2},
      {static_cast<uint8_t>(EventType::kPropertyChange), 3},
      {kReplyPacketType, 4},
  };
  EXPECT_EQ(sharded, expected);

  ServerRunner::Config config;
  config.realtime = false;
  config.server.num_shards = 1;
  auto single = ServerRunner::Start(std::move(config));
  ASSERT_NE(single, nullptr);
  EXPECT_EQ(RawExchange(*single, 0, requests, 3), sharded)
      << "the sharded server's packets differ from a one-shard server's";
}

TEST_F(ShardServerTest, ExecutorEgressSurvivesShortAndStalledWrites) {
  // The shard-1 client's replies leave at most 7 bytes per write, with
  // would-block stalls scattered through them: most 8 KB record replies
  // cannot finish in the executor's flush, and the home's writable path
  // must drain the rest in order after the connection returns.
  auto source = std::make_shared<BufferSource>(1 << 15, 1, kMulawSilence);
  runner_->RunOnLoop([&] { runner_->codec()->sim().SetSource(source); });
  auto faults = std::make_shared<FaultSchedule>();
  faults->SetMaxWriteChunk(7);
  for (const uint64_t at : {300u, 5000u, 9000u, 17000u, 26000u, 41000u}) {
    faults->WouldBlockWriteAt(at, 3);
  }
  auto conn = ConnectOnShard(1, faults);
  ASSERT_NE(conn, nullptr);
  const DeviceId dev = runner_->codec_id();
  auto ac = conn->CreateAC(dev, 0, ACAttributes{});
  ASSERT_TRUE(ac.ok());

  // Three chunks of distinct audio, recorded into the device's past.
  auto now = conn->GetTime(dev);
  ASSERT_TRUE(now.ok());
  ASSERT_TRUE(ac.value()->RecordSamples(now.value(), {}, /*block=*/false).ok());
  std::vector<uint8_t> audio(3 * kDefaultChunkBytes);
  for (size_t i = 0; i < audio.size(); ++i) {
    audio[i] = static_cast<uint8_t>((i % 251) ^ (i >> 8));
  }
  constexpr ATime kStep = 512;
  const ATime start = now.value() + kStep;
  const ATime end = start + static_cast<ATime>(audio.size());
  runner_->RunOnLoop([&] { source->PutAt(start, audio); });
  for (ATime t = now.value(); TimeBefore(t, end);) {
    const ATime step = std::min<ATime>(kStep, end - t);
    runner_->manual_clock()->Advance(step);
    runner_->RunOnLoop([&] { runner_->codec()->Update(); });
    t += step;
  }

  for (size_t i = 0; i < 3; ++i) {
    std::vector<uint8_t> heard(kDefaultChunkBytes);
    auto rec = ac.value()->RecordSamples(
        start + static_cast<ATime>(i * kDefaultChunkBytes), heard, /*block=*/false);
    ASSERT_TRUE(rec.ok()) << "chunk " << i << ": " << rec.status().ToString();
    EXPECT_EQ(rec.value().actual_bytes, heard.size()) << "chunk " << i;
    EXPECT_EQ(rec.value().time, end) << "chunk " << i;
    EXPECT_TRUE(std::equal(heard.begin(), heard.end(),
                           audio.begin() + static_cast<long>(i * kDefaultChunkBytes)))
        << "chunk " << i;
    auto t = conn->GetTime(dev);
    ASSERT_TRUE(t.ok()) << "chunk " << i;
    EXPECT_EQ(t.value(), end) << "chunk " << i;
  }
  // All three again as one pipelined record: later chunks' replies queue
  // behind the unfinished ones in the egress chain.
  std::vector<uint8_t> heard(audio.size());
  auto rec = ac.value()->RecordSamples(start, heard, /*block=*/false);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_EQ(rec.value().actual_bytes, audio.size());
  EXPECT_EQ(heard, audio);
  auto t = conn->GetTime(dev);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t.value(), end);

  const std::string applied = faults->TraceString();
  EXPECT_NE(applied.find("wouldblock"), std::string::npos) << applied;
}

TEST_F(ShardServerTest, ClientLeavingDuringForwardedSuspendedPlayIsReaped) {
  // A shard-1 client's play blocks on shard 0 (it starts past the end of
  // the play buffer) and the client closes meanwhile. When the play
  // resumes, shard 0's reply write finds the peer gone; the home must
  // reap the connection once it returns.
  auto conn = ConnectOnShard(1);
  ASSERT_NE(conn, nullptr);
  conn->SetIOErrorHandler([](AFAudioConn&) {});  // no exit
  const DeviceId dev = runner_->codec_id();
  auto ac = conn->CreateAC(dev, 0, ACAttributes{});
  ASSERT_TRUE(ac.ok());
  auto now = conn->GetTime(dev);
  ASSERT_TRUE(now.ok());
  const ATime window = conn->devices()[dev].play_buffer_samples;
  const std::vector<uint8_t> tone(800, 0x55);
  constexpr ATime kPastBuffer = 400;  // starts past the buffer: suspends
  PlaySamplesReq req;
  req.ac = ac.value()->id();
  req.start_time = now.value() + window + kPastBuffer;
  req.nbytes = static_cast<uint32_t>(tone.size());
  req.data = tone;
  conn->QueueRequest(Opcode::kPlaySamples, req);
  conn->Flush();

  const Counter& suspends = runner_->server().shard(0)->metrics().suspends;
  for (int i = 0; i < 20000 && suspends.Value() == 0; ++i) {
    SleepMicros(100);
  }
  ASSERT_GT(suspends.Value(), 0u) << "the play never suspended on shard 0";
  conn.reset();

  // The play fits once the buffer's end has moved past the play's end.
  runner_->manual_clock()->Advance(kPastBuffer + static_cast<ATime>(tone.size()));
  runner_->RunOnLoop([&] { runner_->codec()->Update(); });
  EXPECT_EQ(torture::DrainToClientCount(*runner_, 0), 0u);
  EXPECT_GT(runner_->server().shard(0)->metrics().resumes.Value(), 0u);
  EXPECT_EQ(runner_->server().shard(1)->client_count(), 0u);
}

TEST_F(ShardServerTest, ForwardedReplyIsFlushedByTheExecutor) {
  auto conn = ConnectOnShard(1);
  ASSERT_NE(conn, nullptr);
  ASSERT_TRUE(conn->GetTrace(kTraceFlagEnable).ok());
  ASSERT_TRUE(conn->GetTime(runner_->codec_id()).ok());
  auto trace = conn->GetTrace(kTraceFlagDisable);
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  const std::vector<TraceEvent>& events = trace.value().events;

  const auto is = [](const TraceEvent& ev, TraceKind kind) {
    return ev.kind == static_cast<uint8_t>(kind);
  };
  const uint8_t get_time = static_cast<uint8_t>(Opcode::kGetTime);
  const auto exec = std::find_if(events.begin(), events.end(), [&](const TraceEvent& ev) {
    return is(ev, TraceKind::kRemoteExec) && ev.arg == get_time;
  });
  ASSERT_NE(exec, events.end()) << "no remote execution of the GetTime";
  EXPECT_EQ(exec->shard, 0u);
  // The first flush on the connection after the execution carries the
  // 32-byte reply, and the executor's ring recorded it.
  const auto flush = std::find_if(exec, events.end(), [&](const TraceEvent& ev) {
    return is(ev, TraceKind::kFlush) && ev.conn == exec->conn;
  });
  ASSERT_NE(flush, events.end()) << "the GetTime reply was never flushed";
  EXPECT_EQ(flush->shard, 0u) << "the reply left through the home shard";
  EXPECT_EQ(flush->value, kReplyBaseBytes);
  // The home's dispatch span ends where the executor handed the reply to
  // the kernel, not when the connection came back.
  const auto request = std::find_if(events.begin(), events.end(), [&](const TraceEvent& ev) {
    return is(ev, TraceKind::kRequest) && ev.arg == get_time && ev.corr == exec->corr;
  });
  ASSERT_NE(request, events.end());
  EXPECT_EQ(request->shard, 1u);
  EXPECT_LE(request->host_us + request->dur_us, flush->host_us);
}

}  // namespace
}  // namespace af
