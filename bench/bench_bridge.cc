// Conference-bridge fan-in: how the shared-device mix path scales when
// many parties pour into ONE device, and what the cross-shard mailboxes
// charge for it.
//
// bench_fanout spreads N clients across N (or S) devices; this bench is
// its inverse. N scripted telephone parties (the abridge core) all hold
// mixing ACs on the single CODEC device owned by shard 0, with round-robin
// shard pinning, so at AF_SHARDS > 1 a (S-1)/S fraction of every block's
// plays crosses a mailbox before it can touch the device buffer. Each
// cell reports the client-side mix-write p50/p95/p99, the cross-shard
// post/drain totals and mailbox depth high water, and the samples-lost
// counters (play_discarded_frames; underruns stay zero on the manual
// clock) as first-class columns.
//
// Arbitration runs for real in every cell: Goertzel DTMF detection at
// conversational fan-in (N <= 8), scripted floor rotation at scale (a
// thousand per-party detectors would price the client, not the server).
// Either way the floor changes mid-run, so the per-party gain retunes and
// the fused gain+mix path carries most writes.
//
// The sweep is parties N in {1, 8, 64, 256, 1024} x AF_SHARDS in
// {1, 2, 4} on a manual device clock paced one block per conference block
// (plays stay a fixed lead ahead of device time, so nothing blocks on
// flow control and nothing lands in the past). Flags: --json out.json,
// --quick (N = 8, shards {1, 4}, CI), --smoke (one 256-party x 4-shard
// cell validating the live counter shape).
#include <cstdlib>

#include "bench/harness.h"
#include "clients/cores.h"
#include "dsp/simd.h"

using namespace af;
using namespace af::bench;

namespace {

constexpr size_t kBlockFrames = 320;  // 40 ms at 8 kHz, the abridge default

struct BridgeRun {
  Stats play;  // one sample per party-block mix write
  AbridgeResult bridge;
  ServerSide server;
};

// Blocks per cell: enough that every cell times ~2048 mix writes, with a
// floor that keeps arbitration meaningful at the widest fan-in.
size_t BlocksFor(size_t parties, bool quick) {
  if (quick) {
    return 24;
  }
  return std::max<size_t>(8, 2048 / parties);
}

bool RunBridge(size_t parties, int shards, size_t blocks, BridgeRun* out) {
  setenv("AF_POLLER", "epoll", 1);
  setenv("AF_WRITEV", "1", 1);
  SetSimdEnabled(true);

  ServerRunner::Config config;
  config.server.num_shards = shards;
  config.with_codec = true;  // the one bridge device, owned by shard 0
  config.realtime = false;
  auto runner = ServerRunner::Start(std::move(config));
  unsetenv("AF_POLLER");  // read once at Poller construction
  if (runner == nullptr) {
    std::fprintf(stderr, "bench_bridge: cannot start server (shards=%d)\n", shards);
    return false;
  }
  auto clock = runner->manual_clock();

  AbridgeOptions options;
  options.parties = parties;
  options.blocks = blocks;
  options.block_frames = kBlockFrames;
  options.device = static_cast<int>(runner->codec_id());
  if (parties > 8) {
    options.detect_dtmf = false;
    options.floor_rotate_blocks = std::max<size_t>(2, blocks / 4);
  }
  // Round-robin shard pinning: party i lands on shard i % S, so all but
  // the shard-0 residents forward every play through a mailbox.
  options.connect = [&](size_t i) {
    return shards > 1 ? runner->ConnectInProcessOnShard(
                            static_cast<uint32_t>(i % static_cast<size_t>(shards)))
                      : runner->ConnectInProcess();
  };
  std::vector<double> samples;
  samples.reserve(parties * blocks);
  options.on_play_micros = [&](uint64_t us) {
    samples.push_back(static_cast<double>(us));
  };
  // Pace device time one block per conference block: writes stay exactly
  // lead_seconds ahead, the lazy silence fill and pickup run over an
  // advancing timeline, and nothing blocks on flow control at any N. The
  // periodic update task is scheduled in wall time (half the ring's drain
  // time) while this clock runs much faster than wall, so each step also
  // runs one Update() on the owner shard's loop - otherwise the hardware
  // ring drains a whole window between updates and charges the cell
  // underruns that are an artifact of the harness clock, not the mix path.
  options.pacer = [&](size_t) {
    clock->Advance(kBlockFrames);
    runner->RunOnLoop([&] { runner->codec()->Update(); });
  };
  // Prime the update cursor at clock zero: the periodic task may not have
  // fired yet when the first paced step lands, and the first Update would
  // otherwise see the whole startup advance as one bogus underrun.
  runner->RunOnLoop([&] { runner->codec()->Update(); });

  auto bridged = RunAbridge(options);
  unsetenv("AF_WRITEV");  // sampled per connection as the server adopts it
  if (!bridged.ok()) {
    std::fprintf(stderr, "bench_bridge: %s (N=%zu, shards=%d)\n",
                 bridged.status().ToString().c_str(), parties, shards);
    return false;
  }
  out->bridge = bridged.take();

  // The first block per party pays connection/arena warm-up; drop it.
  if (samples.size() > 2 * parties) {
    samples.erase(samples.begin(), samples.begin() + static_cast<long>(parties));
  }
  out->play = StatsFromSamples(samples);

  runner->SettleShards();  // the mailbox columns must balance
  auto probe = runner->ConnectInProcess();
  if (!probe.ok()) {
    std::fprintf(stderr, "bench_bridge: probe connect failed: %s\n",
                 probe.status().ToString().c_str());
    return false;
  }
  return FetchServerSide(*probe.value(), &out->server);
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--quick") {
      quick = true;
    } else if (std::string(argv[i]) == "--smoke") {
      smoke = true;
    }
  }
  const BenchArgs args = BenchArgs::Parse(argc, argv);

  const std::vector<size_t> fanins =
      smoke ? std::vector<size_t>{256}
            : (quick ? std::vector<size_t>{8}
                     : std::vector<size_t>{1, 8, 64, 256, 1024});
  const std::vector<int> shard_counts =
      smoke ? std::vector<int>{4}
            : (quick ? std::vector<int>{1, 4} : std::vector<int>{1, 2, 4});

  JsonReport report("bench_bridge");
  PrintHeader("Bridge fan-in: per-party mix-write latency (usec)",
              {"parties", "shards", "p50", "p95", "p99", "xshard", "mbox hw",
               "lost", "floor"});

  bool ok = true;
  for (const size_t n : fanins) {
    for (const int shards : shard_counts) {
      BridgeRun run;
      if (!RunBridge(n, shards, BlocksFor(n, quick || smoke), &run)) {
        ok = false;
        continue;
      }
      const std::string config = "shards" + std::to_string(shards);
      report.Add(config, "mix/N=" + std::to_string(n), kBlockFrames, run.play);
      report.SetServer(config + "/N=" + std::to_string(n), run.server);
      PrintCell(std::to_string(n));
      PrintCell(std::to_string(shards));
      PrintCell(run.play.p50_us, "%.1f");
      PrintCell(run.play.p95_us, "%.1f");
      PrintCell(run.play.p99_us, "%.1f");
      PrintCell(std::to_string(run.server.cross_shard_posted));
      PrintCell(std::to_string(run.server.mailbox_depth_hw));
      PrintCell(std::to_string(run.server.play_discarded_frames +
                               run.server.play_underrun_samples));
      PrintCell(std::to_string(run.bridge.floor_changes));
      EndRow();

      if (smoke) {
        // CI's live-shape check: the counters the committed artifact is
        // reviewed on must actually move in a real 256-party run.
        if (run.server.mix_shared_writes == 0 || run.server.mix_fanin_hw < n) {
          std::fprintf(stderr, "bench_bridge: smoke: fan-in counters flat "
                               "(shared=%llu hw=%llu)\n",
                       static_cast<unsigned long long>(run.server.mix_shared_writes),
                       static_cast<unsigned long long>(run.server.mix_fanin_hw));
          ok = false;
        }
        if (run.server.cross_shard_posted == 0 ||
            run.server.cross_shard_posted != run.server.cross_shard_drained) {
          std::fprintf(stderr, "bench_bridge: smoke: mailbox imbalance "
                               "(posted=%llu drained=%llu)\n",
                       static_cast<unsigned long long>(run.server.cross_shard_posted),
                       static_cast<unsigned long long>(run.server.cross_shard_drained));
          ok = false;
        }
        if (run.server.play_discarded_frames != 0) {
          std::fprintf(stderr, "bench_bridge: smoke: lost %llu frames\n",
                       static_cast<unsigned long long>(run.server.play_discarded_frames));
          ok = false;
        }
        if (run.bridge.floor_changes == 0) {
          std::fprintf(stderr, "bench_bridge: smoke: arbitration never ran\n");
          ok = false;
        }
      }
    }
  }
  std::printf("\nxshard counts plays posted through the cross-shard mailboxes\n"
              "(round-robin pinning: (S-1)/S of all plays at S shards); lost is\n"
              "play frames discarded to the past plus underrun samples.\n");

  if (!ok) {
    return 1;
  }
  if (!args.json_path.empty() && !report.WriteFile(args.json_path)) {
    return 1;
  }
  return 0;
}
