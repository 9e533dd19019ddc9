// abridge: a conference bridge over AudioFile - N telephone parties mix
// into one shared device, a '*' key press grabs the floor (everyone else
// is attenuated), '#' gives it back.
//
//   abridge [-parties N] [-fleet N] [-blocks N] [-d device] [-g muted_db]
//           [-rotate K] [-demo] [server]
//
// With -demo (or when AUDIOFILE is unset) an in-process server is started
// and the bridge drives scripted parties against its CODEC device; the
// floor log, arbitration counts, and the server's fan-in counters are
// printed. -rotate K switches arbitration from DTMF detection to a
// scripted floor rotation every K blocks.
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "clients/cores.h"
#include "clients/server_runner.h"
#include "proto/stats.h"

using namespace af;

int main(int argc, char** argv) {
  AbridgeOptions options;
  const char* server = nullptr;
  bool demo = false;
  for (int i = 1; i < argc; ++i) {
    if (!strcmp(argv[i], "-parties") && i + 1 < argc) {
      options.parties = static_cast<size_t>(atoi(argv[++i]));
    } else if (!strcmp(argv[i], "-fleet") && i + 1 < argc) {
      options.fleet = static_cast<size_t>(atoi(argv[++i]));
    } else if (!strcmp(argv[i], "-blocks") && i + 1 < argc) {
      options.blocks = static_cast<size_t>(atoi(argv[++i]));
    } else if (!strcmp(argv[i], "-d") && i + 1 < argc) {
      options.device = atoi(argv[++i]);
    } else if (!strcmp(argv[i], "-g") && i + 1 < argc) {
      options.muted_gain_db = atoi(argv[++i]);
    } else if (!strcmp(argv[i], "-rotate") && i + 1 < argc) {
      options.floor_rotate_blocks = static_cast<size_t>(atoi(argv[++i]));
      options.detect_dtmf = false;
    } else if (!strcmp(argv[i], "-demo")) {
      demo = true;
    } else {
      server = argv[i];
    }
  }

  std::unique_ptr<ServerRunner> runner;
  if (demo || getenv("AUDIOFILE") == nullptr) {
    ServerRunner::Config config;
    config.with_codec = true;
    runner = ServerRunner::Start(config);
    AoD(runner != nullptr, "abridge: cannot start demo server\n");
    options.connect = [&](size_t) { return runner->ConnectInProcess(); };
  } else {
    options.connect = [&](size_t) {
      return AFAudioConn::Open(server == nullptr ? "" : server);
    };
  }

  auto bridged = RunAbridge(options);
  AoD(bridged.ok(), "abridge: %s\n", bridged.status().ToString().c_str());
  const AbridgeResult& r = bridged.value();
  std::printf("abridge: %zu parties (+%zu fleet), %zu blocks played\n",
              options.parties, options.fleet, r.blocks_played);
  std::printf("floor: %zu changes, %zu digits decoded, log %s final %d\n",
              r.floor_changes, r.dtmf_digits,
              r.floor_log.empty() ? "-" : r.floor_log.c_str(), r.final_floor);

  // The server's view of the fan-in: mixed writes split by sharedness,
  // the distinct-source high water, and the samples-lost counters.
  auto probe = runner != nullptr ? runner->ConnectInProcess()
                                 : AFAudioConn::Open(server == nullptr ? "" : server);
  AoD(probe.ok(), "abridge: %s\n", probe.status().ToString().c_str());
  auto stats = probe.value()->GetServerStats();
  AoD(stats.ok(), "abridge: %s\n", stats.status().ToString().c_str());
  for (const DeviceStatsWire& dev : stats.value().devices) {
    const auto value = [&dev](size_t slot) {
      return static_cast<unsigned long long>(SlotValue(dev.counters, slot));
    };
    const unsigned long long mixed = value(DeviceSlot("mixed_writes"));
    const unsigned long long preempt = value(DeviceSlot("preempt_writes"));
    if (mixed == 0 && preempt == 0) {
      continue;  // no play traffic on this device
    }
    std::printf(
        "dev%u: mixed=%llu (shared=%llu) preempt=%llu fanin_hw=%llu fused=%llu "
        "discarded=%llu silence=%llu\n",
        dev.index, mixed, value(DeviceSlot("mix_shared_writes")), preempt,
        value(DeviceSlot("mix_fanin_hw")), value(DeviceSlot("gain_fused_writes")),
        value(DeviceSlot("play_discarded_frames")), value(DeviceSlot("silence_filled_frames")));
  }
  return 0;
}
