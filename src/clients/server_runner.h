// ServerRunner: assembles an AudioFile server with a standard device
// complement (the Alofi shape: CODEC devices, a HiFi stereo device with
// mono views, a telephone device, optionally a LineServer) and runs its
// loop on a background thread. Examples, tests, and benchmarks all start
// their servers through this.
#ifndef AF_CLIENTS_SERVER_RUNNER_H_
#define AF_CLIENTS_SERVER_RUNNER_H_

#include <memory>
#include <string>
#include <thread>

#include "client/connection.h"
#include "devices/codec_device.h"
#include "devices/hifi_device.h"
#include "devices/lineserver_device.h"
#include "devices/phone_device.h"
#include "server/server.h"

namespace af {

class ServerRunner {
 public:
  struct Config {
    bool with_codec = true;       // device 0: local 8 kHz CODEC
    bool with_phone = false;      // telephone CODEC
    bool with_hifi = false;       // stereo HiFi + left/right mono views
    bool with_lineserver = false; // detached device
    // Sharded-deployment shape (bench_fanout's shard sweep): one CODEC per
    // shard, device id == owning shard index, all on the same clock.
    // Replaces with_codec; codec()/codec_id() refer to shard 0's device.
    bool codec_per_shard = false;
    unsigned codec_rate = 8000;
    unsigned hifi_rate = 48000;
    // Crystal-tolerance model for the CODEC clock (parts per million); the
    // paper's "7999.96 Hz rather than 8000.00". Used by apass drift tests.
    double codec_rate_error_ppm = 0.0;
    // When false, devices run on a shared ManualSampleClock the test
    // advances by hand; when true, on real monotonic clocks.
    bool realtime = true;
    // Optional TCP port / UNIX path to listen on (0 / empty = none).
    uint16_t tcp_port = 0;
    std::string unix_path;
    AFServer::Options server;
  };

  // Builds, starts the loop thread, returns the runner.
  static std::unique_ptr<ServerRunner> Start(Config config);
  ~ServerRunner();

  AFServer& server() { return *server_; }

  // Connects a client over an in-process socketpair. Either end of the
  // connection may run through a fault-injection schedule (torture tests);
  // both default to fault-free.
  Result<std::unique_ptr<AFAudioConn>> ConnectInProcess(
      std::shared_ptr<FaultSchedule> client_faults = nullptr,
      std::shared_ptr<FaultSchedule> server_faults = nullptr);
  // As above, but the server end is pinned to a specific shard instead of
  // round-robining (shard-local benchmarks, cross-shard tests).
  Result<std::unique_ptr<AFAudioConn>> ConnectInProcessOnShard(uint32_t shard);

  // Device handles (valid per config; indices follow the order below).
  CodecDevice* codec() { return codec_; }
  PhoneDevice* phone() { return phone_; }
  HiFiDevice* hifi() { return hifi_; }
  LineServerDevice* lineserver() { return lineserver_; }
  DeviceId codec_id() const { return codec_id_; }
  DeviceId phone_id() const { return phone_id_; }
  DeviceId hifi_id() const { return hifi_id_; }

  // Manual clock shared by the CODEC-rate devices (null when realtime).
  std::shared_ptr<ManualSampleClock> manual_clock() { return manual_clock_; }
  std::shared_ptr<ManualSampleClock> manual_hifi_clock() { return manual_hifi_clock_; }

  // Runs fn on the server loop thread and waits for it to finish.
  void RunOnLoop(std::function<void()> fn);
  // Returns once every cross-shard message posted before the call has been
  // drained. A client holding its last reply does not imply that: the
  // owner shard writes a forwarded request's reply before it mails the
  // connection home. Call it before reading mailbox counters that must
  // balance. Every shard must be running.
  void SettleShards();

 private:
  ServerRunner() = default;

  std::unique_ptr<AFServer> server_;
  std::thread thread_;
  CodecDevice* codec_ = nullptr;
  PhoneDevice* phone_ = nullptr;
  HiFiDevice* hifi_ = nullptr;
  LineServerDevice* lineserver_ = nullptr;
  DeviceId codec_id_ = 0;
  DeviceId phone_id_ = 0;
  DeviceId hifi_id_ = 0;
  std::shared_ptr<ManualSampleClock> manual_clock_;
  std::shared_ptr<ManualSampleClock> manual_hifi_clock_;
};

}  // namespace af

#endif  // AF_CLIENTS_SERVER_RUNNER_H_
