#include "clients/server_runner.h"

#include <future>

#include "common/log.h"

namespace af {

std::unique_ptr<ServerRunner> ServerRunner::Start(Config config) {
  auto runner = std::unique_ptr<ServerRunner>(new ServerRunner());
  runner->server_ = std::make_unique<AFServer>(config.server);

  std::shared_ptr<SampleClock> codec_clock;
  std::shared_ptr<SampleClock> hifi_clock;
  if (config.realtime) {
    codec_clock =
        std::make_shared<SystemSampleClock>(config.codec_rate, config.codec_rate_error_ppm);
    hifi_clock = std::make_shared<SystemSampleClock>(config.hifi_rate);
  } else {
    runner->manual_clock_ = std::make_shared<ManualSampleClock>(config.codec_rate);
    runner->manual_hifi_clock_ = std::make_shared<ManualSampleClock>(config.hifi_rate);
    codec_clock = runner->manual_clock_;
    hifi_clock = runner->manual_hifi_clock_;
  }

  if (config.codec_per_shard) {
    for (uint32_t s = 0; s < runner->server_->num_shards(); ++s) {
      CodecDevice::Config cc;
      cc.sample_rate = config.codec_rate;
      auto codec = CodecDevice::Create(codec_clock, cc);
      if (s == 0) {
        runner->codec_ = codec.get();
        runner->codec_id_ = 0;
      }
      runner->server_->AddDeviceOnShard(std::move(codec), s);
    }
  } else if (config.with_codec) {
    CodecDevice::Config cc;
    cc.sample_rate = config.codec_rate;
    auto codec = CodecDevice::Create(codec_clock, cc);
    runner->codec_ = codec.get();
    runner->codec_id_ = runner->server_->AddDevice(std::move(codec));
  }
  if (config.with_phone) {
    PhoneDevice::Config pc;
    pc.sample_rate = config.codec_rate;
    auto phone = PhoneDevice::Create(codec_clock, pc);
    runner->phone_ = phone.get();
    runner->phone_id_ = runner->server_->AddDevice(std::move(phone));
  }
  if (config.with_hifi) {
    HiFiDevice::Config hc;
    hc.sample_rate = config.hifi_rate;
    auto hifi = HiFiDevice::Create(hifi_clock, hc);
    runner->hifi_ = hifi.get();
    runner->hifi_id_ = runner->server_->AddDevice(std::move(hifi));
    runner->server_->AddDevice(std::make_unique<MonoHiFiDevice>(runner->hifi_, 0));
    runner->server_->AddDevice(std::make_unique<MonoHiFiDevice>(runner->hifi_, 1));
  }
  if (config.with_lineserver) {
    LineServerDevice::Config lc;
    lc.sample_rate = config.codec_rate;
    if (!config.realtime) {
      lc.hw.refresh_interval_us = 0;  // deterministic time estimates
    }
    auto ls = LineServerDevice::Create(codec_clock, lc);
    runner->lineserver_ = ls.get();
    runner->server_->AddDevice(std::move(ls));
  }

  if (config.tcp_port != 0) {
    const Status s = runner->server_->ListenTcp(config.tcp_port);
    if (!s.ok()) {
      ErrorF("ServerRunner: %s", s.ToString().c_str());
      return nullptr;
    }
  }
  if (!config.unix_path.empty()) {
    const Status s = runner->server_->ListenUnix(config.unix_path);
    if (!s.ok()) {
      ErrorF("ServerRunner: %s", s.ToString().c_str());
      return nullptr;
    }
  }

  AFServer* server = runner->server_.get();
  runner->thread_ = std::thread([server] { server->Run(); });
  return runner;
}

ServerRunner::~ServerRunner() {
  if (server_) {
    server_->Stop();
  }
  if (thread_.joinable()) {
    thread_.join();
  }
}

Result<std::unique_ptr<AFAudioConn>> ServerRunner::ConnectInProcess(
    std::shared_ptr<FaultSchedule> client_faults,
    std::shared_ptr<FaultSchedule> server_faults) {
  auto pair = CreateStreamPair();
  if (!pair.ok()) {
    return pair.status();
  }
  auto& [client_end, server_end] = pair.value();
  server_->AdoptClient(std::move(server_end), std::move(server_faults));
  return AFAudioConn::FromStream(std::move(client_end), std::move(client_faults),
                                 "(in-process)");
}

Result<std::unique_ptr<AFAudioConn>> ServerRunner::ConnectInProcessOnShard(
    uint32_t shard) {
  auto pair = CreateStreamPair();
  if (!pair.ok()) {
    return pair.status();
  }
  auto& [client_end, server_end] = pair.value();
  server_->AdoptClientOnShard(std::move(server_end), nullptr, {}, shard);
  return AFAudioConn::FromStream(std::move(client_end), nullptr, "(in-process)");
}

void ServerRunner::RunOnLoop(std::function<void()> fn) {
  std::promise<void> done;
  std::future<void> future = done.get_future();
  server_->Post([&fn, &done] {
    fn();
    done.set_value();
  });
  future.wait();
}

void ServerRunner::SettleShards() {
  // Round 1 lets every shard finish the loop turn it was in, so every
  // hand-back from before the call has been posted. A loop turn drains
  // the mailbox first, and a shard runs each batch of posted functions
  // once per turn: round 3's function therefore runs in a turn that
  // started after round 2's function ran, so after every such post.
  for (int round = 0; round < 3; ++round) {
    for (uint32_t s = 0; s < server_->num_shards(); ++s) {
      std::promise<void> done;
      std::future<void> future = done.get_future();
      server_->PostToShard(s, [&done] { done.set_value(); });
      future.wait();
    }
  }
}

}  // namespace af
