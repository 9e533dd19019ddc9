// afperf: the repository benchmark's measuring program.
//
// One process, one load-generating thread, at most two server shards: the
// server runs in-process (ServerRunner) and is driven only through the
// public client library, in a closed loop (every call waits for its reply,
// as AudioFile callers do). Each workload's seed picks the op order,
// sizes and payload bytes.
//
//   rpc         1 shard, realtime CODEC, 4 in-process connections taken
//               round-robin: GetTime, native mu-law preempt plays of
//               64-512 B a fixed lead ahead, non-blocking records of the
//               same sizes from the recent past. Per-request fixed cost
//               dominates; plays are pass-through copies, no mailbox hop.
//   mix-stream  2 shards on a manual clock paced one 1024-frame block per
//               round; CODEC owned by shard 0, connections split 2/2, shard
//               1 on a CPU of its own.
//               Three players send lin16 mixing plays at -6 dB (convert,
//               gain and mix run on every play); a recorder reads each
//               finished block back through a LoopbackWire and every block
//               is compared with a single-shard scalar two-pass oracle.
//   bulk-tcp    1 shard, realtime, one TCP loopback connection through
//               the server's listener: 16 KB preempt plays (split by the
//               library into 8 KB chunks) and 32 KB past records.
//
// --trace 0 prints the end-to-end metrics (tracing off). --trace 1 prints
// the per-layer metrics: an untraced window for server counters, CPU and
// the tracing-overhead baseline, then a traced window whose latency budget
// comes from the program's own trace (SetClientTracing, GetTrace,
// MergeClientServerTrace, ComputeLatencyBudget), then direct timings of
// the protocol codec, the DSP kernels and a transport echo at the
// workload's sizes. The last stdout line is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sched.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <variant>
#include <vector>

#include "client/audio_context.h"
#include "clients/cores.h"
#include "clients/server_runner.h"
#include "dsp/g711.h"
#include "dsp/gain.h"
#include "dsp/mix.h"
#include "dsp/simd.h"
#include "proto/requests.h"
#include "proto/stats.h"
#include "proto/trace_wire.h"
#include "transport/listener.h"
#include "transport/stream.h"

using namespace af;

namespace {

// --- timing ------------------------------------------------------------------

// Nanosecond monotonic timer. HostMicros() truncates to whole
// microseconds, which is several percent of a 12 us round trip.
int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return int64_t{ts.tv_sec} * 1000000000 + ts.tv_nsec;
}

int64_t ProcessCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return int64_t{ts.tv_sec} * 1000000000 + ts.tv_nsec;
}

// Nearest-rank percentile of a sample set, in the samples' unit.
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double Mean(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) {
    sum += x;
  }
  return v.empty() ? 0 : sum / static_cast<double>(v.size());
}

uint64_t Fnv1a(uint64_t h, std::span<const uint8_t> bytes) {
  for (uint8_t b : bytes) {
    h = (h ^ b) * 1099511628211ull;
  }
  return h;
}
constexpr uint64_t kFnvBasis = 14695981039346656037ull;

constexpr uint8_t kMulawSilence = 0xFF;  // mu-law zero

// --- what a run measures -------------------------------------------------------

enum class OpKind : uint8_t { kGetTime, kPlay, kRecord };
constexpr const char* kOpNames[] = {"gettime", "play", "record"};

// One measured window: per-op latencies plus the counts the end-to-end
// metrics are built from.
struct Window {
  std::vector<double> us[3];  // per OpKind, steady-clock microseconds
  uint64_t bytes[3] = {0, 0, 0};
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t play_frames = 0;    // audio carried by plays
  uint64_t record_frames = 0;  // audio carried by records
  uint64_t device_frames = 0;  // paced device time advanced (mix-stream)
  int64_t wall_ns = 0;

  void Add(OpKind k, int64_t ns, size_t nbytes, bool ok) {
    ++attempted;
    if (!ok) {
      ++failed;
      return;
    }
    us[static_cast<int>(k)].push_back(static_cast<double>(ns) / 1000.0);
    bytes[static_cast<int>(k)] += nbytes;
  }
  uint64_t ops() const { return us[0].size() + us[1].size() + us[2].size(); }
};

// The benchmark's own span around one public call, keyed by the
// correlation ID of the request whose reply the call awaited.
struct OwnSpan {
  uint64_t corr = 0;
  double us = 0;
  bool single_chunk = false;  // the call sent one request, the awaited one
};

// Failures are counted, never fatal: the first few are printed.
struct FailureLog {
  int printed = 0;
  void Note(const char* what, const std::string& detail) {
    if (printed < 8) {
      std::fprintf(stderr, "afperf: %s failed: %s\n", what, detail.c_str());
      ++printed;
    }
  }
};
FailureLog g_failures;

// Books one timed public call: its latency into *w (or a failure) and, in
// traced windows, its span keyed by the awaited request's correlation ID.
void Book(Window* w, std::vector<OwnSpan>* spans, OpKind k, int64_t ns, size_t nbytes,
          const Status& status, uint64_t corr) {
  if (!status.ok()) {
    g_failures.Note(kOpNames[static_cast<int>(k)], status.ToString());
  }
  w->Add(k, ns, nbytes, status.ok());
  if (spans != nullptr) {
    spans->push_back({corr, static_cast<double>(ns) / 1000.0, nbytes <= kDefaultChunkBytes});
  }
}

// --- CPU placement -------------------------------------------------------------

// The CPUs a run uses, fixed so that every run of a workload lands on the
// same ones: the generator, shard 0 and every helper thread share the
// first CPU the process may run on; a second shard runs on the next one.
struct Cpus {
  int first = -1;
  int second = -1;  // -1 when the process may use only one CPU
};
Cpus g_cpus;

Cpus AllowedCpus() {
  Cpus c;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) {
    return c;
  }
  for (int cpu = 0; cpu < CPU_SETSIZE && c.second < 0; ++cpu) {
    if (CPU_ISSET(cpu, &set)) {
      (c.first < 0 ? c.first : c.second) = cpu;
    }
  }
  return c;
}

// Pins the calling thread; threads it creates afterwards inherit the mask.
bool PinCallingThread(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return cpu >= 0 && sched_setaffinity(0, sizeof(set), &set) == 0;
}

// --- server stats read by name -------------------------------------------------

// A count-prefixed wire array read by name: absent when this build does
// not know the name or the server sent fewer slots.
template <size_t N>
std::optional<uint64_t> ByName(const char* const (&names)[N],
                               const std::vector<uint64_t>& values, std::string_view name) {
  for (size_t i = 0; i < N; ++i) {
    if (name == names[i] && i < values.size()) {
      return values[i];
    }
  }
  return std::nullopt;
}

std::optional<uint64_t> ServerCounter(const ServerStatsWire& s, std::string_view name) {
  return ByName(kServerCounterNames, s.counters, name);
}

std::optional<uint64_t> DeviceCounter(const ServerStatsWire& s, uint32_t device,
                                      std::string_view name) {
  for (const DeviceStatsWire& d : s.devices) {
    if (d.index == device) {
      return ByName(kDeviceCounterNames, d.counters, name);
    }
  }
  return std::nullopt;
}

// --- the workloads ---------------------------------------------------------------

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string expect_digest;  // stored mix-stream digest for this seed
};

// A seed-derived pool of payload bytes that ops slice from.
std::vector<uint8_t> RandomBytes(std::mt19937_64& rng, size_t n) {
  std::vector<uint8_t> out(n);
  for (auto& b : out) {
    b = static_cast<uint8_t>(rng());
  }
  return out;
}

// One request of a workload's mix, for the direct protocol codec timing.
using ReqSpec = std::variant<GetTimeReq, PlaySamplesReq, RecordSamplesReq>;

// Appends one request to *w exactly as the client library frames it.
void EncodeSpec(const ReqSpec& spec, WireWriter& w) {
  std::visit(
      [&w](const auto& req) {
        using T = std::decay_t<decltype(req)>;
        const Opcode op = std::is_same_v<T, GetTimeReq>       ? Opcode::kGetTime
                          : std::is_same_v<T, PlaySamplesReq> ? Opcode::kPlaySamples
                                                              : Opcode::kRecordSamples;
        const size_t header = BeginRequest(w, op);
        req.Encode(w);
        EndRequest(w, header);
      },
      spec);
}

class Workload {
 public:
  virtual ~Workload() = default;
  // Starts the server and opens every connection and AC (timed: setup_s).
  virtual bool Setup() = 0;
  // Untimed preparation after Setup (record history, oracle, priming).
  virtual bool Prime() { return true; }
  // One closed-loop step: a few public calls, each timed into *w.
  virtual void Step(Window* w, std::vector<OwnSpan>* spans) = 0;
  // The connection used for GetServerStats / GetTrace.
  virtual AFAudioConn& control() = 0;
  virtual std::vector<AFAudioConn*> conns() = 0;
  // The request mix as the library frames it, for the codec timing.
  virtual std::vector<ReqSpec> SampleRequests() = 0;
  virtual bool EchoOverTcp() const { return false; }
  // Output check failures found after the run (not already counted as a
  // failed call).
  virtual uint64_t FinalCheckFailures() { return 0; }
  virtual void PrintDetails() {}
  // mix-stream only: lin16 payload blocks for the DSP kernel timing.
  virtual const std::vector<std::vector<int16_t>>* Lin16Blocks() const { return nullptr; }
  virtual int PlayGainDb() const { return 0; }

  static void InstallHandlers(AFAudioConn& c) {
    c.SetErrorHandler([](AFAudioConn&, const ErrorPacket& e) {
      g_failures.Note("request", "protocol error code " +
                                     std::to_string(static_cast<int>(e.code)));
    });
    c.SetIOErrorHandler([](AFAudioConn&) { g_failures.Note("transport", "I/O error"); });
  }
};

// --- rpc and bulk-tcp: realtime CODEC, preempt plays, past records -------------

struct RtOp {
  OpKind kind;
  uint32_t nbytes;
  uint32_t offset;  // into the payload pool
};

class RealtimeWorkload : public Workload {
 public:
  RealtimeWorkload(uint64_t seed, bool tcp) : tcp_(tcp) {
    std::mt19937_64 rng(seed);
    pool_ = RandomBytes(rng, kPoolBytes);
    // The loop walks a fixed schedule cyclically. The op proportions and
    // the size distribution are exact (stratified), so seeds differ in op
    // order, sizes and payload bytes but not in the amount of work: rpc is
    // a third each of GetTime, plays and records with sizes spread evenly
    // over 64-512 B; bulk-tcp is 1 GetTime : 2 plays : 2 records.
    constexpr uint32_t kRpcStrata = 1365;  // 3 * 1365 ops
    for (uint32_t i = 0; i < (tcp ? 1000u : kRpcStrata); ++i) {
      const uint32_t small = 64 + i * (512 - 64) / (kRpcStrata - 1);
      if (tcp) {
        schedule_.push_back({OpKind::kGetTime, 0, 0});
        for (int k = 0; k < 2; ++k) {
          schedule_.push_back({OpKind::kPlay, 16384, 0});
          schedule_.push_back({OpKind::kRecord, 32768, 0});
        }
      } else {
        schedule_.push_back({OpKind::kGetTime, 0, 0});
        schedule_.push_back({OpKind::kPlay, small, 0});
        schedule_.push_back({OpKind::kRecord, small, 0});
      }
    }
    std::shuffle(schedule_.begin(), schedule_.end(), rng);
    for (RtOp& op : schedule_) {
      op.offset = static_cast<uint32_t>(rng() % (kPoolBytes - op.nbytes + 1));
    }
    record_buf_.resize(32768);
  }

  bool Setup() override {
    ServerRunner::Config config;
    config.server.num_shards = 1;
    config.realtime = true;
    config.with_codec = true;
    if (tcp_) {
      // Displays 11700+ map to ports 18700+, clear of the range the
      // repository's tests and benches use.
      // Every instance takes the next port, so the set-up samples' many
      // short-lived listeners do not queue on one port.
      static int instances = 0;
      for (int attempt = 0; attempt < 32 && runner_ == nullptr; ++attempt) {
        display_ = 11700 + static_cast<int>((getpid() + instances++) % 200);
        config.tcp_port = static_cast<uint16_t>(kAudioFileBasePort + display_);
        runner_ = ServerRunner::Start(config);
      }
    } else {
      runner_ = ServerRunner::Start(config);
    }
    if (runner_ == nullptr) {
      return false;
    }
    for (int i = 0; i < (tcp_ ? 1 : 4); ++i) {
      Result<std::unique_ptr<AFAudioConn>> c =
          tcp_ ? AFAudioConn::Open("127.0.0.1:" + std::to_string(display_))
               : runner_->ConnectInProcess();
      if (!c.ok()) {
        g_failures.Note("connect", c.status().ToString());
        return false;
      }
      conns_.push_back(c.take());
      InstallHandlers(*conns_.back());
      ACAttributes attrs;
      attrs.preempt = 1;
      auto ac = conns_.back()->CreateAC(runner_->codec_id(), kACPreemption, attrs);
      if (!ac.ok()) {
        g_failures.Note("CreateAC", ac.status().ToString());
        return false;
      }
      acs_.push_back(ac.value());
    }
    return true;
  }

  bool Prime() override {
    // Anchor device time and let the record history cover the deepest
    // past record the schedule issues (realtime: this is wall time).
    auto t = conns_[0]->GetTime(runner_->codec_id());
    if (!t.ok()) {
      return false;
    }
    known_ = t.value();
    last_gettime_ = known_;
    std::vector<uint8_t> one(1);
    if (!acs_[0]->RecordSamples(known_, one, /*block=*/true).ok()) {
      return false;
    }
    const double history_s = static_cast<double>(kPastFrames + 512) / 8000.0 + 0.05;
    std::this_thread::sleep_for(std::chrono::duration<double>(history_s));
    auto t2 = conns_[0]->GetTime(runner_->codec_id());
    if (!t2.ok()) {
      return false;
    }
    known_ = t2.value();
    return true;
  }

  void Step(Window* w, std::vector<OwnSpan>* spans) override {
    const RtOp& op = schedule_[next_ % schedule_.size()];
    AFAudioConn& c = *conns_[next_ % conns_.size()];
    AC& ac = *acs_[next_ % conns_.size()];
    ++next_;
    Status status;
    ATime reply_time = known_;
    const int64_t t0 = NowNs();
    switch (op.kind) {
      case OpKind::kGetTime: {
        auto r = c.GetTime(runner_->codec_id());
        status = r.status();
        if (r.ok()) {
          reply_time = r.value();
          // Device time only moves forward between successive replies.
          if (TimeBefore(reply_time, last_gettime_)) {
            status = Status(AfError::kBadValue, "device time went backwards");
          }
          last_gettime_ = reply_time;
        }
        break;
      }
      case OpKind::kPlay: {
        auto r = ac.PlaySamples(known_ + kLeadFrames,
                                std::span<const uint8_t>(pool_).subspan(op.offset, op.nbytes));
        status = r.status();
        if (r.ok()) {
          reply_time = r.value();
        }
        break;
      }
      case OpKind::kRecord: {
        auto r = ac.RecordSamples(known_ - static_cast<ATime>(kPastFrames + op.nbytes),
                                  std::span<uint8_t>(record_buf_).first(op.nbytes),
                                  /*block=*/false);
        status = r.status();
        if (r.ok()) {
          reply_time = r.value().time;
          if (r.value().actual_bytes != op.nbytes) {
            status = Status(AfError::kBadLength, "short record");
          }
        }
        break;
      }
    }
    Book(w, spans, op.kind, NowNs() - t0, op.nbytes, status, c.last_corr());
    if (status.ok()) {
      known_ = reply_time;
      // Native mu-law: one byte per frame.
      if (op.kind == OpKind::kPlay) {
        w->play_frames += op.nbytes;
      } else if (op.kind == OpKind::kRecord) {
        w->record_frames += op.nbytes;
      }
    }
  }

  AFAudioConn& control() override { return *conns_[0]; }
  std::vector<AFAudioConn*> conns() override {
    std::vector<AFAudioConn*> out;
    for (auto& c : conns_) {
      out.push_back(c.get());
    }
    return out;
  }

  std::vector<ReqSpec> SampleRequests() override {
    std::vector<ReqSpec> out;
    for (size_t i = 0; i < 256; ++i) {
      const RtOp& op = schedule_[i];
      if (op.kind == OpKind::kGetTime) {
        out.push_back(GetTimeReq{});
        continue;
      }
      // Long transfers go out in chunks of at most 8 KB.
      for (uint32_t off = 0; off < op.nbytes; off += kDefaultChunkBytes) {
        const uint32_t n = std::min<uint32_t>(kDefaultChunkBytes, op.nbytes - off);
        if (op.kind == OpKind::kPlay) {
          PlaySamplesReq req;
          req.ac = acs_[0]->id();
          req.nbytes = n;
          req.data = std::span<const uint8_t>(pool_).subspan(op.offset + off, n);
          out.push_back(req);
        } else {
          RecordSamplesReq req;
          req.ac = acs_[0]->id();
          req.nbytes = n;
          req.flags = kRecordNoBlock;
          out.push_back(req);
        }
      }
    }
    return out;
  }

  bool EchoOverTcp() const override { return tcp_; }

 private:
  static constexpr size_t kPoolBytes = 1 << 17;
  // Plays land 100 ms ahead of the newest device time seen; records end
  // 200 ms behind it, so neither ever blocks or falls outside the buffers.
  static constexpr ATime kLeadFrames = 800;
  static constexpr ATime kPastFrames = 1600;

  bool tcp_;
  int display_ = 0;
  std::vector<uint8_t> pool_;
  std::vector<RtOp> schedule_;
  std::vector<uint8_t> record_buf_;
  std::unique_ptr<ServerRunner> runner_;
  std::vector<std::unique_ptr<AFAudioConn>> conns_;
  std::vector<AC*> acs_;
  size_t next_ = 0;
  ATime known_ = 0;
  ATime last_gettime_ = 0;
};

// --- mix-stream: paced mixing plays read back through a loopback -------------

class MixStreamWorkload : public Workload {
 public:
  static constexpr size_t kBlockFrames = 1024;
  static constexpr int kPlayers = 3;
  static constexpr int kGainDb = -6;
  // Plays land this many blocks ahead of device time.
  static constexpr uint64_t kLeadBlocks = 3;
  // Each player cycles through this many seed-derived payload blocks, so
  // the mixed output repeats with this period and every recorded block
  // has a known expected value.
  static constexpr size_t kPeriod = 8;

  explicit MixStreamWorkload(uint64_t seed) {
    std::mt19937_64 rng(seed);
    std::uniform_int_distribution<int> amp(-12000, 12000);
    for (int p = 0; p < kPlayers; ++p) {
      for (size_t b = 0; b < kPeriod; ++b) {
        std::vector<int16_t> block(kBlockFrames);
        for (auto& s : block) {
          s = static_cast<int16_t>(amp(rng));
        }
        blocks_.push_back(std::move(block));
      }
    }
    record_buf_.resize(kBlockFrames);
  }

  bool Setup() override { return Start(/*shards=*/2, &live_); }

  bool Prime() override {
    // Shard 1 gets a CPU of its own, as a second shard would on a
    // multi-core host, so its mailbox hops and its connections' wakeups
    // cross CPUs. With one CPU allowed, both shards share it.
    if (g_cpus.second >= 0) {
      std::promise<bool> pinned;
      live_.runner->server().PostToShard(
          1, [&pinned] { pinned.set_value(PinCallingThread(g_cpus.second)); });
      if (!pinned.get_future().get()) {
        g_failures.Note("pin", "cannot pin shard 1 to cpu " + std::to_string(g_cpus.second));
      }
    }
    // The oracle: the same inputs through one shard, scalar kernels and
    // the two-pass gain path. Its recorded period is what every live block
    // is compared with.
    const bool simd = SimdEnabled();
    SetSimdEnabled(false);
    bool ok = false;
    {
      Server oracle;
      ok = Start(/*shards=*/1, &oracle);
      if (ok) {
        oracle.runner->RunOnLoop([&] { oracle.runner->codec()->SetFusedGain(false); });
        expected_.assign(kPeriod, {});
        Window scratch;
        for (uint64_t r = 0; r < kLeadBlocks + kPeriod && ok; ++r) {
          ok = Round(&oracle, &scratch, nullptr, /*check=*/false);
          if (r >= kLeadBlocks) {
            expected_[r % kPeriod] = record_buf_;
          }
        }
      }
    }
    SetSimdEnabled(simd);
    if (!ok) {
      g_failures.Note("oracle", "mix-stream oracle run failed");
      return false;
    }
    oracle_digest_ = kFnvBasis;
    for (const auto& block : expected_) {
      oracle_digest_ = Fnv1a(oracle_digest_, block);
    }
    return true;
  }

  void Step(Window* w, std::vector<OwnSpan>* spans) override {
    Round(&live_, w, spans, /*check=*/true);
  }

  AFAudioConn& control() override { return *live_.conns[3]; }
  std::vector<AFAudioConn*> conns() override {
    std::vector<AFAudioConn*> out;
    for (auto& c : live_.conns) {
      out.push_back(c.get());
    }
    return out;
  }

  std::vector<ReqSpec> SampleRequests() override {
    std::vector<ReqSpec> out;
    for (const auto& block : blocks_) {
      PlaySamplesReq play;
      play.nbytes = static_cast<uint32_t>(block.size() * 2);
      play.data = std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(block.data()),
                                           play.nbytes);
      out.push_back(play);
      RecordSamplesReq rec;
      rec.nbytes = kBlockFrames;
      rec.flags = kRecordNoBlock;
      out.push_back(rec);
      out.push_back(GetTimeReq{});
    }
    return out;
  }

  // Live blocks were compared one by one as they were recorded; what is
  // left is the oracle against the digest stored for this seed.
  uint64_t FinalCheckFailures() override {
    if (!expect_digest_.empty() && expect_digest_ != Hex(oracle_digest_)) {
      std::fprintf(stderr, "afperf: oracle digest %s differs from the stored %s\n",
                   Hex(oracle_digest_).c_str(), expect_digest_.c_str());
      return 1;
    }
    return 0;
  }

  void PrintDetails() override {
    std::printf("mix_digest live=%s oracle=%s stored=%s blocks_checked=%" PRIu64
                " blocks_mismatched=%" PRIu64 "\n",
                live_digest_blocks_ == kPeriod ? Hex(live_digest_).c_str() : "incomplete",
                Hex(oracle_digest_).c_str(),
                expect_digest_.empty() ? "none" : expect_digest_.c_str(), checked_blocks_,
                mismatched_blocks_);
  }

  const std::vector<std::vector<int16_t>>* Lin16Blocks() const override { return &blocks_; }
  int PlayGainDb() const override { return kGainDb; }

  void set_expect_digest(std::string d) { expect_digest_ = std::move(d); }
  static std::string Hex(uint64_t v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
    return buf;
  }

 private:
  // Members destroy in reverse order: connections close before the
  // server they talk to stops.
  struct Server {
    std::unique_ptr<ServerRunner> runner;
    std::shared_ptr<LoopbackWire> wire;
    std::vector<std::unique_ptr<AFAudioConn>> conns;  // players 0..2, recorder
    std::vector<AC*> acs;
    uint64_t round = 0;
  };

  static bool Start(int shards, Server* s) {
    ServerRunner::Config config;
    config.server.num_shards = shards;
    config.realtime = false;
    config.with_codec = true;  // owned by shard 0
    s->runner = ServerRunner::Start(config);
    if (s->runner == nullptr) {
      return false;
    }
    ServerRunner& r = *s->runner;
    // The CODEC's output feeds its own input with no delay: recording a
    // finished block returns exactly what the DAC played.
    s->wire = std::make_shared<LoopbackWire>(8192, 1, kMulawSilence);
    r.RunOnLoop([&] {
      r.codec()->sim().SetSink(s->wire);
      r.codec()->sim().SetSource(s->wire);
      r.codec()->Update();  // prime the update cursor at clock zero
    });
    // Connections split 2/2: players 0 and 1 on shard 0 (the device
    // owner), player 2 and the recorder on shard 1, so half the requests
    // cross a mailbox.
    for (int i = 0; i < 4; ++i) {
      const uint32_t shard = shards > 1 && i >= 2 ? 1 : 0;
      auto c = r.ConnectInProcessOnShard(shard);
      if (!c.ok()) {
        g_failures.Note("connect", c.status().ToString());
        return false;
      }
      s->conns.push_back(c.take());
      InstallHandlers(*s->conns.back());
      ACAttributes attrs;
      uint32_t mask = 0;
      if (i < kPlayers) {
        attrs.encoding = AEncodeType::kLin16;
        attrs.play_gain_db = kGainDb;
        mask = kACEncodingType | kACPlayGain;
      }
      auto ac = s->conns.back()->CreateAC(r.codec_id(), mask, attrs);
      if (!ac.ok()) {
        g_failures.Note("CreateAC", ac.status().ToString());
        return false;
      }
      s->acs.push_back(ac.value());
    }
    return true;
  }

  // One round: every player mixes its block kLeadBlocks ahead, the device
  // clock advances one block (and the owner shard runs the update), then
  // the recorder reads the block that just finished.
  bool Round(Server* s, Window* w, std::vector<OwnSpan>* spans, bool check) {
    ServerRunner& r = *s->runner;
    const DeviceId dev = r.codec_id();
    const uint64_t k = s->round;
    bool all_ok = true;
    for (int p = 0; p < kPlayers; ++p) {
      const auto& block = blocks_[static_cast<size_t>(p) * kPeriod + (k + kLeadBlocks) % kPeriod];
      const auto bytes = std::span<const uint8_t>(
          reinterpret_cast<const uint8_t*>(block.data()), block.size() * 2);
      const int64_t t0 = NowNs();
      auto res = s->acs[p]->PlaySamples(static_cast<ATime>((k + kLeadBlocks) * kBlockFrames),
                                        bytes);
      Book(w, spans, OpKind::kPlay, NowNs() - t0, bytes.size(), res.status(),
           s->conns[p]->last_corr());
      w->play_frames += res.ok() ? kBlockFrames : 0;
      all_ok = all_ok && res.ok();
    }

    r.manual_clock()->Advance(kBlockFrames);
    r.RunOnLoop([&] { r.codec()->Update(); });
    ++s->round;
    w->device_frames += kBlockFrames;

    AFAudioConn& rc = *s->conns[3];
    int64_t t0 = NowNs();
    auto t = rc.GetTime(dev);
    const int64_t gettime_ns = NowNs() - t0;
    Status status = t.status();
    // The device clock is the paced one: exactly one block per round.
    if (t.ok() && t.value() != static_cast<ATime>(s->round * kBlockFrames)) {
      status = Status(AfError::kBadValue, "device time off the paced clock");
    }
    Book(w, spans, OpKind::kGetTime, gettime_ns, 0, status, rc.last_corr());
    all_ok = all_ok && status.ok();

    t0 = NowNs();
    auto rec = s->acs[3]->RecordSamples(static_cast<ATime>(k * kBlockFrames), record_buf_,
                                        /*block=*/false);
    const int64_t record_ns = NowNs() - t0;
    status = rec.status();
    if (rec.ok() && rec.value().actual_bytes != kBlockFrames) {
      status = Status(AfError::kBadLength, "short record");
    }
    if (status.ok() && check && k >= kLeadBlocks) {
      // Every finished block must equal the oracle's block.
      ++checked_blocks_;
      if (record_buf_ != expected_[k % kPeriod]) {
        ++mismatched_blocks_;
        status = Status(AfError::kBadValue, "block " + std::to_string(k) + " differs from oracle");
      }
      if (live_digest_blocks_ < kPeriod && k % kPeriod == live_digest_blocks_) {
        live_digest_ = Fnv1a(live_digest_, record_buf_);
        ++live_digest_blocks_;
      }
    }
    Book(w, spans, OpKind::kRecord, record_ns, kBlockFrames, status, rc.last_corr());
    w->record_frames += status.ok() ? kBlockFrames : 0;
    all_ok = all_ok && status.ok();
    return all_ok;
  }

  std::vector<std::vector<int16_t>> blocks_;  // [player * kPeriod + i]
  std::vector<uint8_t> record_buf_;
  std::vector<std::vector<uint8_t>> expected_;
  Server live_;
  uint64_t oracle_digest_ = 0;
  uint64_t live_digest_ = kFnvBasis;
  size_t live_digest_blocks_ = 0;
  uint64_t checked_blocks_ = 0;
  uint64_t mismatched_blocks_ = 0;
  std::string expect_digest_;
};

std::unique_ptr<Workload> MakeWorkload(const Options& o) {
  if (o.workload == "rpc") {
    return std::make_unique<RealtimeWorkload>(o.seed, /*tcp=*/false);
  }
  if (o.workload == "bulk-tcp") {
    return std::make_unique<RealtimeWorkload>(o.seed, /*tcp=*/true);
  }
  if (o.workload == "mix-stream") {
    auto w = std::make_unique<MixStreamWorkload>(o.seed);
    w->set_expect_digest(o.expect_digest);
    return w;
  }
  return nullptr;
}

}  // namespace

namespace {

// --- measuring --------------------------------------------------------------------

// A measured window is split into sub-windows of about a second. A gated
// metric is the interquartile mean of its sub-window values: a host
// disturbance in a few sub-windows falls outside the middle half, and the
// two latency modes a busy host can impose (alternating every second or
// so, about 30% apart) move the result in proportion to their shares
// instead of flipping a median from one mode to the other.
using Series = std::vector<Window>;

// Closed-loop steps before any window is measured, so that caches fill and
// lazy set-up finishes first.
constexpr double kWarmupSeconds = 2;

int64_t PartNs(double seconds, size_t* nparts) {
  *nparts = static_cast<size_t>(std::max(1.0, std::round(seconds)));
  return static_cast<int64_t>(seconds * 1e9 / static_cast<double>(*nparts));
}

// Runs closed-loop steps for the given wall time.
void RunFor(Workload& wl, double seconds, Series* s) {
  size_t nparts = 0;
  const int64_t part_ns = PartNs(seconds, &nparts);
  const int64_t start = NowNs();
  for (size_t i = 0; i < nparts; ++i) {
    Window& w = s->emplace_back();
    const int64_t t0 = NowNs();
    const int64_t t1 = start + static_cast<int64_t>(i + 1) * part_ns;
    while (NowNs() < t1) {
      wl.Step(&w, nullptr);
    }
    w.wall_ns = NowNs() - t0;
  }
}

// All sub-windows as one: totals, and the pooled samples for p99.
Window Pooled(const Series& s) {
  Window all;
  for (const Window& w : s) {
    for (int k = 0; k < 3; ++k) {
      all.us[k].insert(all.us[k].end(), w.us[k].begin(), w.us[k].end());
      all.bytes[k] += w.bytes[k];
    }
    all.attempted += w.attempted;
    all.failed += w.failed;
    all.play_frames += w.play_frames;
    all.record_frames += w.record_frames;
    all.device_frames += w.device_frames;
    all.wall_ns += w.wall_ns;
  }
  return all;
}

double InterquartileMeanOver(const Series& s, const std::function<double(const Window&)>& f) {
  std::vector<double> v;
  for (const Window& w : s) {
    v.push_back(f(w));
  }
  std::sort(v.begin(), v.end());
  const size_t lo = v.size() / 4;
  const size_t hi = v.size() - lo;
  return Mean(std::vector<double>(v.begin() + static_cast<ptrdiff_t>(lo),
                                  v.begin() + static_cast<ptrdiff_t>(hi)));
}

Result<ServerStatsWire> Snapshot(Workload& wl) { return wl.control().GetServerStats(); }

// The traced window's outcome: budget rows of the benchmark's own calls.
struct TracedWindow {
  Series parts;
  std::vector<LatencyBudgetRow> rows;
  // Own span minus budget total, over calls that sent one request: the
  // library's work outside the awaited request's enqueue-to-reply.
  std::vector<double> unattributed_us;
  uint64_t identity_violations = 0;  // rows whose parts do not sum to total
  uint64_t span_violations = 0;      // rows whose total exceeds the own span
  uint64_t client_dropped = 0;
  uint64_t server_dropped = 0;
};

// The most the median call that sent one request may spend outside its
// budget row (building the request before the enqueue stamp, decoding the
// reply after the reply stamp). A budget that missed a stage of the round
// trip would leave that stage here.
constexpr double kMaxUnattributedP50Us = 2;

// Drains the trace windows after one batch of calls and keeps the budget
// rows that belong to the benchmark's own calls.
bool CollectBudget(Workload& wl, const std::vector<OwnSpan>& spans, TracedWindow* out) {
  auto window = wl.control().GetTrace(0);
  if (!window.ok()) {
    return false;
  }
  std::vector<TraceEvent> client_events;
  for (AFAudioConn* c : wl.conns()) {
    c->client_trace().Drain(&client_events);
  }
  TraceWire merged = window.take();
  MergeClientServerTrace(&merged, std::move(client_events));
  std::map<uint64_t, OwnSpan> own;
  for (const OwnSpan& s : spans) {
    own[s.corr] = s;
  }
  for (const LatencyBudgetRow& row : ComputeLatencyBudget(merged)) {
    auto it = own.find(row.corr);
    if (it == own.end()) {
      continue;  // the drain's own request, or a stats probe
    }
    const int64_t parts = row.client_queue_us + row.wire_us + row.poll_wake_us +
                          row.dispatch_us + row.mailbox_us + row.mix_us + row.egress_us;
    if (parts != row.total_us) {
      ++out->identity_violations;
    }
    // The row's total runs from the request's enqueue to its reply, both
    // inside the benchmark's own span around the call; whole-microsecond
    // stamps can stretch it by at most 1 us.
    const double gap_us = it->second.us - static_cast<double>(row.total_us);
    if (gap_us < -1.0) {
      ++out->span_violations;
    }
    if (it->second.single_chunk) {
      out->unattributed_us.push_back(gap_us);
    }
    out->rows.push_back(row);
  }
  return true;
}

// Steps in batches small enough that neither the client rings (1024
// records) nor the server rings (4096 per shard) wrap between drains.
bool RunTraced(Workload& wl, double seconds, int batch_steps, TracedWindow* out) {
  AFAudioConn& ctl = wl.control();
  auto before = Snapshot(wl);
  uint64_t client_dropped0 = 0;
  for (AFAudioConn* c : wl.conns()) {
    client_dropped0 += c->client_trace().dropped();
    c->SetClientTracing(true);
  }
  if (!before.ok() || !ctl.GetTrace(kTraceFlagEnable).ok()) {
    return false;
  }
  std::vector<TraceEvent> discard;
  for (AFAudioConn* c : wl.conns()) {
    c->client_trace().Drain(&discard);
  }
  size_t nparts = 0;
  const int64_t part_ns = PartNs(seconds, &nparts);
  const int64_t start = NowNs();
  std::vector<OwnSpan> spans;
  for (size_t part = 0; part < nparts; ++part) {
    Window& w = out->parts.emplace_back();
    const int64_t part_end = start + static_cast<int64_t>(part + 1) * part_ns;
    while (NowNs() < part_end) {
      spans.clear();
      const int64_t b0 = NowNs();
      for (int i = 0; i < batch_steps; ++i) {
        wl.Step(&w, &spans);
      }
      w.wall_ns += NowNs() - b0;
      if (!CollectBudget(wl, spans, out)) {
        return false;
      }
    }
  }
  if (!ctl.GetTrace(kTraceFlagDisable).ok()) {
    return false;
  }
  uint64_t client_dropped1 = 0;
  for (AFAudioConn* c : wl.conns()) {
    c->SetClientTracing(false);
    c->client_trace().Drain(&discard);
    client_dropped1 += c->client_trace().dropped();
  }
  auto after = Snapshot(wl);
  if (!after.ok()) {
    return false;
  }
  out->client_dropped = client_dropped1 - client_dropped0;
  const ServerStatsWire d = DiffServerStats(before.value(), after.value());
  out->server_dropped = ServerCounter(d, "trace_dropped_events").value_or(0);
  return true;
}

// Direct protocol codec timing over the workload's request mix, in ns
// per request.
bool TimeCodec(Workload& wl, double* encode_ns, double* decode_ns) {
  const std::vector<ReqSpec> specs = wl.SampleRequests();
  std::vector<std::vector<uint8_t>> encoded;
  for (const ReqSpec& spec : specs) {
    WireWriter w;
    EncodeSpec(spec, w);
    encoded.push_back(w.Take());
  }
  constexpr int kReps = 200;
  WireWriter w;
  int64_t t0 = NowNs();
  for (int rep = 0; rep < kReps; ++rep) {
    w.Reset(size_t{1} << 24);
    for (const ReqSpec& spec : specs) {
      EncodeSpec(spec, w);
    }
  }
  const double n = static_cast<double>(kReps) * static_cast<double>(specs.size());
  *encode_ns = static_cast<double>(NowNs() - t0) / n;
  bool ok = true;
  t0 = NowNs();
  for (int rep = 0; rep < kReps; ++rep) {
    for (const auto& bytes : encoded) {
      WireReader r(bytes);
      RequestHeader h{};
      ok = ok && DecodeRequestHeader(r, &h);
      switch (h.opcode) {
        case Opcode::kPlaySamples: {
          PlaySamplesReq req;
          ok = ok && PlaySamplesReq::Decode(r, &req);
          break;
        }
        case Opcode::kRecordSamples: {
          RecordSamplesReq req;
          ok = ok && RecordSamplesReq::Decode(r, &req);
          break;
        }
        default: {
          GetTimeReq req;
          ok = ok && GetTimeReq::Decode(r, &req);
          break;
        }
      }
    }
  }
  *decode_ns = static_cast<double>(NowNs() - t0) / n;
  return ok;
}

// Transfer sizes of the workload's mix: the request that carries play
// audio, the reply that carries record audio, the 32-byte GetTime reply.
std::vector<size_t> TransferSizes(Workload& wl) {
  std::vector<size_t> sizes;
  for (const ReqSpec& spec : wl.SampleRequests()) {
    if (const auto* p = std::get_if<PlaySamplesReq>(&spec)) {
      WireWriter w;
      EncodeSpec(*p, w);
      sizes.push_back(w.size());
    } else if (const auto* r = std::get_if<RecordSamplesReq>(&spec)) {
      sizes.push_back(32 + Pad4(r->nbytes));
    } else {
      sizes.push_back(32);
    }
  }
  return sizes;
}

// Median FdStream round trip (write n, echo thread reads n and writes them
// back) at the workload's transfer sizes, over a socketpair or TCP
// loopback as the workload's connections are.
bool TimeEcho(Workload& wl, double* median_us) {
  const std::vector<size_t> sizes = TransferSizes(wl);
  FdStream near;
  FdStream far;
  if (wl.EchoOverTcp()) {
    auto listener = Listener::ListenTcp(0);
    if (!listener.ok()) {
      return false;
    }
    sockaddr_in addr{};
    socklen_t len = sizeof(addr);
    if (getsockname(listener.value().fd(), reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
      return false;
    }
    auto connected = ConnectTcp("127.0.0.1", ntohs(addr.sin_port));
    if (!connected.ok()) {
      return false;
    }
    auto accepted = listener.value().Accept();
    if (!accepted.ok()) {
      return false;
    }
    near = connected.take();
    far = std::move(accepted.value().first);
    near.SetNoDelay(true);
    far.SetNoDelay(true);
  } else {
    auto pair = CreateStreamPair();
    if (!pair.ok()) {
      return false;
    }
    near = std::move(pair.value().first);
    far = std::move(pair.value().second);
  }
  constexpr size_t kEchoes = 3000;
  std::atomic<bool> echo_ok{true};
  std::thread echo([&] {
    std::vector<uint8_t> buf(65536);
    for (size_t i = 0; i < kEchoes; ++i) {
      const size_t n = sizes[i % sizes.size()];
      if (!far.ReadAll(buf.data(), n).ok() || !far.WriteAll(buf.data(), n).ok()) {
        echo_ok = false;
        return;
      }
    }
  });
  std::vector<uint8_t> out(65536, 0x5a);
  std::vector<uint8_t> in(65536);
  std::vector<double> us;
  bool ok = true;
  for (size_t i = 0; i < kEchoes && ok; ++i) {
    const size_t n = sizes[i % sizes.size()];
    const int64_t t0 = NowNs();
    ok = near.WriteAll(out.data(), n).ok() && near.ReadAll(in.data(), n).ok();
    us.push_back(static_cast<double>(NowNs() - t0) / 1000.0);
  }
  if (!ok) {
    near.Shutdown();
  }
  echo.join();
  *median_us = Percentile(us, 0.5);
  return ok && echo_ok;
}

// Direct DSP kernel timing on the workload's lin16 payload blocks: the
// lin16 -> mu-law conversion and the fused gain + mix into a mu-law block,
// the two stages every mix-stream play runs. ns per frame.
void TimeDsp(const std::vector<std::vector<int16_t>>& blocks, int gain_db,
             double* convert_ns, double* gain_mix_ns) {
  constexpr int kReps = 300;
  const size_t frames = blocks.front().size();
  std::vector<std::vector<uint8_t>> mulaw(blocks.size(), std::vector<uint8_t>(frames));
  int64_t t0 = NowNs();
  for (int rep = 0; rep < kReps; ++rep) {
    for (size_t b = 0; b < blocks.size(); ++b) {
      EncodeMulawBlock(blocks[b], mulaw[b]);
    }
  }
  const double n = static_cast<double>(kReps) * static_cast<double>(blocks.size() * frames);
  *convert_ns = static_cast<double>(NowNs() - t0) / n;
  const GainTable& gain = MulawGainTable(gain_db);
  std::vector<uint8_t> dst(frames, kMulawSilence);
  t0 = NowNs();
  for (int rep = 0; rep < kReps; ++rep) {
    for (size_t b = 0; b < blocks.size(); ++b) {
      MixMulawGainBlock(dst, mulaw[b], gain);
    }
  }
  *gain_mix_ns = static_cast<double>(NowNs() - t0) / n;
}

// --- reporting ----------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintLatencies(const Window& w) {
  for (int k = 0; k < 3; ++k) {
    std::printf("%s_us p50=%.3f p95=%.3f p99=%.3f n=%zu\n", kOpNames[k],
                Percentile(w.us[k], 0.50), Percentile(w.us[k], 0.95),
                Percentile(w.us[k], 0.99), w.us[k].size());
  }
}

// The six gated latencies: per sub-window percentiles, interquartile mean
// over the sub-windows.
std::vector<Metric> LatencyMetrics(const Series& s) {
  const auto at = [&s](OpKind k, double q) {
    return InterquartileMeanOver(s, [k, q](const Window& w) {
      return Percentile(w.us[static_cast<int>(k)], q);
    });
  };
  return {{"gettime_p50_us", at(OpKind::kGetTime, 0.50), "us"},
          {"gettime_p95_us", at(OpKind::kGetTime, 0.95), "us"},
          {"play_p50_us", at(OpKind::kPlay, 0.50), "us"},
          {"play_p95_us", at(OpKind::kPlay, 0.95), "us"},
          {"record_p50_us", at(OpKind::kRecord, 0.50), "us"},
          {"record_p95_us", at(OpKind::kRecord, 0.95), "us"}};
}

// Frames lost to the past, to underruns and to record overruns, over the
// frames the window's plays and records scheduled.
double SamplesLostFrac(const ServerStatsWire& d, const Window& w) {
  const uint64_t lost = DeviceCounter(d, 0, "play_discarded_frames").value_or(0) +
                        DeviceCounter(d, 0, "play_underrun_samples").value_or(0) +
                        DeviceCounter(d, 0, "record_overrun_frames").value_or(0);
  const uint64_t scheduled = w.play_frames + w.record_frames;
  return scheduled == 0 ? 0 : static_cast<double>(lost) / static_cast<double>(scheduled);
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) {
    return "0";
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("metric %s %s %s\n", m.name.c_str(), JsonNumber(m.value).c_str(),
                m.unit.c_str());
  }
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
           JsonNumber(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

// Per-layer metrics from server counters (by name, as deltas d over the
// untraced window; gauges from the closing snapshot) and server CPU time.
void AddCounterMetrics(const ServerStatsWire& d, const ServerStatsWire& after, const Window& w,
                       double server_cpu_us, std::vector<Metric>* out) {
  const auto counter = [&](const char* name) { return ServerCounter(d, name); };
  const auto ratio = [](std::optional<uint64_t> a, std::optional<uint64_t> b)
      -> std::optional<double> {
    if (!a || !b) {
      return std::nullopt;
    }
    return *b == 0 ? 0.0 : static_cast<double>(*a) / static_cast<double>(*b);
  };
  const auto add = [&](const char* name, std::optional<double> v, const char* unit) {
    if (v) {
      out->push_back({name, *v, unit});
    } else {
      std::printf("absent %s\n", name);
    }
  };
  const auto requests = counter("requests_dispatched");
  add("server.loop_iters_per_req", ratio(counter("loop_iterations"), requests), "count");
  add("server.flushes_per_req", ratio(counter("writev_calls"), requests), "count");
  add("server.iovecs_per_flush", ratio(counter("writev_iovecs"), counter("writev_calls")),
      "count");
  add("server.bytes_out_per_req", ratio(counter("bytes_out"), requests), "B");
  add("proc.server_cpu_us_per_req",
      requests && *requests > 0 ? std::optional<double>(server_cpu_us / *requests)
                                : std::nullopt,
      "us");
  add("proc.server_cpu_per_audio_s",
      w.play_frames > 0
          ? std::optional<double>(server_cpu_us / 1e6 /
                                  (static_cast<double>(w.play_frames) / 8000.0))
          : std::nullopt,
      "s/s");
  add("mailbox.posted_per_req", ratio(counter("cross_shard_posted"), requests), "count");
  const auto as_double = [](std::optional<uint64_t> v) -> std::optional<double> {
    return v ? std::optional<double>(static_cast<double>(*v)) : std::nullopt;
  };
  add("mailbox.spills", as_double(counter("mailbox_spills")), "count");
  add("mailbox.depth_hw", as_double(ServerCounter(after, "mailbox_depth_hw")), "count");
  add("device.fused_gain_frac",
      ratio(DeviceCounter(d, 0, "gain_fused_writes"), DeviceCounter(d, 0, "mixed_writes")),
      "ratio");
  add("device.discarded_frames", as_double(DeviceCounter(d, 0, "play_discarded_frames")),
      "count");
  add("device.underrun_samples", as_double(DeviceCounter(d, 0, "play_underrun_samples")),
      "count");
  add("device.record_overruns", as_double(DeviceCounter(d, 0, "record_overruns")), "count");
  add("device.silence_filled_frames", as_double(DeviceCounter(d, 0, "silence_filled_frames")),
      "count");
}

// Per-layer metrics from the traced window's latency budget rows. The
// components are means over all rows; mailbox dwell and remote execution
// are means over the cross-shard rows only (0 when a workload has none).
void AddBudgetMetrics(const TracedWindow& tw, std::vector<Metric>* out) {
  struct Part {
    const char* name;
    int64_t LatencyBudgetRow::*field;
    bool cross_only;
  };
  static constexpr Part kParts[] = {
      {"client.queue_us", &LatencyBudgetRow::client_queue_us, false},
      {"transport.wire_us", &LatencyBudgetRow::wire_us, false},
      {"server.poll_wake_us", &LatencyBudgetRow::poll_wake_us, false},
      {"server.dispatch_us", &LatencyBudgetRow::dispatch_us, false},
      {"server.egress_us", &LatencyBudgetRow::egress_us, false},
      {"mailbox.dwell_us", &LatencyBudgetRow::mailbox_us, true},
      {"device.remote_exec_us", &LatencyBudgetRow::mix_us, true},
  };
  for (const Part& part : kParts) {
    std::vector<double> v;
    for (const LatencyBudgetRow& r : tw.rows) {
      if (!part.cross_only || r.cross_shard) {
        v.push_back(static_cast<double>(r.*part.field));
      }
    }
    out->push_back({part.name, Mean(v), "us"});
  }
  out->push_back({"trace.budget_rows", static_cast<double>(tw.rows.size()), "count"});
  out->push_back({"trace.unattributed_us", Percentile(tw.unattributed_us, 0.5), "us"});
  out->push_back({"trace.dropped_events",
                  static_cast<double>(tw.client_dropped + tw.server_dropped), "count"});
}

bool ParseArgs(int argc, char** argv, Options* o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      o->workload = val;
    } else if (key == "--seed") {
      o->seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      o->seconds = std::atof(val.c_str());
    } else if (key == "--trace") {
      o->trace = std::atoi(val.c_str());
    } else if (key == "--expect-digest") {
      o->expect_digest = val;
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && o->seconds > 0 && (o->trace == 0 || o->trace == 1);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!ParseArgs(argc, argv, &opt) || MakeWorkload(opt) == nullptr) {
    std::fprintf(stderr,
                 "usage: afperf --workload rpc|mix-stream|bulk-tcp --seed N --seconds S "
                 "--trace 0|1 [--expect-digest HEX]\n");
    return 2;
  }
  // The generator and shard 0 share one fixed CPU, so a single-shard
  // round trip prices the program's work and two same-CPU switches instead
  // of wherever the host scheduler puts each thread. Every thread created
  // from here on inherits the pin; mix-stream moves shard 1 to the second
  // CPU.
  g_cpus = AllowedCpus();
  if (!PinCallingThread(g_cpus.first)) {
    std::fprintf(stderr, "afperf: cannot pin to cpu %d; running unpinned\n", g_cpus.first);
  }
  std::printf("# workload=%s seed=%" PRIu64 " seconds=%g trace=%d warmup=%g simd=%s cpus=%d,%d\n",
              opt.workload.c_str(), opt.seed, opt.seconds, opt.trace, kWarmupSeconds,
              SimdLevelName(ActiveSimdLevel()), g_cpus.first, g_cpus.second);

  // Set-up: server start, connections and ACs, timed on fresh instances
  // (each torn down again) before the measured one starts, in the state a
  // newly started process sets up in. Once a workload has run, set-up reads
  // 2x slower and varies with what the run left in the caches. One sample
  // is the mean of kSetupsPerSample set-ups; setup_s is the median sample.
  constexpr int kSetupSamples = 21;
  constexpr int kSetupsPerSample = 10;
  std::vector<double> setup_s;
  for (int i = 0; i < (opt.trace == 0 ? kSetupSamples : 0); ++i) {
    double sum_s = 0;
    for (int j = 0; j < kSetupsPerSample; ++j) {
      std::unique_ptr<Workload> fresh = MakeWorkload(opt);
      const int64_t t0 = NowNs();
      if (!fresh->Setup()) {
        std::fprintf(stderr, "afperf: set-up failed\n");
        return 1;
      }
      sum_s += static_cast<double>(NowNs() - t0) / 1e9;
    }
    setup_s.push_back(sum_s / kSetupsPerSample);
  }
  std::unique_ptr<Workload> wl = MakeWorkload(opt);
  if (!wl->Setup()) {
    std::fprintf(stderr, "afperf: set-up failed\n");
    return 1;
  }
  if (!wl->Prime()) {
    std::fprintf(stderr, "afperf: priming failed\n");
    return 1;
  }

  Series warm;
  RunFor(*wl, kWarmupSeconds, &warm);

  std::vector<Metric> metrics;
  const Window warm_all = Pooled(warm);
  uint64_t attempted = warm_all.attempted;
  uint64_t failed = warm_all.failed;
  bool correct = true;

  auto before = Snapshot(*wl);
  const int64_t gen_cpu0 = ThreadCpuNs();
  const int64_t proc_cpu0 = ProcessCpuNs();
  Series series;
  RunFor(*wl, opt.trace == 0 ? opt.seconds : opt.seconds / 2, &series);
  const int64_t proc_cpu = ProcessCpuNs() - proc_cpu0;
  const int64_t gen_cpu = ThreadCpuNs() - gen_cpu0;
  auto after = Snapshot(*wl);
  if (!before.ok() || !after.ok()) {
    std::fprintf(stderr, "afperf: GetServerStats failed\n");
    return 1;
  }
  const ServerStatsWire d = DiffServerStats(before.value(), after.value());
  const Window w = Pooled(series);
  attempted += w.attempted;
  failed += w.failed;
  PrintLatencies(w);
  std::printf("samples_lost_frac %s\n", JsonNumber(SamplesLostFrac(d, w)).c_str());

  if (opt.trace == 0) {
    metrics.push_back({"setup_s", Percentile(setup_s, 0.5), "s"});
    const auto rate = [&series](const std::function<double(const Window&)>& amount) {
      return InterquartileMeanOver(series, [&amount](const Window& part) {
        return amount(part) / (static_cast<double>(part.wall_ns) / 1e9);
      });
    };
    metrics.push_back(
        {"req_per_s", rate([](const Window& p) { return static_cast<double>(p.ops()); }), "1/s"});
    for (Metric& m : LatencyMetrics(series)) {
      metrics.push_back(m);
    }
    metrics.push_back({"play_MBps", rate([](const Window& p) {
                         return static_cast<double>(p.bytes[static_cast<int>(OpKind::kPlay)]) / 1e6;
                       }),
                       "MB/s"});
    metrics.push_back({"record_MBps", rate([](const Window& p) {
                         return static_cast<double>(p.bytes[static_cast<int>(OpKind::kRecord)]) /
                                1e6;
                       }),
                       "MB/s"});
    // Device seconds the paced clock advanced per wall second. It is not a
    // gated metric: every mix-stream round is five calls and one block, so
    // it is a fixed multiple of req_per_s.
    if (w.device_frames > 0) {
      std::printf("audio_rt_x %s x\n", JsonNumber(rate([](const Window& p) {
                                          return static_cast<double>(p.device_frames) / 8000.0;
                                        })).c_str());
    }
  } else {
    AddCounterMetrics(d, after.value(), w, static_cast<double>(proc_cpu - gen_cpu) / 1000.0,
                      &metrics);

    // The traced window: the latency budget of the benchmark's own calls.
    TracedWindow tw;
    const int batch = opt.workload == "rpc" ? 128 : (opt.workload == "bulk-tcp" ? 48 : 24);
    if (!RunTraced(*wl, opt.seconds / 2, batch, &tw)) {
      std::fprintf(stderr, "afperf: traced window failed\n");
      return 1;
    }
    const Window traced_all = Pooled(tw.parts);
    attempted += traced_all.attempted;
    failed += traced_all.failed;
    std::printf("traced:\n");
    PrintLatencies(traced_all);
    AddBudgetMetrics(tw, &metrics);
    const std::vector<Metric> untraced = LatencyMetrics(series);
    const std::vector<Metric> traced = LatencyMetrics(tw.parts);
    for (size_t i = 0; i < untraced.size(); ++i) {
      metrics.push_back({"trace.overhead_pct." + untraced[i].name,
                         untraced[i].value > 0
                             ? (traced[i].value - untraced[i].value) / untraced[i].value * 100
                             : 0,
                         "%"});
    }
    // Budget rows against the measured totals: components sum to the row's
    // total, the total fits inside the benchmark's own span, and on calls
    // that sent one request the span is no more than library work longer.
    const double unattributed_p50 = Percentile(tw.unattributed_us, 0.5);
    std::printf("budget rows=%zu parts_not_total=%" PRIu64 " total_over_span=%" PRIu64
                " unattributed_us p50=%.3f p99=%.3f max=%.3f n=%zu\n",
                tw.rows.size(), tw.identity_violations, tw.span_violations, unattributed_p50,
                Percentile(tw.unattributed_us, 0.99), Percentile(tw.unattributed_us, 1.0),
                tw.unattributed_us.size());
    if (tw.rows.empty() || tw.unattributed_us.empty() || tw.identity_violations != 0 ||
        tw.span_violations != 0 || unattributed_p50 > kMaxUnattributedP50Us) {
      std::fprintf(stderr, "afperf: latency budget does not match the measured totals\n");
      correct = false;
    }

    // Direct timings at the workload's sizes.
    double encode_ns = 0;
    double decode_ns = 0;
    if (!TimeCodec(*wl, &encode_ns, &decode_ns)) {
      std::fprintf(stderr, "afperf: request decode failed\n");
      correct = false;
    }
    metrics.push_back({"proto.encode_ns", encode_ns, "ns"});
    metrics.push_back({"proto.decode_ns", decode_ns, "ns"});
    double convert_ns = 0;
    double gain_mix_ns = 0;
    if (const auto* blocks = wl->Lin16Blocks()) {
      TimeDsp(*blocks, wl->PlayGainDb(), &convert_ns, &gain_mix_ns);
    }
    metrics.push_back({"dsp.convert_ns_per_frame", convert_ns, "ns"});
    metrics.push_back({"dsp.gain_mix_ns_per_frame", gain_mix_ns, "ns"});
    double echo_us = 0;
    if (!TimeEcho(*wl, &echo_us)) {
      std::fprintf(stderr, "afperf: transport echo failed\n");
      correct = false;
    }
    metrics.push_back({"transport.echo_us", echo_us, "us"});
  }

  const uint64_t check_failures = wl->FinalCheckFailures();
  wl->PrintDetails();
  correct = correct && failed == 0 && check_failures == 0;
  std::printf("ops_failed_frac %s (failed=%" PRIu64 " attempted=%" PRIu64 ")\n",
              JsonNumber(attempted == 0 ? 0 : static_cast<double>(failed) /
                                                  static_cast<double>(attempted))
                  .c_str(),
              failed, attempted);
  wl.reset();
  PrintResult(correct, attempted, failed + check_failures, metrics);
  return correct ? 0 : 1;
}
