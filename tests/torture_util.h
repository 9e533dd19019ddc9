// Shared plumbing for the protocol-torture suites: a deterministic
// "server drained" barrier (no sleeps anywhere in the hostile-network
// tests), raw-connection setup helpers, and environment knobs that let CI
// dial the soak depth up without editing code.
#ifndef AF_TESTS_TORTURE_UTIL_H_
#define AF_TESTS_TORTURE_UTIL_H_

#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string>
#include <vector>

#include "clients/server_runner.h"
#include "server/shard.h"
#include "proto/requests.h"
#include "proto/setup.h"

namespace af {
namespace torture {

// Sample field values for the canonical corpus, by body type: the bodies
// that carry data, strings or a non-zero id get one; every other body is
// encoded with its defaults.
inline void SampleValues(PlaySamplesReq* q) {
  static const uint8_t sample_data[32] = {0x7F};
  q->nbytes = sizeof(sample_data);
  q->data = sample_data;
}
inline void SampleValues(RecordSamplesReq* q) {
  q->nbytes = 64;
  q->flags = kRecordNoBlock;
}
inline void SampleValues(ResyncTimeReq* q) { q->client_watermark = 48000; }
inline void SampleValues(DialPhoneReq* q) { q->number = "5551212"; }
inline void SampleValues(ChangeHostsReq* q) { q->address = {127, 0, 0, 1}; }
inline void SampleValues(InternAtomReq* q) { q->name = "TORTURE"; }
inline void SampleValues(GetAtomNameReq* q) { q->atom = 1; }
inline void SampleValues(ChangePropertyReq* q) {
  q->property = 1;
  q->type = 1;
  q->data = {'t', 'o', 'r', 't', 'u', 'r', 'e', '!'};
}
inline void SampleValues(QueryExtensionReq* q) { q->name = "NOT-AN-EXTENSION"; }
template <typename Body>
void SampleValues(Body*) {}

// A canonical, well-formed request for every opcode, built from the opcode
// table. The torture sweep cuts these at every byte boundary, and the
// decoder test round-trips each through the wire decoder; the wire golden
// test pins the bytes in both orders.
inline std::vector<uint8_t> CanonicalRequest(Opcode op, WireOrder order = HostWireOrder()) {
  WireWriter w(order);
  const size_t header = BeginRequest(w, op);
  VisitRequestBody(op, [&](auto body) {
    SampleValues(&body);
    body.Encode(w);
  });
  EndRequest(w, header);
  return w.Take();
}

// Deterministic server-drained barrier. Each pass drives every shard
// through at least one full poll/dispatch iteration: a RunOnLoop round
// trip for shard 0, plus a posted no-op awaited on every other shard, so a
// connection whose socket holds pending bytes (or an EOF, or a borrow
// hand-back sitting in a mailbox) makes at least one hop of progress per
// pass even when the host's scheduler starves the shard threads; polling
// the client count through it converges without a single sleep. Returns
// the last observed count (== expected on success; callers print the
// fault trace on mismatch).
inline size_t DrainToClientCount(ServerRunner& runner, size_t expected,
                                 int max_iterations = 20000) {
  auto& srv = runner.server();
  const size_t shards = srv.num_shards();
  size_t count = static_cast<size_t>(-1);
  for (int i = 0; i < max_iterations; ++i) {
    runner.RunOnLoop([&] { count = srv.client_count(); });
    if (count == expected) {
      break;
    }
    if (shards > 1) {
      std::mutex mu;
      std::condition_variable cv;
      size_t done = 0;
      for (uint32_t s = 1; s < shards; ++s) {
        srv.PostToShard(s, [&] {
          std::lock_guard<std::mutex> lock(mu);
          ++done;
          cv.notify_one();
        });
      }
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return done == shards - 1; });
    }
  }
  if (count != expected && std::getenv("AF_TORTURE_DEBUG") != nullptr) {
    for (size_t s = 0; s < shards; ++s) {
      Shard* sh = srv.shard(s);
      std::fprintf(stderr,
                   "shard %zu: clients=%zu iters=%llu posted=%llu drained=%llu "
                   "wakes=%llu spills=%llu\n",
                   s, sh->client_count(),
                   (unsigned long long)sh->metrics().loop_iterations.Value(),
                   (unsigned long long)sh->metrics().cross_shard_posted.Value(),
                   (unsigned long long)sh->metrics().cross_shard_drained.Value(),
                   (unsigned long long)sh->metrics().mailbox_wakes.Value(),
                   (unsigned long long)sh->mailbox_spills());
    }
  }
  return count;
}

// Writes a setup request on a raw (library-bypassing) stream and consumes
// the success reply. Returns false on any transport or decode failure.
inline bool RawSetup(FdStream& raw) {
  SetupRequest setup;
  const auto bytes = setup.Encode();
  if (!raw.WriteAll(bytes.data(), bytes.size()).ok()) {
    return false;
  }
  uint8_t fixed[SetupReply::kFixedBytes];
  if (!raw.ReadAll(fixed, sizeof(fixed)).ok()) {
    return false;
  }
  bool success = false;
  uint32_t additional = 0;
  if (!SetupReply::DecodeFixed(fixed, HostWireOrder(), &success, &additional) || !success) {
    return false;
  }
  std::vector<uint8_t> rest(additional * 4u);
  return raw.ReadAll(rest.data(), rest.size()).ok();
}

// Soak depth knobs: scripts/ci.sh raises AF_TORTURE_ROUNDS for the
// sanitizer soak; AF_TORTURE_SEED replays a specific failing walk.
inline int EnvInt(const char* name, int fallback) {
  const char* v = std::getenv(name);
  return (v != nullptr && *v != '\0') ? std::atoi(v) : fallback;
}

}  // namespace torture
}  // namespace af

#endif  // AF_TESTS_TORTURE_UTIL_H_
