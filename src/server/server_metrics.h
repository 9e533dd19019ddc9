// The server-wide metrics spine: every counter and histogram the loop,
// dispatcher, and transport layer record, in one struct with stable
// addresses so hot-path call sites are a single relaxed atomic add away.
//
// Which members go on the wire, in what order and as what kind is declared
// once, in AF_SERVER_METRICS (proto/stats.h); ForEachServerSlot walks that
// declaration over the members named there.
#ifndef AF_SERVER_SERVER_METRICS_H_
#define AF_SERVER_SERVER_METRICS_H_

#include <array>
#include <type_traits>

#include "common/metrics.h"
#include "proto/opcodes.h"
#include "proto/stats.h"

namespace af {

// One slot per wire error code (1..13; 0 and the client-local 14 stay
// unused but keep indexing trivial).
constexpr size_t kErrorCodeSlots = 16;

struct ServerMetrics {
  // Dispatch.
  Counter requests_dispatched;
  Counter events_sent;
  Counter errors_sent;
  Counter bytes_in;    // request bytes of dispatched requests
  Counter bytes_out;   // reply/error/event bytes flushed to sockets
  std::array<Counter, kErrorCodeSlots> errors_by_code;
  std::array<Counter, kMaxOpcode + 1> op_count;      // indexed by opcode
  std::array<Histogram, kMaxOpcode + 1> op_micros;   // service time per opcode

  // Transport / server loop.
  Counter clients_accepted;
  Counter clients_reaped;
  Counter loop_iterations;
  Counter highwater_hits;   // input flood guard engaged
  Counter suspends;         // requests parked by flow control
  Counter resumes;          // parked requests re-dispatched
  Counter faults_applied;   // fault-injection schedule applications
  Counter trace_dropped_events;  // trace-ring records overwritten undrained
  Counter writev_calls;     // egress flush syscalls (writev, or write fallback)
  Counter writev_iovecs;    // iovec entries submitted across those calls
  Histogram poll_wake_micros;  // readiness wake-up past the requested timeout

  // Loop-state gauges.
  Gauge poller_backend;  // 0 = poll, 1 = epoll
  Gauge watched_fds;     // current readiness interest-set size

  // Cross-shard traffic (PR 6). The counters stay zero on a 1-shard server.
  Counter cross_shard_posted;   // messages posted into other shards' mailboxes
  Counter cross_shard_drained;  // messages drained from this shard's mailboxes
  Counter cross_shard_events;   // AEvents forwarded to clients on other shards
  Counter cross_shard_plays;    // device requests this shard forwarded to the owner
  Counter mailbox_wakes;        // eventfd wake-ups observed by the loop
  Counter mailbox_spills;       // messages that overflowed a ring into the spill
  Gauge mailbox_depth_hw;       // most messages one mailbox drain returned
  Gauge shards;                 // shard count of the server

  // Replication / failover (PR 8). The server-wide replication values live
  // in ServerScopeMetrics.
  Counter oplog_records;        // op-log records emitted toward the backup
  Counter resyncs;              // ResyncTime requests served
};

// The server-scope slots' values, gathered once per snapshot.
struct ServerScopeMetrics {
  uint64_t oplog_acked = 0;         // the backup's cumulative ack watermark
  uint64_t repl_overflows = 0;      // times the unacked window overflowed
  uint64_t failovers_promoted = 0;  // 1 once this server promoted itself
};

inline uint64_t MetricValue(const Counter& c) { return c.Value(); }
inline uint64_t MetricValue(const Gauge& g) { return static_cast<uint64_t>(g.Value()); }

// Calls f(slot, name, member) for every declared server slot of scope S,
// in wire order, where member is source.<name>: source is a ServerMetrics
// for kShard and a ServerScopeMetrics for kServer.
template <MetricScope S, typename Source, typename F>
void ForEachServerSlot(const Source& source, F&& f) {
  size_t slot = 0;
#define AF_VISIT_SLOT(name, kind, scope)                                         \
  if constexpr (MetricScope::scope == S) {                                       \
    static_assert((MetricKind::kind == MetricKind::kCounter) ==                  \
                      std::is_same_v<std::remove_cvref_t<decltype(source.name)>, \
                                     Counter>,                                   \
                  #name ": declared kCounter exactly when a Counter member");     \
    f(slot, #name, source.name);                                                 \
  }                                                                              \
  ++slot;
  AF_SERVER_METRICS(AF_VISIT_SLOT)
#undef AF_VISIT_SLOT
}

// The number of shard-scope counters (the flight recorder's list).
constexpr size_t kNumShardCounters = [] {
  size_t n = 0;
  for (const MetricDecl& d : kServerMetrics) {
    n += d.kind == MetricKind::kCounter && d.scope == MetricScope::kShard ? 1 : 0;
  }
  return n;
}();

}  // namespace af

#endif  // AF_SERVER_SERVER_METRICS_H_
