// GetServerStats: the wire form of the server's metrics spine.
//
// The reply's extra data is a versioned, length-prefixed block (layout in
// PROTOCOL.md). Every array is prefixed with its element count, and
// decoders read the counts from the wire rather than assuming this build's
// constants — that is the versioning rule: new counters append to the end
// of a count-prefixed array, old readers simply show fewer rows, new
// readers of old servers see shorter arrays. The version number bumps only
// on an incompatible relayout.
//
// Encoding and decoding allocate freely; stats snapshots are not on the
// play/record hot path.
#ifndef AF_PROTO_STATS_H_
#define AF_PROTO_STATS_H_

#include <cstdint>
#include <iterator>
#include <span>
#include <string_view>
#include <vector>

#include "proto/wire.h"

namespace af {

constexpr uint32_t kServerStatsVersion = 1;

// The metrics declaration: every positional server slot and every device
// slot, once, in wire order, as X(name, kind, scope). The name is the wire
// name and the name of the member that holds the value (ServerMetrics or
// ServerScopeMetrics for server slots, DeviceMetrics for device slots);
// the server's fill order, aggregation and text dump, the flight
// recorder's counter list and every reader's kinds derive from it.
//
// Kinds:
//   kCounter    monotonic count: diffs subtract, the aggregate sums shards.
//   kGauge      sample: kept absolute, the aggregate sums shards.
//   kHighWater  sample: kept absolute, the aggregate takes the shard max;
//               also used for values every shard holds alike (the poll
//               backend, the shard count).
// Scopes:
//   kShard      one value per shard, in every shard slice.
//   kServer     one value per server, filled once into the aggregate and
//               left at zero in shard slices.
//   kDevice     one value per device.
//
// Append only: a new slot goes at the end of its list; moving one or
// changing its kind is a relayout and bumps kServerStatsVersion.
#define AF_SERVER_METRICS(X)                  \
  X(requests_dispatched, kCounter, kShard)    \
  X(events_sent, kCounter, kShard)            \
  X(errors_sent, kCounter, kShard)            \
  X(clients_accepted, kCounter, kShard)       \
  X(clients_reaped, kCounter, kShard)         \
  X(loop_iterations, kCounter, kShard)        \
  X(bytes_in, kCounter, kShard)               \
  X(bytes_out, kCounter, kShard)              \
  X(highwater_hits, kCounter, kShard)         \
  X(suspends, kCounter, kShard)               \
  X(resumes, kCounter, kShard)                \
  X(faults_applied, kCounter, kShard)         \
  X(trace_dropped_events, kCounter, kShard)   \
  X(writev_calls, kCounter, kShard)           \
  X(writev_iovecs, kCounter, kShard)          \
  X(poller_backend, kHighWater, kShard)       \
  X(watched_fds, kGauge, kShard)              \
  X(cross_shard_posted, kCounter, kShard)     \
  X(cross_shard_drained, kCounter, kShard)    \
  X(cross_shard_events, kCounter, kShard)     \
  X(cross_shard_plays, kCounter, kShard)      \
  X(mailbox_wakes, kCounter, kShard)          \
  X(mailbox_spills, kCounter, kShard)         \
  X(mailbox_depth_hw, kHighWater, kShard)     \
  X(shards, kHighWater, kShard)               \
  X(oplog_records, kCounter, kShard)          \
  X(resyncs, kCounter, kShard)                \
  X(oplog_acked, kGauge, kServer)             \
  X(repl_overflows, kGauge, kServer)          \
  X(failovers_promoted, kGauge, kServer)

#define AF_DEVICE_METRICS(X)                     \
  X(play_underruns, kCounter, kDevice)           \
  X(play_underrun_samples, kCounter, kDevice)    \
  X(record_overruns, kCounter, kDevice)          \
  X(record_overrun_frames, kCounter, kDevice)    \
  X(silence_filled_frames, kCounter, kDevice)    \
  X(preempt_writes, kCounter, kDevice)           \
  X(mixed_writes, kCounter, kDevice)             \
  X(passthrough_plays, kCounter, kDevice)        \
  X(converted_plays, kCounter, kDevice)          \
  X(updates, kCounter, kDevice)                  \
  X(play_discarded_frames, kCounter, kDevice)    \
  X(mix_shared_writes, kCounter, kDevice)        \
  X(preempt_clobber_writes, kCounter, kDevice)   \
  X(mix_fanin_hw, kHighWater, kDevice)           \
  X(gain_fused_writes, kCounter, kDevice)

enum class MetricKind : uint8_t { kCounter, kGauge, kHighWater };
enum class MetricScope : uint8_t { kShard, kServer, kDevice };

struct MetricDecl {
  const char* name;
  MetricKind kind;
  MetricScope scope;
};

#define AF_METRIC_DECL(name, kind, scope) \
  MetricDecl{#name, MetricKind::kind, MetricScope::scope},
#define AF_METRIC_NAME(name, kind, scope) #name,
inline constexpr MetricDecl kServerMetrics[] = {AF_SERVER_METRICS(AF_METRIC_DECL)};
inline constexpr MetricDecl kDeviceMetrics[] = {AF_DEVICE_METRICS(AF_METRIC_DECL)};
// The name columns, as plain arrays for readers that label positions.
inline constexpr const char* kServerCounterNames[] = {AF_SERVER_METRICS(AF_METRIC_NAME)};
inline constexpr const char* kDeviceCounterNames[] = {AF_DEVICE_METRICS(AF_METRIC_NAME)};
#undef AF_METRIC_DECL
#undef AF_METRIC_NAME

constexpr size_t kNumServerCounters = std::size(kServerCounterNames);
constexpr size_t kNumDeviceCounters = std::size(kDeviceCounterNames);

// True when slot i of a counters array carries a monotonic count. A slot
// past this build's declaration (a newer server appended it) counts as
// monotonic.
constexpr bool IsCounterSlot(std::span<const MetricDecl> decls, size_t i) {
  return i >= decls.size() || decls[i].kind == MetricKind::kCounter;
}

// --- reading a snapshot by name ----------------------------------------------
//
//   SlotValue(stats.counters, ServerSlot("requests_dispatched"))
//   SlotValue(device.counters, DeviceSlot("mixed_writes"))
//
// The slot lookups are consteval: a name the declaration does not have
// fails the build.

consteval size_t SlotOf(std::span<const MetricDecl> decls, std::string_view name) {
  for (size_t i = 0; i < decls.size(); ++i) {
    if (name == decls[i].name) {
      return i;
    }
  }
  throw "no metric of that name is declared";
}
consteval size_t ServerSlot(std::string_view name) { return SlotOf(kServerMetrics, name); }
consteval size_t DeviceSlot(std::string_view name) { return SlotOf(kDeviceMetrics, name); }

// The value in a count-prefixed counters array (aggregate, shard slice or
// device); 0 when the array is too short, i.e. an older server sent it.
inline uint64_t SlotValue(std::span<const uint64_t> values, size_t slot) {
  return slot < values.size() ? values[slot] : 0;
}

// A histogram snapshot: count, sum, then one bucket count per power-of-two
// bucket (layout as in common/metrics.h, bucket count carried separately
// in ServerStatsWire::hist_buckets).
struct StatsHistogramWire {
  uint64_t count = 0;
  uint64_t sum = 0;
  std::vector<uint64_t> buckets;
};

struct OpcodeStatsWire {
  uint64_t count = 0;
  uint64_t sum_micros = 0;
  std::vector<uint64_t> buckets;  // service-time histogram buckets
};

struct DeviceStatsWire {
  uint32_t index = 0;
  std::vector<uint64_t> counters;  // kDeviceCounterNames order
  StatsHistogramWire update_lag;   // micros behind the scheduled deadline
};

// One shard's slice of the aggregate (appended in PR 6; decoders built
// before it see the aggregate block end after the devices array). The
// counters array uses the same kServerCounterNames positions as the
// aggregate; dispatch merges the shard's per-opcode service times into one
// histogram so astat --shards can show a per-shard dispatch p95.
struct ShardStatsWire {
  uint32_t index = 0;
  std::vector<uint64_t> counters;  // kServerCounterNames order
  StatsHistogramWire dispatch;     // merged per-opcode service micros
};

struct ServerStatsWire {
  uint32_t version = kServerStatsVersion;
  std::vector<uint64_t> counters;        // kServerCounterNames order
  std::vector<uint64_t> errors_by_code;  // indexed by wire error code
  uint32_t hist_buckets = 0;             // buckets per histogram in this block
  std::vector<OpcodeStatsWire> opcodes;  // indexed by opcode (entry 0 unused)
  StatsHistogramWire poll_wake;          // poll(2) wake latency micros
  std::vector<DeviceStatsWire> devices;
  std::vector<ShardStatsWire> shards;    // appended in PR 6; may be empty

  // Emits the full reply packet (32-byte unit + extra data).
  void Encode(WireWriter& w, uint16_t seq) const;
  // Consumes the full reply packet.
  static bool Decode(std::span<const uint8_t> data, WireOrder order, ServerStatsWire* out);
};

}  // namespace af

#endif  // AF_PROTO_STATS_H_
