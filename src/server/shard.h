// One shard of the AudioFile server (PR 6).
//
// A shard is the paper's entire single-threaded server in miniature: its
// own WaitForSomething loop (Poller), task queue, client table, audio
// contexts, listeners, metrics, and trace ring, all confined to one
// thread. AFServer became a thin front that owns the shared, read-mostly
// state (devices, properties, atoms, access control) plus N shards;
// with AF_SHARDS=1 (the default) there is exactly one shard and the
// behavior - fd for fd, counter for counter - is the PR 5 server.
//
// Ownership map:
//   clients      - the shard that accepted/adopted the connection (home)
//   devices      - assigned at AddDevice time; the owner runs the device's
//                  update task and every request that touches it
//   audio contexts - the shard owning the AC's device (so play/record
//                  execute where the device lives)
//   atoms/access - shared, guarded by AFServer::shared_mu_
//
// Cross-shard requests travel by lending the ClientConn itself: the home
// shard freezes the connection (ClientConn::BeginRemote) and mails the
// request plus the connection to the device's owner, which runs the
// ordinary dispatch path against it - including suspension for would-block
// plays. The owner then writes the reply to the socket itself, as the
// paper's loop does in the turn that executes a request, and only then
// mails the connection back; the home unfreezes it, encodes the events
// parked while it was away and serves its backlog, off the client's
// critical path. The mailbox's release/acquire handoff is the only
// synchronization the connection state needs.
#ifndef AF_SERVER_SHARD_H_
#define AF_SERVER_SHARD_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "server/mailbox.h"
#include "server/server.h"

namespace af {

class Shard {
 public:
  Shard(AFServer& server, uint32_t index);
  ~Shard();

  Shard(const Shard&) = delete;
  Shard& operator=(const Shard&) = delete;

  uint32_t index() const { return index_; }

  // --- loop ---------------------------------------------------------------

  // One WaitForSomething iteration (same contract as the old
  // AFServer::RunOnce). Returns false when a stop was requested.
  bool RunOnce(int max_timeout_ms = -1);
  // Thread body: redirects GlobalTrace() to this shard's ring, loops until
  // stopped, restores the redirect.
  void RunLoop();

  // Per-shard stop (the kill half of the torture kill/restart test) and
  // its reset. Thread-safe.
  void StopLocal();
  void ClearLocalStop() { local_stop_.store(false, std::memory_order_relaxed); }
  void Wake();

  // --- thread-safe ingress ------------------------------------------------

  void AdoptClient(FaultStream stream, PeerAddress peer);
  void Post(std::function<void()> fn);

  // --- configuration (before the loop starts) ------------------------------

  void AddListener(Listener listener);
  // Schedules the periodic update task for a device this shard owns.
  void ScheduleDeviceUpdate(DeviceId id);

  // --- cross-shard ----------------------------------------------------------

  // Posts fn to `target`'s mailbox (runs inline if target is this shard).
  // Loop-thread only.
  void SendToShard(uint32_t target, std::function<void()> fn);
  // Fans an event out to this shard's clients and forwards it to every
  // other shard. Runs on this shard's thread (device sinks fire here).
  void PostEvent(AEvent event);
  void OnPropertyChanged(DeviceId device, Atom property, bool deleted);

  // --- observability --------------------------------------------------------

  // The old AFServer::SnapshotTrace, against this shard's ring.
  void SnapshotTraceLocal(uint32_t flags, TraceWire* out);
  // This shard's text dump section. sync_clients touches clients_, so it
  // may only be true when called on this shard's thread (or when no shard
  // threads run).
  std::string DumpStatsTextLocal(bool sync_clients);
  // Folds live fault-schedule counts into the metrics spine. Loop-thread
  // only.
  void SyncClientFaultMetrics();

  ServerMetrics& metrics() { return metrics_; }
  const ServerMetrics& metrics() const { return metrics_; }
  TaskQueue& tasks() { return tasks_; }
  TraceRing& trace() { return *trace_; }
  size_t client_count() const {
    return client_count_.load(std::memory_order_relaxed);
  }
  uint64_t mailbox_spills() const { return mailbox_ ? mailbox_->spills() : 0; }

 private:
  friend class AFServer;

  // --- loop internals (moved from AFServer) -------------------------------
  void UpdatePollInterests();
  void AcceptPending(Listener& listener);
  void AdoptLocal(FaultStream stream, PeerAddress peer);
  void HandleClientReadable(const std::shared_ptr<ClientConn>& client);
  void ProcessBufferedRequests(const std::shared_ptr<ClientConn>& client);
  void TrySetup(const std::shared_ptr<ClientConn>& client);
  void RemoveClient(int fd);
  void DrainWakePipe();
  void DrainMailbox();
  // Live on this shard: owned by clients_ or currently borrowed here.
  bool IsLive(int fd) const {
    return clients_.count(fd) != 0 || borrowed_.count(fd) != 0;
  }

  // --- replication emit hook (PR 8) ---------------------------------------
  // Ships one op-log record to the attached backup (no-op without one or
  // after the link dropped). Callers fill everything but seq.
  void EmitOplog(OplogRecord rec);

  // --- dispatch (implemented in dispatch.cc) ------------------------------
  void DispatchRequest(const std::shared_ptr<ClientConn>& client,
                       const RequestHeader& header, std::span<const uint8_t> body,
                       ClientConn::Suspended* resumed);
  void SendError(ClientConn& client, AfError code, Opcode opcode, uint32_t value = 0);
  void SuspendClient(const std::shared_ptr<ClientConn>& client,
                     const RequestHeader& header, std::span<const uint8_t> body,
                     size_t play_progress, AudioDevice& device, ATime resume_time);
  void ResumeSuspended(const std::shared_ptr<ClientConn>& client);
  ServerAC* FindAC(ACId id);

  // Which shard should execute this request (this shard for everything
  // that is not bound to a remote device or AC).
  uint32_t RouteTarget(Opcode op, std::span<const uint8_t> body, WireOrder order,
                       ClientConn& client) const;

  // --- cross-shard forwarding ----------------------------------------------
  void ForwardRequest(const std::shared_ptr<ClientConn>& client,
                      const RequestHeader& header, std::span<const uint8_t> body,
                      uint32_t target);
  // corr is the request's correlation ID (0 = untraced); post_us is when
  // the home shard posted the message, so the executor can record the
  // mailbox dwell as a kMailboxHop span.
  void ExecuteForwarded(const std::shared_ptr<ClientConn>& client,
                        const RequestHeader& header, const std::vector<uint8_t>& body,
                        uint64_t corr, uint64_t post_us);
  // Executor side, once the request is done: stamps it, charges its op
  // metrics, flushes the reply, then posts the connection home.
  void CompleteForwarded(const std::shared_ptr<ClientConn>& client);
  // Home side, shared by every borrow completion: unfreeze, request trace
  // span, stage, deliver parked events, resume the client's backlog.
  void FinishBorrowTail(const std::shared_ptr<ClientConn>& client);
  void DeliverEventLocal(const AEvent& event);
  // Frees AC entries owned here on behalf of a client reaped elsewhere.
  void FreeRemoteACs(const std::vector<ACId>& ids);

  // --- GetTrace aggregation (multi-shard) ----------------------------------
  void StartTraceGather(const std::shared_ptr<ClientConn>& client, uint32_t flags);
  void FinishTraceGather(uint32_t token, std::vector<TraceEvent>& events,
                         uint64_t dropped);

  AFServer& server_;
  const uint32_t index_;

  // References into AFServer's shared state, named as the pre-shard server
  // members so dispatch.cc reads unchanged. devices_/properties_ are
  // append-only before the loops start; atoms_/access_ take shared_mu_.
  const AFServer::Options& opts_;
  std::vector<std::unique_ptr<AudioDevice>>& devices_;
  std::vector<std::unique_ptr<PropertyStore>>& properties_;
  AtomTable& atoms_;
  AccessControl& access_;
  std::mutex& shared_mu_;

  TaskQueue tasks_;
  Poller poller_;
  std::vector<Listener> listeners_;
  std::map<int, std::shared_ptr<ClientConn>> clients_;
  std::map<int, std::shared_ptr<ClientConn>> borrowed_;  // executing here
  std::map<ACId, ServerAC> acs_;
  uint32_t next_client_number_;  // starts at index+1, strides by shard count

  // Cross-thread wake-up (Stop / AdoptClient / Post).
  int wake_pipe_[2] = {-1, -1};
  std::mutex adopt_mu_;
  std::vector<std::pair<FaultStream, PeerAddress>> pending_adoptions_;
  std::vector<std::function<void()>> pending_actions_;
  std::atomic<bool> local_stop_{false};

  bool work_pending_ = false;
  ServerMetrics metrics_;
  std::atomic<size_t> client_count_{0};

  // Shard 0 records into the process-wide ring (1-shard behavior is
  // byte-identical to PR 5); other shards own private rings.
  std::unique_ptr<TraceRing> own_trace_;
  TraceRing* trace_ = nullptr;
  int flight_slot_ = -1;  // crash flight-recorder registration, -1 = none

  std::unique_ptr<ShardMailbox> mailbox_;  // only when the server has > 1 shard
  std::vector<ShardMailbox::Message> mailbox_scratch_;
  uint32_t accept_rr_ = 0;  // round-robin cursor for handoff accept mode

  struct TraceGather {
    std::shared_ptr<ClientConn> client;
    uint32_t flags = 0;
    size_t remaining = 0;
    uint64_t dropped = 0;
    std::vector<TraceEvent> events;
  };
  std::map<uint32_t, TraceGather> trace_gathers_;  // keyed by client number
};

}  // namespace af

#endif  // AF_SERVER_SHARD_H_
