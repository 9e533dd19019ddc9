// Shard: one per-thread server loop (see shard.h for the ownership map).
// The loop body here is the paper's WaitForSomething() core, moved verbatim
// from the pre-shard AFServer; the cross-shard sections (mailbox drain,
// request forwarding, event fan-out, trace gather) are PR 6 additions.
#include "server/shard.h"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <optional>

#include "common/clock.h"
#include "common/flight_recorder.h"
#include "common/log.h"

namespace af {

namespace {

// Set from the SIGUSR1 handler; polled by shard 0's loop iterations.
std::atomic<bool> g_stats_dump_requested{false};

// Shard-loop trace instants. The enabled() check up front keeps the
// tracing-off cost to one relaxed load before any timestamping.
void TraceInstant(TraceRing& tr, TraceKind kind, uint32_t conn, uint64_t value = 0,
                  uint8_t arg = 0) {
  if (!tr.enabled()) {
    return;
  }
  TraceEvent ev;
  ev.kind = static_cast<uint8_t>(kind);
  ev.arg = arg;
  ev.conn = conn;
  ev.host_us = HostMicros();
  ev.value = value;
  ev.corr = CurrentTraceCorr();
  tr.Record(ev);
}

// The aux trailer: when the extension byte flags kRequestExtCorrId, the
// final 8 bytes of the padded request carry the client's correlation ID.
uint64_t RequestCorr(const RequestHeader& header, std::span<const uint8_t> request,
                     WireOrder order) {
  if ((header.ext & kRequestExtCorrId) == 0 ||
      request.size() < kRequestHeaderBytes + 8) {
    return 0;
  }
  WireReader tail(request.subspan(request.size() - 8, 8), order);
  return tail.U64();
}

uint64_t RemoteOpMicros(const ClientConn::RemoteOp& op) {
  return op.end_us > op.t0_us ? op.end_us - op.t0_us : 0;
}

// Ends a borrowed request now: stamps its completion and charges its
// service time, from the home's dispatch on, to the home shard's op
// metrics - the latency the client observed. Metrics are atomics, so the
// executor may do this from its own thread.
void EndRemoteRequest(ClientConn& client, ServerMetrics& home_metrics) {
  client.MarkRemoteDone(HostMicros());
  const ClientConn::RemoteOp op = client.remote_op();
  if (op.opcode >= kMinOpcode && op.opcode <= kMaxOpcode) {
    home_metrics.op_count[op.opcode].Add();
    home_metrics.op_micros[op.opcode].Record(RemoteOpMicros(op));
  }
}

}  // namespace

void AFServer::RequestStatsDump() {
  g_stats_dump_requested.store(true, std::memory_order_relaxed);
}

bool AFServer::InstallStatsDumpHandler() {
  struct sigaction sa = {};
  sa.sa_handler = [](int) { RequestStatsDump(); };
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_RESTART;
  return ::sigaction(SIGUSR1, &sa, nullptr) == 0;
}

Shard::Shard(AFServer& server, uint32_t index)
    : server_(server),
      index_(index),
      opts_(server.opts_),
      devices_(server.devices_),
      properties_(server.properties_),
      atoms_(server.atoms_),
      access_(server.access_),
      shared_mu_(server.shared_mu_),
      next_client_number_(index + 1) {
  if (::pipe(wake_pipe_) != 0) {
    FatalError("Shard: cannot create wake pipe");
  }
  ::fcntl(wake_pipe_[0], F_SETFL, O_NONBLOCK);
  ::fcntl(wake_pipe_[1], F_SETFL, O_NONBLOCK);

  // Shard 0 records into the process-wide ring so a 1-shard server is
  // byte-identical to the pre-shard one; extra shards get private rings.
  if (index_ == 0) {
    trace_ = &ProcessTrace();
  } else {
    own_trace_ = std::make_unique<TraceRing>();
    trace_ = own_trace_.get();
  }

  metrics_.poller_backend.Set(poller_.backend() == Poller::Backend::kEpoll ? 1 : 0);
  const int num_shards = opts_.num_shards;
  metrics_.shards.Set(num_shards);
  if (num_shards > 1) {
    mailbox_ = std::make_unique<ShardMailbox>(static_cast<size_t>(num_shards));
  }
  // Ring overwrites surface in this shard's stats. With several in-process
  // servers sharing the process ring (tests) the last one constructed owns
  // the counter.
  trace_->AttachDropCounter(&metrics_.trace_dropped_events);
  // All of this server's rings gate on one shared generation counter, so a
  // GetTrace enable/disable reaches every shard at a single atomic instant
  // instead of skewing across the per-shard Enable loop. Each ring stamps
  // the generation it first records under (kTraceStart), making window
  // alignment observable from the fetched trace itself.
  trace_->SetShardIndex(static_cast<uint16_t>(index_));
  trace_->AttachGenerationGate(&server_.trace_gen_);

  // The flight recorder dumps every shard-scope counter under its wire name.
  static_assert(kNumShardCounters <= kFlightRecorderMaxCounters);
  FlightRecorderCounter flight[kNumShardCounters];
  size_t n_flight = 0;
  ForEachServerSlot<MetricScope::kShard>(metrics_, [&](size_t, const char* name, const auto& m) {
    if constexpr (std::is_same_v<std::remove_cvref_t<decltype(m)>, Counter>) {
      flight[n_flight++] = FlightRecorderCounter{name, &m};
    }
  });
  flight_slot_ = FlightRecorderRegisterRing(trace_, index_, flight, n_flight);
}

Shard::~Shard() {
  // Shard 0's ring is the process-wide ring and outlives this server:
  // detach the gate (it points into AFServer) and the drop counter (it
  // points into metrics_) so later users of the ring see no dangling
  // pointers. Also retire the flight-recorder slot.
  FlightRecorderUnregisterRing(flight_slot_);
  trace_->AttachGenerationGate(nullptr);
  trace_->AttachDropCounter(nullptr);
  for (int i = 0; i < 2; ++i) {
    if (wake_pipe_[i] >= 0) {
      ::close(wake_pipe_[i]);
    }
  }
}

void Shard::AddListener(Listener listener) {
  listeners_.push_back(std::move(listener));
}

void Shard::ScheduleDeviceUpdate(DeviceId id) {
  AudioDevice* dev = devices_[id].get();
  const unsigned period_ms = dev->UpdatePeriodMs();
  const uint64_t now_us = HostMicros();
  const uint64_t deadline_us = now_us + static_cast<uint64_t>(period_ms) * 1000u;
  tasks_.AddIn(now_us, period_ms, [this, id, deadline_us] {
    const uint64_t run_us = HostMicros();
    AudioDevice* d = devices_[id].get();
    const uint64_t lag_us = run_us > deadline_us ? run_us - deadline_us : 0;
    d->metrics().update_lag_micros.Record(lag_us);
    if (lag_us > 0 && trace_->enabled()) {
      TraceEvent ev;
      ev.kind = static_cast<uint8_t>(TraceKind::kUpdateLag);
      ev.device = id + 1;
      ev.dev_time = d->GetTime();
      ev.host_us = run_us;
      ev.value = lag_us;
      trace_->Record(ev);
    }
    d->Update();
    ScheduleDeviceUpdate(id);  // the update task reschedules itself
  });
}

void Shard::AdoptClient(FaultStream stream, PeerAddress peer) {
  {
    std::lock_guard<std::mutex> lock(adopt_mu_);
    pending_adoptions_.emplace_back(std::move(stream), std::move(peer));
  }
  const char byte = 'a';
  [[maybe_unused]] const ssize_t n = ::write(wake_pipe_[1], &byte, 1);
}

void Shard::Post(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(adopt_mu_);
    pending_actions_.push_back(std::move(fn));
  }
  const char byte = 'p';
  [[maybe_unused]] const ssize_t n = ::write(wake_pipe_[1], &byte, 1);
}

void Shard::StopLocal() {
  local_stop_.store(true, std::memory_order_relaxed);
  Wake();
}

void Shard::Wake() {
  const char byte = 'w';
  [[maybe_unused]] const ssize_t n = ::write(wake_pipe_[1], &byte, 1);
}

void Shard::RunLoop() {
  // Route GlobalTrace() to this shard's ring for the thread's lifetime
  // (shard 0's ring IS the process ring, so this is a no-op there).
  SetThreadTraceRing(trace_);
  while (RunOnce()) {
  }
  SetThreadTraceRing(nullptr);
}

void Shard::UpdatePollInterests() {
  poller_.Watch(wake_pipe_[0], true, false);
  if (mailbox_) {
    poller_.Watch(mailbox_->wake_fd(), true, false);
  }
  for (Listener& l : listeners_) {
    poller_.Watch(l.fd(), true, false);
  }
  for (auto& [fd, client] : clients_) {
    // While a connection executes on another shard nothing here may touch
    // its socket; the fd stays registered with no interests. poll and epoll
    // still report hang-up, so a lent fd that reports anything leaves the
    // interest set (see RunOnce) and stays out until the connection
    // returns, when the pass below watches it again.
    if (client->borrowed()) {
      if (poller_.watching(fd)) {
        poller_.Watch(fd, false, false);
      }
      continue;
    }
    // A suspended client's socket is not read: that is how the server
    // "blocks the client" - TCP backpressure does the rest. After EOF
    // there is nothing left to read either.
    const bool want_read = !client->suspended() &&
                           client->state() != ClientConn::State::kClosing &&
                           !client->saw_eof();
    poller_.Watch(fd, want_read, client->HasPendingOutput());
  }
}

bool Shard::RunOnce(int max_timeout_ms) {
  if (server_.stop_.load(std::memory_order_relaxed) ||
      local_stop_.load(std::memory_order_relaxed)) {
    return false;
  }
  metrics_.loop_iterations.Add();
  UpdatePollInterests();
  metrics_.watched_fds.Set(static_cast<int64_t>(poller_.watched()));

  const uint64_t now_us = HostMicros();
  int timeout = tasks_.NextTimeoutMs(now_us);
  if (work_pending_) {
    timeout = 0;
  } else if (max_timeout_ms >= 0 && (timeout < 0 || timeout > max_timeout_ms)) {
    timeout = max_timeout_ms;
  }
  work_pending_ = false;

  const std::vector<PollEvent>& events = poller_.Wait(timeout);
  const uint64_t woke_us = HostMicros();
  if (timeout >= 0) {
    // How late past the requested deadline poll woke us (0 when an event
    // arrived early) - the loop's scheduling jitter.
    const uint64_t deadline_us = now_us + static_cast<uint64_t>(timeout) * 1000u;
    metrics_.poll_wake_micros.Record(woke_us > deadline_us ? woke_us - deadline_us : 0);
  }
  if (index_ == 0 &&
      g_stats_dump_requested.exchange(false, std::memory_order_relaxed)) {
    // Other shards' client fault syncs cannot run from this thread; their
    // spines are read as-is (counters are atomics).
    const std::string dump = server_.DumpStatsText(server_.num_shards() == 1);
    std::fwrite(dump.data(), 1, dump.size(), stderr);
  }
  DrainMailbox();
  tasks_.RunDue(woke_us);

  for (const PollEvent& ev : events) {
    if (ev.fd == wake_pipe_[0]) {
      DrainWakePipe();
      continue;
    }
    if (mailbox_ && ev.fd == mailbox_->wake_fd()) {
      continue;  // drained above, before tasks ran
    }
    bool is_listener = false;
    for (Listener& l : listeners_) {
      if (l.fd() == ev.fd) {
        AcceptPending(l);
        is_listener = true;
        break;
      }
    }
    if (is_listener) {
      continue;
    }
    const auto it = clients_.find(ev.fd);
    if (it == clients_.end()) {
      poller_.Unwatch(ev.fd);
      continue;
    }
    std::shared_ptr<ClientConn> client = it->second;
    if (client->borrowed()) {
      // Level-triggered: a lent connection whose peer hung up would wake
      // this loop on every pass until it returns.
      poller_.Unwatch(ev.fd);
      continue;
    }
    if (ev.readable || ev.closed) {
      HandleClientReadable(client);
    }
    if (ev.writable && clients_.count(ev.fd) != 0) {
      if (!client->FlushOutput()) {
        RemoveClient(ev.fd);
      }
    }
  }

  // Service requests that stayed buffered when the fairness cap cut a
  // previous sweep short: poll will not fire again for a socket that has
  // already been drained.
  std::vector<std::shared_ptr<ClientConn>> with_backlog;
  for (auto& [fd, client] : clients_) {
    if (!client->borrowed() && !client->suspended() &&
        client->state() == ClientConn::State::kRunning &&
        client->Buffered().size() >= kRequestHeaderBytes) {
      with_backlog.push_back(client);
    }
  }
  for (const auto& client : with_backlog) {
    if (clients_.count(client->fd()) != 0 && !client->borrowed()) {
      ProcessBufferedRequests(client);
    }
  }

  // Flush accumulated replies/events and reap finished clients: ones
  // marked closing, and half-closed peers (EOF seen) that have no
  // complete request left to serve and no output still to deliver.
  // Borrowed connections are untouchable until they come home.
  std::vector<int> to_remove;
  for (auto& [fd, client] : clients_) {
    if (client->borrowed()) {
      continue;
    }
    if (!client->FlushOutput()) {
      to_remove.push_back(fd);
      continue;
    }
    if (client->state() == ClientConn::State::kClosing && !client->HasPendingOutput()) {
      to_remove.push_back(fd);
      continue;
    }
    if (client->saw_eof() && !client->suspended() && !client->HasPendingOutput() &&
        !client->HasCompleteRequest()) {
      to_remove.push_back(fd);
    }
  }
  for (int fd : to_remove) {
    RemoveClient(fd);
  }

  return !server_.stop_.load(std::memory_order_relaxed) &&
         !local_stop_.load(std::memory_order_relaxed);
}

void Shard::DrainWakePipe() {
  char buf[64];
  while (::read(wake_pipe_[0], buf, sizeof(buf)) > 0) {
  }
  std::vector<std::pair<FaultStream, PeerAddress>> adoptions;
  std::vector<std::function<void()>> actions;
  {
    std::lock_guard<std::mutex> lock(adopt_mu_);
    adoptions.swap(pending_adoptions_);
    actions.swap(pending_actions_);
  }
  for (auto& fn : actions) {
    fn();
  }
  for (auto& [stream, peer] : adoptions) {
    AdoptLocal(std::move(stream), std::move(peer));
  }
}

void Shard::DrainMailbox() {
  if (!mailbox_) {
    return;
  }
  if (mailbox_->ConsumeWake()) {
    metrics_.mailbox_wakes.Add();
  }
  mailbox_scratch_.clear();
  const size_t n = mailbox_->Drain(&mailbox_scratch_);
  if (n != 0) {
    metrics_.cross_shard_drained.Add(n);
    metrics_.mailbox_depth_hw.Set(static_cast<int64_t>(mailbox_->depth_high_water()));
    for (auto& msg : mailbox_scratch_) {
      msg();
    }
    mailbox_scratch_.clear();
  }
  // A message published while the drain ran may have had its wake consumed
  // by the ConsumeWake above; never sleep on a non-empty mailbox.
  if (mailbox_->HasPending()) {
    work_pending_ = true;
  }
}

void Shard::SendToShard(uint32_t target, std::function<void()> fn) {
  if (target == index_) {
    fn();
    return;
  }
  metrics_.cross_shard_posted.Add();
  Shard* t = server_.shards_[target].get();
  if (!t->mailbox_->Post(index_, std::move(fn))) {
    metrics_.mailbox_spills.Add();
  }
}

void Shard::AdoptLocal(FaultStream stream, PeerAddress peer) {
  const int fd = stream.fd();
  auto client = std::make_shared<ClientConn>(std::move(stream), std::move(peer),
                                             next_client_number_);
  next_client_number_ += static_cast<uint32_t>(server_.num_shards());
  client->AttachMetrics(&metrics_);
  TraceInstant(*trace_, TraceKind::kAccept, client->client_number());
  OplogRecord rec;
  rec.type = static_cast<uint16_t>(OplogType::kClientConnect);
  rec.client = client->client_number();
  EmitOplog(rec);
  clients_.emplace(fd, std::move(client));
  metrics_.clients_accepted.Add();
  client_count_.fetch_add(1, std::memory_order_relaxed);
}

void Shard::AcceptPending(Listener& listener) {
  auto accepted = listener.Accept();
  if (!accepted.ok()) {
    return;
  }
  auto& [stream, peer] = accepted.value();
  if (server_.accept_handoff_ && server_.num_shards() > 1) {
    const uint32_t target = accept_rr_++ % static_cast<uint32_t>(server_.num_shards());
    if (target != index_) {
      // std::function needs a copyable closure; park the move-only stream
      // behind a shared_ptr for the ride through the mailbox.
      auto shared = std::make_shared<FaultStream>(FaultStream(std::move(stream)));
      Shard* t = server_.shards_[target].get();
      SendToShard(target, [t, shared, peer] {
        t->AdoptLocal(std::move(*shared), peer);
      });
      return;
    }
  }
  AdoptLocal(FaultStream(std::move(stream)), std::move(peer));
}

void Shard::HandleClientReadable(const std::shared_ptr<ClientConn>& client) {
  const int fd = client->fd();
  if (!client->ReadAvailable()) {
    RemoveClient(fd);
    return;
  }
  ProcessBufferedRequests(client);
}

void Shard::ProcessBufferedRequests(const std::shared_ptr<ClientConn>& client) {
  int processed = 0;
  while (clients_.count(client->fd()) != 0 && !client->borrowed() &&
         !client->suspended() && client->state() != ClientConn::State::kClosing) {
    if (client->state() == ClientConn::State::kAwaitingSetup) {
      TrySetup(client);
      if (client->state() == ClientConn::State::kAwaitingSetup) {
        return;  // need more bytes
      }
      continue;
    }
    if (processed >= opts_.max_requests_per_sweep) {
      // Fairness: give other clients a turn; remember there is more to do.
      if (client->Buffered().size() >= kRequestHeaderBytes) {
        work_pending_ = true;
      }
      return;
    }
    const std::span<const uint8_t> buf = client->Buffered();
    if (buf.size() < kRequestHeaderBytes) {
      return;
    }
    WireReader header_reader(buf, client->order());
    RequestHeader header;
    if (!DecodeRequestHeader(header_reader, &header) || header.length_words == 0) {
      ErrorF("client %u: malformed request header; closing", client->client_number());
      RemoveClient(client->fd());
      return;
    }
    const size_t total = header.TotalBytes();
    if (buf.size() < total) {
      return;  // request not fully received yet
    }
    client->BumpSeq();
    metrics_.requests_dispatched.Add();
    metrics_.bytes_in.Add(total);
    const std::span<const uint8_t> body = buf.subspan(kRequestHeaderBytes,
                                                      total - kRequestHeaderBytes);
    const uint8_t opi = static_cast<uint8_t>(header.opcode);
    const uint64_t corr = RequestCorr(header, buf.first(total), client->order());
    const uint64_t t0_us = HostMicros();
    {
      // Everything dispatch records (device instants, suspend/resume,
      // forwards, oplog emits) inherits the request's correlation ID
      // through the thread-local.
      ScopedTraceCorr corr_scope(corr);
      DispatchRequest(client, header, body, nullptr);
    }
    if (client->borrowed()) {
      // The request now executes on another shard (the executor works from
      // a copy of the body; in_ stays home-owned). The executor charges the
      // service time and writes the reply; the trace span is recorded here
      // when the connection returns.
      client->Consume(total);
      return;
    }
    const uint64_t t1_us = HostMicros();
    if (opi >= kMinOpcode && opi <= kMaxOpcode) {
      metrics_.op_count[opi].Add();
      metrics_.op_micros[opi].Record(t1_us - t0_us);
    }
    if (trace_->enabled()) {
      TraceEvent ev;
      ev.kind = static_cast<uint8_t>(TraceKind::kRequest);
      ev.arg = opi;
      ev.conn = client->client_number();
      ev.host_us = t0_us;
      ev.dur_us = static_cast<uint32_t>(t1_us - t0_us);
      ev.value = total;
      ev.corr = corr;
      trace_->Record(ev);
    }
    if (clients_.count(client->fd()) == 0) {
      return;  // dispatch closed the connection
    }
    // Seal this request's reply into its own egress segment; the sweep's
    // replies then leave as one writev when the drain runs.
    client->StageOutput();
    client->Consume(total);
    ++processed;
  }
}

void Shard::TrySetup(const std::shared_ptr<ClientConn>& client) {
  const std::span<const uint8_t> buf = client->Buffered();
  if (buf.size() < SetupRequest::kFixedBytes) {
    return;
  }
  SetupRequest req;
  uint16_t auth_name_len = 0;
  uint16_t auth_data_len = 0;
  if (!SetupRequest::DecodeFixed(buf, &req, &auth_name_len, &auth_data_len)) {
    ErrorF("client %u: bad setup prefix; closing", client->client_number());
    RemoveClient(client->fd());
    return;
  }
  const size_t total = SetupRequest::kFixedBytes + Pad4(auth_name_len) + Pad4(auth_data_len);
  if (buf.size() < total) {
    return;
  }
  client->set_order(req.order);

  bool authorized;
  {
    std::lock_guard<std::mutex> lock(shared_mu_);
    authorized = access_.Check(client->peer());
  }
  SetupReply reply;
  if (!authorized) {
    reply.success = false;
    reply.failure_reason = "host not authorized to connect";
    client->out().Bytes(reply.Encode(req.order));
    client->Consume(total);
    client->set_state(ClientConn::State::kClosing);
    return;
  }

  reply.success = true;
  reply.resource_id_base = client->resource_id_base();
  reply.resource_id_mask = client->resource_id_mask();
  reply.vendor = opts_.vendor;
  for (const auto& dev : devices_) {
    reply.devices.push_back(dev->desc());
  }
  client->out().Bytes(reply.Encode(req.order));
  client->Consume(total);
  client->set_state(ClientConn::State::kRunning);
}

void Shard::RemoveClient(int fd) {
  const auto it = clients_.find(fd);
  if (it == clients_.end()) {
    return;
  }
  // Free this client's audio contexts (dropping record references). ACs
  // living on other shards are freed where they live.
  std::map<uint32_t, std::vector<ACId>> remote;
  for (const auto& [id, owner] : it->second->acs()) {
    if (owner != index_) {
      remote[owner].push_back(id);
      continue;
    }
    const auto ac_it = acs_.find(id);
    if (ac_it != acs_.end()) {
      if (ac_it->second.recording) {
        ac_it->second.device->ReleaseRecordRef();
      }
      acs_.erase(ac_it);
    }
  }
  for (auto& [shard, ids] : remote) {
    Shard* t = server_.shards_[shard].get();
    SendToShard(shard, [t, ids] { t->FreeRemoteACs(ids); });
  }
  it->second->SyncFaultMetrics();
  TraceInstant(*trace_, TraceKind::kReap, it->second->client_number());
  OplogRecord rec;
  rec.type = static_cast<uint16_t>(OplogType::kClientDisconnect);
  rec.client = it->second->client_number();
  EmitOplog(rec);
  metrics_.clients_reaped.Add();
  poller_.Unwatch(fd);
  clients_.erase(it);
  client_count_.fetch_sub(1, std::memory_order_relaxed);
}

void Shard::EmitOplog(OplogRecord rec) {
  ReplicationPrimary* primary = server_.replication_primary();
  if (primary == nullptr || !primary->link_up()) {
    return;
  }
  // Stamp the dispatching request's correlation ID into the record (and a
  // trace instant) so the backup's apply can be tied back to the client
  // operation that caused it.
  if (rec.corr == 0) {
    rec.corr = CurrentTraceCorr();
  }
  TraceInstant(*trace_, TraceKind::kOplogEmit, rec.client, rec.value,
               static_cast<uint8_t>(rec.type));
  metrics_.oplog_records.Add();
  primary->Emit(rec);
}

void Shard::FreeRemoteACs(const std::vector<ACId>& ids) {
  for (ACId id : ids) {
    const auto it = acs_.find(id);
    if (it == acs_.end()) {
      continue;
    }
    if (it->second.recording) {
      it->second.device->ReleaseRecordRef();
    }
    acs_.erase(it);
  }
}

ServerAC* Shard::FindAC(ACId id) {
  const auto it = acs_.find(id);
  return it == acs_.end() ? nullptr : &it->second;
}

void Shard::PostEvent(AEvent event) {
  event.host_time_us = WallMicros();
  DeliverEventLocal(event);
  const size_t n = server_.num_shards();
  for (size_t s = 0; s < n; ++s) {
    if (s == index_) {
      continue;
    }
    metrics_.cross_shard_events.Add();
    Shard* t = server_.shards_[s].get();
    SendToShard(static_cast<uint32_t>(s),
                [t, event] { t->DeliverEventLocal(event); });
  }
}

void Shard::DeliverEventLocal(const AEvent& event) {
  const uint32_t mask = EventMaskFor(event.type);
  for (auto& [fd, client] : clients_) {
    if (client->state() != ClientConn::State::kRunning ||
        !client->WantsEvent(event.device, mask)) {
      continue;
    }
    if (client->borrowed()) {
      // The executor owns the output buffer right now; encode on return.
      client->ParkEvent(event);
      continue;
    }
    AEvent copy = event;
    copy.seq = client->seq();
    copy.Encode(client->out());
    metrics_.events_sent.Add();
  }
}

void Shard::OnPropertyChanged(DeviceId device, Atom property, bool deleted) {
  AEvent event;
  event.type = EventType::kPropertyChange;
  event.device = device;
  event.detail = 0;
  event.dev_time = devices_[device]->GetTime();
  event.w0 = property;
  event.w1 = deleted ? kPropertyDeleted : kPropertyNewValue;
  PostEvent(std::move(event));
}

void Shard::SuspendClient(const std::shared_ptr<ClientConn>& client,
                          const RequestHeader& header, std::span<const uint8_t> body,
                          size_t play_progress, AudioDevice& device, ATime resume_time) {
  metrics_.suspends.Add();
  TraceInstant(*trace_, TraceKind::kSuspend, client->client_number(), 0,
               static_cast<uint8_t>(header.opcode));
  // The parked request keeps its correlation ID so the resume (possibly
  // many task-queue hops later) still links to the original client span.
  client->Suspend(header, body, play_progress, CurrentTraceCorr());
  const ATime now = device.GetTime();
  const int32_t delta_ticks = TimeDelta(resume_time, now);
  const unsigned rate = std::max(1u, device.desc().play_sample_rate);
  const uint64_t delay_ms =
      delta_ticks <= 0 ? 0 : (static_cast<uint64_t>(delta_ticks) * 1000u) / rate;
  std::weak_ptr<ClientConn> weak = client;
  tasks_.AddIn(HostMicros(), delay_ms, [this, weak] {
    if (const std::shared_ptr<ClientConn> c = weak.lock()) {
      // Live here either as a homed client or as a borrow being executed.
      if (IsLive(c->fd())) {
        ResumeSuspended(c);
      }
    }
  });
}

void Shard::ResumeSuspended(const std::shared_ptr<ClientConn>& client) {
  std::unique_ptr<ClientConn::Suspended> suspended = client->TakeSuspended();
  if (!suspended) {
    return;
  }
  metrics_.resumes.Add();
  ScopedTraceCorr corr_scope(suspended->corr);
  TraceInstant(*trace_, TraceKind::kResume, client->client_number(), 0,
               static_cast<uint8_t>(suspended->header.opcode));
  DispatchRequest(client, suspended->header, suspended->body, suspended.get());
  if (client->suspended()) {
    return;  // blocked again
  }
  if (borrowed_.count(client->fd()) != 0) {
    // A forwarded play/record finally completed on this (executor) shard;
    // send the connection home.
    CompleteForwarded(client);
    return;
  }
  if (clients_.count(client->fd()) != 0) {
    client->StageOutput();
    // The blocked request completed; pick up anything buffered behind it.
    ProcessBufferedRequests(client);
  }
}

// --- cross-shard request forwarding ---------------------------------------

void Shard::ForwardRequest(const std::shared_ptr<ClientConn>& client,
                           const RequestHeader& header, std::span<const uint8_t> body,
                           uint32_t target) {
  const uint64_t corr = CurrentTraceCorr();
  const uint64_t post_us = HostMicros();
  client->BeginRemote(static_cast<uint8_t>(header.opcode), post_us,
                      header.TotalBytes(), index_, corr);
  metrics_.cross_shard_plays.Add();
  Shard* t = server_.shards_[target].get();
  SendToShard(target, [t, client, header, corr, post_us,
                       body_copy = std::vector<uint8_t>(body.begin(), body.end())] {
    t->ExecuteForwarded(client, header, body_copy, corr, post_us);
  });
}

void Shard::ExecuteForwarded(const std::shared_ptr<ClientConn>& client,
                             const RequestHeader& header,
                             const std::vector<uint8_t>& body, uint64_t corr,
                             uint64_t post_us) {
  // The borrowed request carries its correlation ID across the mailbox:
  // the hop instant (value = dwell in the mailbox, us) and the remote
  // execution span both stamp it, so a merged timeline can draw
  // ingress-dispatch -> mailbox -> owner-shard work as one causal chain.
  ScopedTraceCorr corr_scope(corr);
  const uint64_t t0_us = HostMicros();
  if (trace_->enabled()) {
    TraceEvent ev;
    ev.kind = static_cast<uint8_t>(TraceKind::kMailboxHop);
    ev.conn = client->client_number();
    ev.host_us = t0_us;
    ev.value = t0_us > post_us ? t0_us - post_us : 0;
    ev.corr = corr;
    trace_->Record(ev);
  }
  borrowed_.emplace(client->fd(), client);
  DispatchRequest(client, header, body, nullptr);
  if (trace_->enabled()) {
    const uint64_t t1_us = HostMicros();
    TraceEvent ev;
    ev.kind = static_cast<uint8_t>(TraceKind::kRemoteExec);
    ev.arg = static_cast<uint8_t>(header.opcode);
    ev.conn = client->client_number();
    ev.host_us = t0_us;
    ev.dur_us = static_cast<uint32_t>(t1_us - t0_us);
    ev.value = header.TotalBytes();
    ev.corr = corr;
    trace_->Record(ev);
  }
  if (!client->suspended()) {
    CompleteForwarded(client);
  }
  // else: the play/record blocked; the resume task completes the borrow.
}

void Shard::CompleteForwarded(const std::shared_ptr<ClientConn>& client) {
  borrowed_.erase(client->fd());
  const uint32_t home = client->borrow_home();
  Shard* h = server_.shards_[home].get();
  // This shard still has exclusive use of the connection, so it writes the
  // reply itself: the client's round trip does not wait for the return hop.
  // The request ends before the writev, so a stats fetch sent after this
  // reply already counts it.
  EndRemoteRequest(*client, h->metrics_);
  // A short write leaves the rest in the egress chain for the home's
  // writable interest; a failed one (peer gone) fails again in the home's
  // flush/reap sweep, which reaps the connection.
  client->FlushOutput();
  // The post publishes the connection; nothing here touches it afterwards.
  SendToShard(home, [h, client] { h->FinishBorrowTail(client); });
}

void Shard::FinishBorrowTail(const std::shared_ptr<ClientConn>& client) {
  const ClientConn::RemoteOp op = client->EndRemote();
  if (trace_->enabled()) {
    // The dispatch span belongs on this (home) shard's ring, which only
    // this thread writes; it ends where the request completed. Nothing
    // behind the borrow on this connection has been served yet, so a
    // trace window the client closes next still finds it.
    TraceEvent ev;
    ev.kind = static_cast<uint8_t>(TraceKind::kRequest);
    ev.arg = op.opcode;
    ev.conn = client->client_number();
    ev.host_us = op.t0_us;
    ev.dur_us = static_cast<uint32_t>(RemoteOpMicros(op));
    ev.value = op.bytes;
    ev.corr = op.corr;
    trace_->Record(ev);
  }
  if (clients_.count(client->fd()) == 0) {
    return;  // reaped while borrowed (cannot happen today, but be safe)
  }
  client->StageOutput();
  const std::vector<AEvent> parked = client->TakeParkedEvents();
  for (const AEvent& event : parked) {
    AEvent copy = event;
    copy.seq = client->seq();
    copy.Encode(client->out());
    metrics_.events_sent.Add();
  }
  if (!parked.empty()) {
    client->StageOutput();
  }
  ProcessBufferedRequests(client);
}

// --- GetTrace aggregation --------------------------------------------------

void Shard::StartTraceGather(const std::shared_ptr<ClientConn>& client,
                             uint32_t flags) {
  const size_t n = server_.num_shards();
  SyncClientFaultMetrics();
  TraceGather g;
  g.client = client;
  g.flags = flags;
  g.remaining = n - 1;
  // Drain our own ring inline (Drain is owner-thread-only); the other
  // shards drain theirs on their threads and mail the windows back.
  trace_->Drain(&g.events);
  g.dropped = trace_->dropped();
  const uint32_t token = client->client_number();
  trace_gathers_[token] = std::move(g);
  for (size_t s = 0; s < n; ++s) {
    if (s == index_) {
      continue;
    }
    Shard* t = server_.shards_[s].get();
    Shard* home = this;
    const uint32_t home_idx = index_;
    SendToShard(static_cast<uint32_t>(s), [t, home, home_idx, token] {
      t->SyncClientFaultMetrics();
      auto window = std::make_shared<std::vector<TraceEvent>>();
      t->trace().Drain(window.get());
      const uint64_t dropped = t->trace().dropped();
      t->SendToShard(home_idx, [home, token, window, dropped] {
        home->FinishTraceGather(token, *window, dropped);
      });
    });
  }
}

void Shard::FinishTraceGather(uint32_t token, std::vector<TraceEvent>& events,
                              uint64_t dropped) {
  const auto it = trace_gathers_.find(token);
  if (it == trace_gathers_.end()) {
    return;
  }
  TraceGather& g = it->second;
  g.events.insert(g.events.end(), events.begin(), events.end());
  g.dropped += dropped;
  if (--g.remaining > 0) {
    return;
  }
  // The gate flips only after every ring has been drained: flipped
  // before, a shard could open the new window ahead of its drain and hand
  // the window's kTraceStart stamp to this reply instead of the next one.
  const auto enable_all = [this](bool on) {
    for (size_t s = 0; s < server_.num_shards(); ++s) {
      server_.shards_[s]->trace().Enable(on);
    }
  };
  if (g.flags & kTraceFlagEnable) {
    enable_all(true);
  }
  if (g.flags & kTraceFlagDisable) {
    enable_all(false);
  }
  // One timeline: interleave the per-shard windows by host timestamp.
  std::stable_sort(g.events.begin(), g.events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.host_us < b.host_us;
                   });
  TraceWire wire;
  wire.version = kTraceWireVersion;
  wire.host_now_us = HostMicros();
  wire.events = std::move(g.events);
  wire.dropped = g.dropped;
  wire.enabled = trace_->enabled() ? 1 : 0;
  const std::shared_ptr<ClientConn> client = std::move(g.client);
  trace_gathers_.erase(it);
  wire.Encode(client->out(), client->seq());
  EndRemoteRequest(*client, metrics_);
  FinishBorrowTail(client);
}

// --- observability ---------------------------------------------------------

void Shard::SyncClientFaultMetrics() {
  // Safe for borrowed connections too: the sync touches only home-owned
  // fields (faults_synced_) and atomics, and the executor shard never
  // calls it for a borrow. The GetTrace requester itself is borrowed at
  // gather time, and its faults must land in the window.
  for (auto& [fd, client] : clients_) {
    client->SyncFaultMetrics();
  }
}

void Shard::SnapshotTraceLocal(uint32_t flags, TraceWire* out) {
  TraceRing& tr = *trace_;
  if (flags & kTraceFlagEnable) {
    tr.Enable(true);
  }
  // Pull faults applied by live schedules into the spine (and the ring)
  // before the drain, so a fetched trace window is as current as a stats
  // snapshot.
  SyncClientFaultMetrics();
  out->version = kTraceWireVersion;
  out->host_now_us = HostMicros();
  out->events.clear();
  tr.Drain(&out->events);
  out->dropped = tr.dropped();
  if (flags & kTraceFlagDisable) {
    tr.Enable(false);
  }
  out->enabled = tr.enabled() ? 1 : 0;
}

std::string Shard::DumpStatsTextLocal(bool sync_clients) {
  if (sync_clients) {
    SyncClientFaultMetrics();
  }
  std::string out = "== AudioFile server stats ==\n";
  char line[256];
  const auto value_line = [&](const std::string& name, uint64_t v) {
    std::snprintf(line, sizeof line, "%-44s %" PRIu64 "\n", name.c_str(), v);
    out += line;
  };
  const auto histogram_line = [&](const std::string& name, const Histogram& h) {
    uint64_t buckets[Histogram::kBuckets];
    h.Snapshot(buckets);
    std::snprintf(line, sizeof line,
                  "%-44s count=%" PRIu64 " sum=%" PRIu64 " p50=%" PRIu64 " p95=%" PRIu64
                  " p99=%" PRIu64 "\n",
                  name.c_str(), h.Count(), h.Sum(), HistogramQuantile(buckets, 0.50),
                  HistogramQuantile(buckets, 0.95), HistogramQuantile(buckets, 0.99));
    out += line;
  };
  ForEachServerSlot<MetricScope::kShard>(
      metrics_, [&](size_t, const char* name, const auto& m) { value_line(name, MetricValue(m)); });
  histogram_line("poll_wake_micros", metrics_.poll_wake_micros);
  for (size_t code = 1; code < kErrorCodeSlots; ++code) {
    value_line("errors.code" + std::to_string(code), metrics_.errors_by_code[code].Value());
  }
  for (const auto& dev : devices_) {
    if (server_.device_owner(dev->id()) != index_) {
      continue;
    }
    const std::string prefix = "dev" + std::to_string(dev->id()) + ".";
    ForEachDeviceSlot(dev->metrics(), [&](size_t, const char* name, const Counter& c) {
      value_line(prefix + name, c.Value());
    });
    histogram_line(prefix + "update_lag_micros", dev->metrics().update_lag_micros);
  }
  for (size_t op = kMinOpcode; op <= kMaxOpcode; ++op) {
    const uint64_t count = metrics_.op_count[op].Value();
    if (count == 0) {
      continue;
    }
    const Histogram& h = metrics_.op_micros[op];
    uint64_t buckets[Histogram::kBuckets];
    h.Snapshot(buckets);
    std::snprintf(line, sizeof line,
                  "dispatch.%-34s count=%" PRIu64 " sum_us=%" PRIu64 " p50=%" PRIu64
                  " p95=%" PRIu64 " p99=%" PRIu64 "\n",
                  OpcodeName(static_cast<Opcode>(op)), count, h.Sum(),
                  HistogramQuantile(buckets, 0.50), HistogramQuantile(buckets, 0.95),
                  HistogramQuantile(buckets, 0.99));
    out += line;
  }
  return out;
}

}  // namespace af
