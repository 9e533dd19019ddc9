// The request dispatcher: the table of protocol request handlers the DIA
// main loop indexes by opcode (CRL 93/8 Section 7.3.1). Runs per shard;
// requests bound to a device or audio context another shard owns are
// forwarded there (the borrow protocol in shard.h) before the switch runs.
#include <mutex>
#include <optional>

#include "common/clock.h"
#include "common/log.h"
#include "server/shard.h"

namespace af {

namespace {

// Decodes a request body or reports BadLength.
template <typename Req>
bool DecodeOrNull(std::span<const uint8_t> body, WireOrder order, Req* out) {
  WireReader r(body, order);
  return Req::Decode(r, out);
}

// Reads word `index` (0-based u32) of a request body; nullopt on a short
// body. Routing peeks the leading resource id this way - every device- or
// AC-bound request leads with it - without decoding the full request.
std::optional<uint32_t> BodyWord(std::span<const uint8_t> body, WireOrder order,
                                 size_t index) {
  WireReader r(body, order);
  uint32_t v = 0;
  for (size_t i = 0; i <= index; ++i) {
    v = r.U32();
  }
  if (!r.ok()) {
    return std::nullopt;
  }
  return v;
}

}  // namespace

uint32_t Shard::RouteTarget(Opcode op, std::span<const uint8_t> body, WireOrder order,
                            ClientConn& client) const {
  const Route route = OpcodeRoute(op);
  if (route == Route::kHome) {
    return index_;
  }
  const std::optional<uint32_t> id =
      BodyWord(body, order, route == Route::kDeviceWord1 ? 1 : 0);
  if (!id.has_value()) {
    return index_;  // BadLength reported locally
  }
  if (route == Route::kACWord0) {
    // The shard holding the ServerAC (the AC's device's owner, recorded in
    // the client's acs() map at CreateAC time). Unknown ids stay local so
    // the ordinary path reports BadAC.
    const auto it = client.acs().find(*id);
    return it == client.acs().end() ? index_ : it->second;
  }
  // Invalid device ids stay local for the ordinary BadDevice path.
  return *id < devices_.size() ? server_.device_owner(*id) : index_;
}

void Shard::SendError(ClientConn& client, AfError code, Opcode opcode, uint32_t value) {
  ErrorPacket pkt;
  pkt.code = code;
  pkt.seq = client.seq();
  pkt.opcode = opcode;
  pkt.value = value;
  pkt.Encode(client.out());
  metrics_.errors_sent.Add();
  metrics_.errors_by_code[static_cast<uint8_t>(code) % kErrorCodeSlots].Add();
}

void Shard::DispatchRequest(const std::shared_ptr<ClientConn>& client,
                            const RequestHeader& header, std::span<const uint8_t> body,
                            ClientConn::Suspended* resumed) {
  ClientConn& c = *client;
  const WireOrder order = c.order();
  const Opcode op = header.opcode;

  // Requests owned by another shard execute there; the connection travels
  // along (borrow protocol). Resumed requests already sit on the owning
  // shard, and a borrowed connection is already at its destination.
  if (resumed == nullptr && !c.borrowed() && server_.num_shards() > 1) {
    const uint32_t target = RouteTarget(op, body, order, c);
    if (target != index_) {
      return ForwardRequest(client, header, body, target);
    }
  }

  switch (op) {
    case Opcode::kSelectEvents: {
      SelectEventsReq req;
      if (!DecodeOrNull(body, order, &req)) {
        return SendError(c, AfError::kBadLength, op);
      }
      if (req.device >= devices_.size()) {
        return SendError(c, AfError::kBadDevice, op, req.device);
      }
      c.SelectEvents(req.device, req.mask & kAllEventsMask);
      OplogRecord rec;
      rec.type = static_cast<uint16_t>(OplogType::kSelectEvents);
      rec.client = c.client_number();
      rec.device = req.device + 1;
      rec.value = req.mask & kAllEventsMask;
      EmitOplog(rec);
      return;
    }

    case Opcode::kCreateAC: {
      CreateACReq req;
      if (!DecodeOrNull(body, order, &req)) {
        return SendError(c, AfError::kBadLength, op);
      }
      if (req.device >= devices_.size()) {
        return SendError(c, AfError::kBadDevice, op, req.device);
      }
      if (!c.OwnsResourceId(req.ac) || acs_.count(req.ac) != 0) {
        return SendError(c, AfError::kBadIDChoice, op, req.ac);
      }
      AudioDevice* dev = devices_[req.device].get();
      ServerAC ac;
      ac.id = req.ac;
      ac.device = dev;
      // Unset attributes default; channels/encoding default to the device's.
      ac.attrs.encoding = dev->desc().play_encoding;
      ac.attrs.channels = dev->desc().play_nchannels;
      if (req.value_mask & kACPlayGain) {
        ac.attrs.play_gain_db = req.attrs.play_gain_db;
      }
      if (req.value_mask & kACRecordGain) {
        ac.attrs.record_gain_db = req.attrs.record_gain_db;
      }
      if (req.value_mask & kACPreemption) {
        ac.attrs.preempt = req.attrs.preempt;
      }
      if (req.value_mask & kACEndian) {
        ac.attrs.big_endian_data = req.attrs.big_endian_data;
      }
      if (req.value_mask & kACEncodingType) {
        ac.attrs.encoding = req.attrs.encoding;
      }
      if (req.value_mask & kACChannels) {
        ac.attrs.channels = req.attrs.channels;
      }
      if (static_cast<uint32_t>(ac.attrs.encoding) >= kNumEncodeTypes) {
        return SendError(c, AfError::kBadValue, op,
                         static_cast<uint32_t>(ac.attrs.encoding));
      }
      const Status s = dev->MakeACOps(ac.attrs, &ac.ops);
      if (!s.ok()) {
        return SendError(c, s.code(), op);
      }
      // The record carries the full effective attribute set (defaults
      // resolved), so the backup's shadow never has to re-derive them.
      OplogRecord rec;
      rec.type = static_cast<uint16_t>(OplogType::kACCreate);
      rec.client = c.client_number();
      rec.device = req.device + 1;
      rec.ac = req.ac;
      rec.value_mask = req.value_mask;
      rec.attrs = ac.attrs;
      acs_.emplace(req.ac, std::move(ac));
      // Record which shard holds the entry so later AC-bound requests (and
      // the reap path) route straight to it.
      c.acs().emplace(req.ac, index_);
      EmitOplog(rec);
      return;
    }

    case Opcode::kChangeACAttributes: {
      ChangeACAttributesReq req;
      if (!DecodeOrNull(body, order, &req)) {
        return SendError(c, AfError::kBadLength, op);
      }
      ServerAC* ac = FindAC(req.ac);
      if (ac == nullptr || c.acs().count(req.ac) == 0) {
        return SendError(c, AfError::kBadAC, op, req.ac);
      }
      ACAttributes attrs = ac->attrs;
      if (req.value_mask & kACPlayGain) {
        attrs.play_gain_db = req.attrs.play_gain_db;
      }
      if (req.value_mask & kACRecordGain) {
        attrs.record_gain_db = req.attrs.record_gain_db;
      }
      if (req.value_mask & kACPreemption) {
        attrs.preempt = req.attrs.preempt;
      }
      if (req.value_mask & kACEndian) {
        attrs.big_endian_data = req.attrs.big_endian_data;
      }
      if (req.value_mask & kACEncodingType) {
        attrs.encoding = req.attrs.encoding;
      }
      if (req.value_mask & kACChannels) {
        attrs.channels = req.attrs.channels;
      }
      if (req.value_mask & (kACEncodingType | kACChannels)) {
        ACOps ops;
        const Status s = ac->device->MakeACOps(attrs, &ops);
        if (!s.ok()) {
          return SendError(c, s.code(), op);
        }
        ac->ops = std::move(ops);
      }
      ac->attrs = attrs;
      // Replicate the full post-change set (not the client's sparse mask):
      // the backup shadow applies by plain overwrite.
      OplogRecord rec;
      rec.type = static_cast<uint16_t>(OplogType::kACChange);
      rec.client = c.client_number();
      rec.device = static_cast<uint32_t>(ac->device->id()) + 1;
      rec.ac = req.ac;
      rec.value_mask = req.value_mask;
      rec.attrs = attrs;
      EmitOplog(rec);
      return;
    }

    case Opcode::kFreeAC: {
      FreeACReq req;
      if (!DecodeOrNull(body, order, &req)) {
        return SendError(c, AfError::kBadLength, op);
      }
      const auto it = acs_.find(req.ac);
      if (it == acs_.end() || c.acs().count(req.ac) == 0) {
        return SendError(c, AfError::kBadAC, op, req.ac);
      }
      if (it->second.recording) {
        it->second.device->ReleaseRecordRef();
      }
      acs_.erase(it);
      c.acs().erase(req.ac);
      OplogRecord rec;
      rec.type = static_cast<uint16_t>(OplogType::kACFree);
      rec.client = c.client_number();
      rec.ac = req.ac;
      EmitOplog(rec);
      return;
    }

    case Opcode::kPlaySamples: {
      PlaySamplesReq req;
      if (!DecodeOrNull(body, order, &req)) {
        return SendError(c, AfError::kBadLength, op);
      }
      ServerAC* ac = FindAC(req.ac);
      if (ac == nullptr) {
        return SendError(c, AfError::kBadAC, op, req.ac);
      }
      const size_t progress = resumed != nullptr ? resumed->play_progress : 0;
      const ATime adj_start =
          req.start_time + static_cast<ATime>(ac->ops.client_bytes_to_frames(progress));
      const bool big_endian = (req.flags & kPlayBigEndianData) != 0;
      PlayOutcome outcome;
      const Status s = ac->device->Play(*ac, adj_start, req.data.subspan(progress),
                                        big_endian, &outcome);
      if (!s.ok()) {
        return SendError(c, s.code(), op);
      }
      if (outcome.would_block) {
        SuspendClient(client, header, body, progress + outcome.consumed_client_bytes,
                      *ac->device, outcome.resume_time);
        return;
      }
      if ((req.flags & kPlaySuppressReply) == 0) {
        PlaySamplesReply reply;
        reply.time = outcome.device_time;
        reply.Encode(c.out(), c.seq());
      }
      // Watermark: how far this device's clock had advanced when the play
      // completed. After a failover the promoted backup fast-forwards the
      // device clock at least this far so resumed streams never rewind.
      OplogRecord rec;
      rec.type = static_cast<uint16_t>(OplogType::kWatermark);
      rec.client = c.client_number();
      rec.device = static_cast<uint32_t>(ac->device->id()) + 1;
      rec.value = outcome.device_time;
      EmitOplog(rec);
      return;
    }

    case Opcode::kRecordSamples: {
      RecordSamplesReq req;
      if (!DecodeOrNull(body, order, &req)) {
        return SendError(c, AfError::kBadLength, op);
      }
      ServerAC* ac = FindAC(req.ac);
      if (ac == nullptr) {
        return SendError(c, AfError::kBadAC, op, req.ac);
      }
      if (req.nbytes > kMaxRequestBytes) {
        return SendError(c, AfError::kBadValue, op, req.nbytes);
      }
      const bool no_block = (req.flags & kRecordNoBlock) != 0;
      const bool big_endian = (req.flags & kRecordBigEndianData) != 0;
      // The span aliases the device's scratch arena; it is serialized into
      // the connection's output buffer before any other device call runs.
      std::span<const uint8_t> data;
      RecordOutcome outcome;
      const Status s = ac->device->Record(*ac, req.start_time, req.nbytes, big_endian,
                                          no_block, &data, &outcome);
      if (!s.ok()) {
        return SendError(c, s.code(), op);
      }
      if (outcome.would_block) {
        SuspendClient(client, header, body, 0, *ac->device, outcome.ready_time);
        return;
      }
      RecordSamplesReply::EncodeTo(c.out(), c.seq(), outcome.device_time, data);
      // Record-only clients observe device time too; replicate it so a
      // promoted backup's clock is never behind a time this reply handed out.
      OplogRecord rec;
      rec.type = static_cast<uint16_t>(OplogType::kWatermark);
      rec.client = c.client_number();
      rec.device = static_cast<uint32_t>(ac->device->id()) + 1;
      rec.value = outcome.device_time;
      EmitOplog(rec);
      return;
    }

    case Opcode::kGetTime: {
      GetTimeReq req;
      if (!DecodeOrNull(body, order, &req)) {
        return SendError(c, AfError::kBadLength, op);
      }
      if (req.device >= devices_.size()) {
        return SendError(c, AfError::kBadDevice, op, req.device);
      }
      GetTimeReply reply;
      reply.time = devices_[req.device]->GetTime();
      reply.Encode(c.out(), c.seq());
      // GetTime hands a device time to the client like a play/record reply
      // does, so it must push the replicated watermark forward as well.
      OplogRecord rec;
      rec.type = static_cast<uint16_t>(OplogType::kWatermark);
      rec.client = c.client_number();
      rec.device = req.device + 1;
      rec.value = reply.time;
      EmitOplog(rec);
      return;
    }

    case Opcode::kResyncTime: {
      // Failover re-anchor (PR 8): a reconnecting client reports the last
      // device time it observed before the old server died; the reply
      // carries this server's current clock plus its promotion state so
      // the client can measure the audio gap the outage cost it.
      ResyncTimeReq req;
      if (!DecodeOrNull(body, order, &req)) {
        return SendError(c, AfError::kBadLength, op);
      }
      if (req.device >= devices_.size()) {
        return SendError(c, AfError::kBadDevice, op, req.device);
      }
      metrics_.resyncs.Add();
      ResyncTimeReply reply;
      reply.server_time = devices_[req.device]->GetTime();
      reply.promoted_watermark = server_.promoted_watermark(req.device);
      reply.promoted = server_.promoted() ? 1 : 0;
      uint64_t gap = 0;
      if (req.client_watermark != 0 &&
          TimeAfter(reply.server_time, req.client_watermark)) {
        gap = static_cast<uint64_t>(
            TimeDelta(reply.server_time, req.client_watermark));
      }
      if (trace_->enabled()) {
        TraceEvent ev;
        ev.kind = static_cast<uint8_t>(TraceKind::kResync);
        ev.arg = static_cast<uint8_t>(req.device);
        ev.conn = c.client_number();
        ev.host_us = HostMicros();
        ev.value = gap;
        // A replayed resync keeps the correlation ID the client minted
        // before the failover, tying the re-anchor to the original request.
        ev.corr = CurrentTraceCorr();
        trace_->Record(ev);
      }
      reply.Encode(c.out(), c.seq());
      return;
    }

    case Opcode::kQueryPhone: {
      QueryPhoneReq req;
      if (!DecodeOrNull(body, order, &req)) {
        return SendError(c, AfError::kBadLength, op);
      }
      if (req.device >= devices_.size()) {
        return SendError(c, AfError::kBadDevice, op, req.device);
      }
      bool off_hook = false;
      bool loop = false;
      const Status s = devices_[req.device]->QueryPhone(&off_hook, &loop);
      if (!s.ok()) {
        return SendError(c, s.code(), op);
      }
      QueryPhoneReply reply;
      reply.off_hook = off_hook ? 1 : 0;
      reply.loop_current = loop ? 1 : 0;
      reply.Encode(c.out(), c.seq());
      return;
    }

    case Opcode::kEnablePassThrough:
    case Opcode::kDisablePassThrough: {
      PassThroughReq req;
      if (!DecodeOrNull(body, order, &req)) {
        return SendError(c, AfError::kBadLength, op);
      }
      if (req.device_a >= devices_.size() || req.device_b >= devices_.size()) {
        return SendError(c, AfError::kBadDevice, op);
      }
      // Pass-through wires two devices' update paths together; both must
      // live on the same shard's loop thread.
      if (server_.device_owner(req.device_a) != server_.device_owner(req.device_b)) {
        return SendError(c, AfError::kBadMatch, op, req.device_b);
      }
      const bool enable = op == Opcode::kEnablePassThrough;
      const Status s =
          devices_[req.device_a]->SetPassThrough(devices_[req.device_b].get(), enable);
      if (!s.ok()) {
        return SendError(c, s.code(), op);
      }
      return;
    }

    case Opcode::kHookSwitch: {
      HookSwitchReq req;
      if (!DecodeOrNull(body, order, &req)) {
        return SendError(c, AfError::kBadLength, op);
      }
      if (req.device >= devices_.size()) {
        return SendError(c, AfError::kBadDevice, op, req.device);
      }
      const Status s = devices_[req.device]->HookSwitch(req.off_hook != 0);
      if (!s.ok()) {
        return SendError(c, s.code(), op);
      }
      return;
    }

    case Opcode::kFlashHook: {
      FlashHookReq req;
      if (!DecodeOrNull(body, order, &req)) {
        return SendError(c, AfError::kBadLength, op);
      }
      if (req.device >= devices_.size()) {
        return SendError(c, AfError::kBadDevice, op, req.device);
      }
      const Status s = devices_[req.device]->FlashHook(req.duration_ms);
      if (!s.ok()) {
        return SendError(c, s.code(), op);
      }
      return;
    }

    case Opcode::kEnableGainControl:
    case Opcode::kDisableGainControl: {
      GainControlReq req;
      if (!DecodeOrNull(body, order, &req)) {
        return SendError(c, AfError::kBadLength, op);
      }
      if (req.device >= devices_.size()) {
        return SendError(c, AfError::kBadDevice, op, req.device);
      }
      const Status s =
          devices_[req.device]->SetGainControl(op == Opcode::kEnableGainControl);
      if (!s.ok()) {
        return SendError(c, s.code(), op);
      }
      return;
    }

    case Opcode::kDialPhone:
      // Retired: clients dial by synthesizing DTMF with device-time-exact
      // playback (Section 5.5).
      return SendError(c, AfError::kObsolete, op);

    case Opcode::kSetInputGain:
    case Opcode::kSetOutputGain: {
      SetGainReq req;
      if (!DecodeOrNull(body, order, &req)) {
        return SendError(c, AfError::kBadLength, op);
      }
      if (req.device >= devices_.size()) {
        return SendError(c, AfError::kBadDevice, op, req.device);
      }
      AudioDevice* dev = devices_[req.device].get();
      const bool input = op == Opcode::kSetInputGain;
      const Status s = input ? dev->SetInputGain(req.gain_db)
                             : dev->SetOutputGain(req.gain_db);
      if (!s.ok()) {
        return SendError(c, s.code(), op, static_cast<uint32_t>(req.gain_db));
      }
      // Replicate the gain the device settled on (it may clamp), not the
      // requested one.
      OplogRecord rec;
      rec.type = static_cast<uint16_t>(input ? OplogType::kInputGain
                                             : OplogType::kOutputGain);
      rec.client = c.client_number();
      rec.device = req.device + 1;
      rec.value = static_cast<uint64_t>(static_cast<int64_t>(
          input ? dev->input_gain_db() : dev->output_gain_db()));
      EmitOplog(rec);
      return;
    }

    case Opcode::kQueryInputGain:
    case Opcode::kQueryOutputGain: {
      QueryGainReq req;
      if (!DecodeOrNull(body, order, &req)) {
        return SendError(c, AfError::kBadLength, op);
      }
      if (req.device >= devices_.size()) {
        return SendError(c, AfError::kBadDevice, op, req.device);
      }
      QueryGainReply reply;
      reply.gain_db = op == Opcode::kQueryInputGain ? devices_[req.device]->input_gain_db()
                                                    : devices_[req.device]->output_gain_db();
      reply.min_db = kGainMinDb;
      reply.max_db = kGainMaxDb;
      reply.Encode(c.out(), c.seq());
      return;
    }

    case Opcode::kEnableInput:
    case Opcode::kEnableOutput:
    case Opcode::kDisableInput:
    case Opcode::kDisableOutput: {
      IOEnableReq req;
      if (!DecodeOrNull(body, order, &req)) {
        return SendError(c, AfError::kBadLength, op);
      }
      if (req.device >= devices_.size()) {
        return SendError(c, AfError::kBadDevice, op, req.device);
      }
      AudioDevice* dev = devices_[req.device].get();
      Status s;
      switch (op) {
        case Opcode::kEnableInput:
          s = dev->EnableInput(req.mask);
          break;
        case Opcode::kEnableOutput:
          s = dev->EnableOutput(req.mask);
          break;
        case Opcode::kDisableInput:
          s = dev->DisableInput(req.mask);
          break;
        default:
          s = dev->DisableOutput(req.mask);
          break;
      }
      if (!s.ok()) {
        return SendError(c, s.code(), op);
      }
      // Replicate the resulting absolute mask (enable and disable collapse
      // to one record type per direction; the shadow holds the final mask).
      const bool input = op == Opcode::kEnableInput || op == Opcode::kDisableInput;
      OplogRecord rec;
      rec.type = static_cast<uint16_t>(input ? OplogType::kEnableInput
                                             : OplogType::kEnableOutput);
      rec.client = c.client_number();
      rec.device = req.device + 1;
      rec.value = input ? dev->input_enable_mask() : dev->output_enable_mask();
      EmitOplog(rec);
      return;
    }

    case Opcode::kSetAccessControl: {
      SetAccessControlReq req;
      if (!DecodeOrNull(body, order, &req)) {
        return SendError(c, AfError::kBadLength, op);
      }
      if (!c.peer().IsLocal()) {
        return SendError(c, AfError::kBadAccess, op);
      }
      std::lock_guard<std::mutex> lock(shared_mu_);
      access_.SetEnabled(req.enabled != 0);
      return;
    }

    case Opcode::kChangeHosts: {
      ChangeHostsReq req;
      if (!DecodeOrNull(body, order, &req)) {
        return SendError(c, AfError::kBadLength, op);
      }
      if (!c.peer().IsLocal()) {
        return SendError(c, AfError::kBadAccess, op);
      }
      std::lock_guard<std::mutex> lock(shared_mu_);
      if (req.mode == HostChangeMode::kInsert) {
        access_.AddHost(static_cast<uint16_t>(req.family), std::move(req.address));
      } else {
        access_.RemoveHost(static_cast<uint16_t>(req.family), req.address);
      }
      return;
    }

    case Opcode::kListHosts: {
      ListHostsReply reply;
      {
        std::lock_guard<std::mutex> lock(shared_mu_);
        reply.enabled = access_.enabled() ? 1 : 0;
        reply.hosts = access_.hosts();
      }
      reply.Encode(c.out(), c.seq());
      return;
    }

    case Opcode::kInternAtom: {
      InternAtomReq req;
      if (!DecodeOrNull(body, order, &req)) {
        return SendError(c, AfError::kBadLength, op);
      }
      InternAtomReply reply;
      {
        std::lock_guard<std::mutex> lock(shared_mu_);
        reply.atom = atoms_.Intern(req.name, req.only_if_exists != 0);
      }
      reply.Encode(c.out(), c.seq());
      return;
    }

    case Opcode::kGetAtomName: {
      GetAtomNameReq req;
      if (!DecodeOrNull(body, order, &req)) {
        return SendError(c, AfError::kBadLength, op);
      }
      std::optional<std::string> name;
      {
        std::lock_guard<std::mutex> lock(shared_mu_);
        name = atoms_.NameOf(req.atom);
      }
      if (!name.has_value()) {
        return SendError(c, AfError::kBadAtom, op, req.atom);
      }
      GetAtomNameReply reply;
      reply.name = *name;
      reply.Encode(c.out(), c.seq());
      return;
    }

    case Opcode::kChangeProperty: {
      ChangePropertyReq req;
      if (!DecodeOrNull(body, order, &req)) {
        return SendError(c, AfError::kBadLength, op);
      }
      if (req.device >= devices_.size()) {
        return SendError(c, AfError::kBadDevice, op, req.device);
      }
      bool atoms_ok;
      {
        std::lock_guard<std::mutex> lock(shared_mu_);
        atoms_ok = atoms_.Exists(req.property) && atoms_.Exists(req.type);
      }
      if (!atoms_ok) {
        return SendError(c, AfError::kBadAtom, op, req.property);
      }
      const Status s = properties_[req.device]->Change(req.property, req.type, req.format,
                                                       req.mode, std::move(req.data));
      if (!s.ok()) {
        return SendError(c, s.code(), op);
      }
      return;
    }

    case Opcode::kDeleteProperty: {
      DeletePropertyReq req;
      if (!DecodeOrNull(body, order, &req)) {
        return SendError(c, AfError::kBadLength, op);
      }
      if (req.device >= devices_.size()) {
        return SendError(c, AfError::kBadDevice, op, req.device);
      }
      const Status s = properties_[req.device]->Delete(req.property);
      if (!s.ok()) {
        return SendError(c, s.code(), op);
      }
      return;
    }

    case Opcode::kGetProperty: {
      GetPropertyReq req;
      if (!DecodeOrNull(body, order, &req)) {
        return SendError(c, AfError::kBadLength, op);
      }
      if (req.device >= devices_.size()) {
        return SendError(c, AfError::kBadDevice, op, req.device);
      }
      GetPropertyReply reply;
      const Status s = properties_[req.device]->Get(req.property, req.type, req.long_offset,
                                                    req.long_length, req.do_delete != 0,
                                                    &reply);
      if (!s.ok()) {
        return SendError(c, s.code(), op);
      }
      reply.Encode(c.out(), c.seq());
      return;
    }

    case Opcode::kListProperties: {
      ListPropertiesReq req;
      if (!DecodeOrNull(body, order, &req)) {
        return SendError(c, AfError::kBadLength, op);
      }
      if (req.device >= devices_.size()) {
        return SendError(c, AfError::kBadDevice, op, req.device);
      }
      ListPropertiesReply reply;
      reply.atoms = properties_[req.device]->List();
      reply.Encode(c.out(), c.seq());
      return;
    }

    case Opcode::kNoOperation:
      return;

    case Opcode::kSyncConnection: {
      EmptyReply reply;
      reply.Encode(c.out(), c.seq());
      return;
    }

    case Opcode::kQueryExtension:
    case Opcode::kListExtensions:
    case Opcode::kKillClient:
      return SendError(c, AfError::kNotImplemented, op);

    case Opcode::kGetServerStats: {
      ServerStatsWire stats;
      server_.AggregateStats(&stats, this);
      stats.Encode(c.out(), c.seq());
      return;
    }

    case Opcode::kGetTrace: {
      GetTraceReq req;
      if (!DecodeOrNull(body, order, &req)) {
        return SendError(c, AfError::kBadLength, op);
      }
      if (server_.num_shards() == 1) {
        TraceWire trace;
        SnapshotTraceLocal(req.flags, &trace);
        trace.Encode(c.out(), c.seq());
        return;
      }
      // Every shard's window must drain on its own thread; freeze the
      // connection and gather asynchronously. The reply encodes when the
      // last window lands (FinishTraceGather).
      c.BeginRemote(static_cast<uint8_t>(op), HostMicros(), header.TotalBytes(),
                    index_, CurrentTraceCorr());
      StartTraceGather(client, req.flags);
      return;
    }
  }

  SendError(c, AfError::kBadRequest, op, static_cast<uint32_t>(op));
}

}  // namespace af
