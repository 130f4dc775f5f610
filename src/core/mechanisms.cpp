#include "core/mechanisms.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/stable_storage.hpp"
#include "obs/spans.hpp"
#include "util/log.hpp"

namespace eternal::core {

namespace {

constexpr const char* kTag = "eternal";

GroupId group_of_endpoint(const orb::Endpoint& e) {
  return GroupId{e.host.value - orb::kGroupHostBase};
}

}  // namespace

Mechanisms::Mechanisms(sim::Simulator& sim, NodeId node, interceptor::Interceptor& tap,
                       std::vector<totem::TotemNode*> rings,
                       const RingPlacement* placement, MechanismsConfig config)
    : sim_(sim),
      node_(node),
      tap_(tap),
      totems_(std::move(rings)),
      placement_(placement),
      config_(config),
      rec_(sim.recorder()),
      ctr_req_dup_(rec_.counter("mech.duplicate_requests_suppressed")),
      ctr_reply_dup_(rec_.counter("mech.duplicate_replies_suppressed")),
      ctr_requests_injected_(rec_.counter("mech.requests_injected")),
      ctr_state_transfers_(rec_.counter("mech.state_transfers_completed")) {
  if (totems_.empty()) {
    throw std::invalid_argument("Mechanisms: need at least one ring endpoint");
  }
  if (placement_ != nullptr && placement_->rings() > totems_.size()) {
    throw std::invalid_argument(
        "Mechanisms: placement names more rings than endpoints exist");
  }
  if (config_.bulk_lane && config_.state_chunk_bytes == 0) {
    throw std::invalid_argument("Mechanisms: bulk_lane needs state_chunk_bytes > 0");
  }
  tap_.divert_to(*this);
  if (!config_.stable_storage_dir.empty()) {
    storage_ = std::make_unique<StableStorage>(config_.stable_storage_dir);
  }
}

Mechanisms::~Mechanisms() = default;

void Mechanisms::set_phase(LocalReplica& r, Phase phase) {
  r.phase = phase;
  const char* name = "?";
  switch (phase) {
    case Phase::kRecovering: name = "recovering"; break;
    case Phase::kOperational: name = "operational"; break;
    case Phase::kBackup: name = "backup"; break;
    case Phase::kReplaying: name = "replaying"; break;
    case Phase::kDead: name = "dead"; break;
  }
  record_phase(r.group, r.id, name);
}

void Mechanisms::record_phase(GroupId group, ReplicaId replica, const char* phase) {
  const GroupEntry* entry = table_.find(group);
  rec_.record(node_, obs::Layer::kMech, "phase", replica.value,
              {{"group", group.value},
               {"replica", replica.value},
               obs::Field::text_field("phase", phase),
               obs::Field::text_field(
                   "style", entry ? to_string(entry->desc.properties.style) : "?"),
               obs::when(totems_.size() > 1, {"ring", ring_of(group)})});
}

void Mechanisms::persist_log(GroupId group) {
  if (storage_ == nullptr) return;
  const GroupEntry* entry = table_.find(group);
  auto log_it = logs_.find(group.value);
  if (entry == nullptr || log_it == logs_.end()) return;
  if (!storage_->persist(entry->desc, log_it->second)) {
    // The previous base record is still loadable (storage failure contract),
    // so recovery loses only what this compaction would have added.
    stats_.storage_persist_failures += 1;
    ETERNAL_LOG(kWarn, kTag,
                "node " << node_.value << ": stable-storage persist failed for group "
                        << group.value);
    rec_.record(node_, obs::Layer::kMech, "storage_fault", group.value,
                {{"group", group.value}, {"op", "persist"}});
  }
}

void Mechanisms::persist_append(GroupId group, const RetainedEnvelope& message) {
  if (storage_ == nullptr) return;
  const GroupEntry* entry = table_.find(group);
  auto log_it = logs_.find(group.value);
  if (entry == nullptr || log_it == logs_.end()) return;
  if (!storage_->append(entry->desc, log_it->second, message)) {
    stats_.storage_append_failures += 1;
    ETERNAL_LOG(kWarn, kTag,
                "node " << node_.value << ": stable-storage append failed for group "
                        << group.value << "; message op_seq " << message.op_seq);
    rec_.record(node_, obs::Layer::kMech, "storage_fault", group.value,
                {{"group", group.value}, {"op", "append"}, {"op_seq", message.op_seq}});
  }
}

std::vector<GroupDescriptor> Mechanisms::stored_groups() const {
  std::vector<GroupDescriptor> out;
  if (storage_ == nullptr) return out;
  for (GroupId id : storage_->stored_groups()) {
    auto record = storage_->load(id);
    if (record) out.push_back(record->descriptor);
  }
  return out;
}

void Mechanisms::apply_stored_log(GroupId group) {
  auto record = storage_->load(group);
  if (!record) return;
  MessageLog& log = logs_[group.value];
  log.clear();
  if (record->checkpoint) log.set_checkpoint(*record->checkpoint);
  for (Envelope& d : record->deltas) log.set_checkpoint(std::move(d));
  for (Envelope& e : record->messages) log.append(std::move(e));
  cold_restart(group);
}

bool Mechanisms::restore_from_storage(GroupId group) {
  if (storage_ == nullptr) return false;
  auto record = storage_->load(group);
  if (!record) return false;
  if (factories_.count(group.value) == 0) return false;
  if (table_.find(group) == nullptr) {
    // The whole system restarted: re-create the group, then restore when
    // the creation delivers (see react() on kGroupCreated).
    pending_restores_.insert(group.value);
    create_group(record->descriptor, {});
    return true;
  }
  apply_stored_log(group);
  return true;
}

std::uint64_t Mechanisms::multicast(Envelope&& e) {
  // Every envelope about a group rides that group's ring and carries the
  // ring index on the wire — delivery rejects a stamp that does not match
  // the arrival ring, so a misrouted envelope can never slip into another
  // ring's total order.
  e.ring = ring_of(e.target_group);
  totem::TotemNode& endpoint = *totems_[e.ring];
  if (endpoint.is_down()) {
    // The processor (or just this ring's endpoint) crashed under us
    // (System::crash_node / crash_ring_member): locally scheduled periodic
    // work — checkpoint ticks, fault-detector probes — may still fire in
    // the simulation, but a dead endpoint puts nothing on the medium.
    stats_.outbound_unroutable += 1;
    return 0;
  }
  stats_.multicasts += 1;
  return endpoint.multicast(to_outbound(std::move(e)));
}

void Mechanisms::multicast_copy(Envelope&& e, RacedStream* stream) {
  const std::uint64_t op_seq = e.op_seq;
  const std::uint64_t handle = multicast(std::move(e));
  if (stream != nullptr) stream->queued(op_seq, handle);
}

RacedStream* Mechanisms::raced_stream(const Envelope& e) {
  const bool request = e.kind == EnvelopeKind::kRequest;
  if (!raced(request ? e.client_group : e.target_group)) return nullptr;
  return &(request ? req_seen_ : reply_seen_)[{e.client_group.value, e.target_group.value}];
}

bool Mechanisms::first_delivery(RacedStream& stream, GroupId group, std::uint64_t seq,
                                std::uint64_t& withdrawn) {
  return stream.deliver(seq, [&](std::uint64_t handle) {
    if (totem_for(group).withdraw(handle)) withdrawn += 1;
  });
}

bool Mechanisms::raced(GroupId group) const {
  const GroupEntry* entry = table_.find(group);
  return entry != nullptr && entry->desc.properties.style == ReplicationStyle::kActive &&
         entry->members.size() > 1;
}

// ----------------------------------------------------------- deployment API

void Mechanisms::register_factory(GroupId group, ServantFactory factory) {
  factories_[group.value] = std::move(factory);
}

void Mechanisms::bind_client(GroupId client_group, GroupId server_group) {
  client_binding_[server_group.value] = client_group.value;
}

void Mechanisms::create_group(const GroupDescriptor& desc,
                              const std::vector<ReplicaInfo>& initial_members) {
  Envelope e;
  e.kind = EnvelopeKind::kControl;
  e.control_op = ControlOp::kCreateGroup;
  e.target_group = desc.id;
  e.control_data = encode_descriptor(desc);
  std::vector<InitialMember> members;
  members.reserve(initial_members.size());
  for (const ReplicaInfo& m : initial_members) members.push_back(InitialMember{m.id, m.node});
  e.payload = encode_initial_members(members);
  multicast(std::move(e));
}

ReplicaId Mechanisms::launch_replica(GroupId group) {
  const ReplicaId id = allocate_replica_id();
  do_launch(group, id, /*as_recovering=*/true);
  Envelope e;
  e.kind = EnvelopeKind::kControl;
  e.control_op = ControlOp::kAddReplica;
  e.target_group = group;
  e.subject = id;
  e.subject_node = node_;
  // Advertise the local log's reconstructable epoch so the state source can
  // ship a delta over it instead of the full state (a same-node relaunch
  // keeps its checkpoint+message log across the kill).
  if (config_.delta_chain_cap > 0) {
    auto log_it = logs_.find(group.value);
    if (log_it != logs_.end()) e.delta_base = log_it->second.tip_epoch();
  }
  multicast(std::move(e));
  return id;
}

void Mechanisms::do_launch(GroupId group, ReplicaId id, bool as_recovering) {
  auto fit = factories_.find(group.value);
  if (fit == factories_.end()) {
    throw std::logic_error("Mechanisms: no servant factory registered for group");
  }
  const GroupEntry* entry = table_.find(group);
  if (entry == nullptr) throw std::logic_error("Mechanisms: launch for unknown group");
  if (LocalReplica* existing = local_replica(group)) {
    if (existing->phase != Phase::kDead) {
      throw std::logic_error("Mechanisms: node already hosts a live replica of this group");
    }
    // Re-launch over a dead replica: make sure its death is reported (the
    // fault detector may not have fired yet), then discard the carcass.
    if (!existing->removal_reported) {
      existing->removal_reported = true;
      Envelope remove;
      remove.kind = EnvelopeKind::kControl;
      remove.control_op = ControlOp::kRemoveReplica;
      remove.target_group = group;
      remove.subject = existing->id;
      remove.subject_node = node_;
      multicast(std::move(remove));
    }
    sim_.cancel(existing->checkpoint_timer);
    sim_.cancel(existing->detector_timer);
    replicas_.erase(group.value);
  }

  // The engine's admission window is the hosting ORB's POA window: more
  // FOMs than the POA admits would only queue inside the POA.
  auto replica = std::make_unique<LocalReplica>(tap_.orb().config().poa_max_inflight);
  replica->id = id;
  replica->group = group;
  replica->servant = fit->second();
  replica->launched_at = sim_.now();
  tap_.orb().root_poa().activate(entry->desc.object_id, replica->servant,
                                 entry->desc.type_id);

  if (as_recovering) {
    set_phase(*replica, Phase::kRecovering);
  } else if (entry->desc.properties.style == ReplicationStyle::kActive) {
    set_phase(*replica, Phase::kOperational);
  } else {
    const ReplicaInfo* primary = entry->primary();
    set_phase(*replica, (primary != nullptr && primary->id == id) ? Phase::kOperational
                                                                  : Phase::kBackup);
  }

  LocalReplica& r = *replica;
  replicas_[group.value] = std::move(replica);
  arm_fault_detector(r);
  maybe_start_checkpoint_timer(r);
  if (as_recovering) {
    if (obs::SpanStore* spans = rec_.spans())
      spans->recovery().launched(group, id, node_, sim_.now());
  }
  ETERNAL_LOG(kDebug, kTag,
              util::to_string(node_) << " launched " << util::to_string(id) << " of "
                                     << util::to_string(group)
                                     << (as_recovering ? " (recovering)" : ""));
}

void Mechanisms::kill_replica(GroupId group) {
  LocalReplica* r = local_replica(group);
  if (r == nullptr || r->phase == Phase::kDead) return;
  const GroupEntry* entry = table_.find(group);
  if (entry != nullptr) tap_.orb().root_poa().deactivate(entry->desc.object_id);
  // The replica process dies, and its ORB instance (and all per-connection
  // ORB state) dies with it.
  tap_.orb().reset_connections();
  sim_.cancel(r->checkpoint_timer);
  set_phase(*r, Phase::kDead);
  r->pending.clear();
  // In-flight FOMs and parked replies die with the process; a relaunch gets
  // a fresh engine (do_launch), so stale grace timers can never retire into
  // the new incarnation (they check the replica id).
  r->engine.reset();
  // The dead process's local request ids are meaningless now; the group-
  // level counters and handshake material survive in the mechanisms.
  for (auto& [key, conn] : outbound_) {
    if (key.first == group.value) conn.group_to_local.clear();
  }
  ETERNAL_LOG(kDebug, kTag,
              util::to_string(node_) << " replica of " << util::to_string(group) << " killed");
}

void Mechanisms::request_launch(GroupId group, NodeId node) {
  Envelope e;
  e.kind = EnvelopeKind::kControl;
  e.control_op = ControlOp::kLaunchReplica;
  e.target_group = group;
  e.subject_node = node;
  multicast(std::move(e));
}

giop::Ior Mechanisms::group_ior(GroupId group) const {
  const GroupEntry* entry = table_.find(group);
  if (entry == nullptr) throw std::logic_error("Mechanisms: unknown group");
  giop::Ior ior;
  ior.type_id = entry->desc.type_id;
  const orb::Endpoint e = orb::group_endpoint(group);
  ior.host = e.host;
  ior.port = e.port;
  ior.object_key = util::bytes_of(entry->desc.object_id);
  ior.orb_vendor = tap_.orb().config().vendor_id;
  ior.code_sets = tap_.orb().config().code_sets;
  return ior;
}

// -------------------------------------------------------------- inspection

Mechanisms::LocalReplica* Mechanisms::local_replica(GroupId group) {
  auto it = replicas_.find(group.value);
  return it == replicas_.end() ? nullptr : it->second.get();
}

const Mechanisms::LocalReplica* Mechanisms::local_replica(GroupId group) const {
  auto it = replicas_.find(group.value);
  return it == replicas_.end() ? nullptr : it->second.get();
}

const MessageLog* Mechanisms::log_of(GroupId group) const {
  auto it = logs_.find(group.value);
  return it == logs_.end() ? nullptr : &it->second;
}

bool Mechanisms::hosts_operational(GroupId group) const {
  const LocalReplica* r = local_replica(group);
  return r != nullptr && (r->phase == Phase::kOperational || r->phase == Phase::kBackup);
}

bool Mechanisms::hosts_recovering(GroupId group) const {
  const LocalReplica* r = local_replica(group);
  return r != nullptr && (r->phase == Phase::kRecovering || r->phase == Phase::kReplaying);
}

std::size_t Mechanisms::queued_messages(GroupId group) const {
  const LocalReplica* r = local_replica(group);
  return r == nullptr ? 0 : r->pending.size();
}

// --------------------------------------------------------- outbound capture

GroupId Mechanisms::client_group_for(GroupId server_group) {
  auto it = client_binding_.find(server_group.value);
  if (it != client_binding_.end()) return GroupId{it->second};
  if (replicas_.size() == 1) return GroupId{replicas_.begin()->first};
  return GroupId{0};
}

Mechanisms::OutboundConn& Mechanisms::outbound_conn(GroupId client_group,
                                                    GroupId server_group) {
  auto key = std::make_pair(client_group.value, server_group.value);
  auto [it, inserted] = outbound_.try_emplace(key);
  if (inserted) {
    it->second.client_group = client_group;
    it->second.server_group = server_group;
  }
  return it->second;
}

void Mechanisms::on_outbound(const orb::Endpoint& to, util::Bytes iiop) {
  std::optional<giop::Inspection> info = giop::inspect(iiop);
  if (!info) {
    stats_.outbound_unroutable += 1;
    return;
  }
  switch (info->type) {
    case giop::MsgType::kRequest:
      capture_request(to, std::move(iiop), *info);
      return;
    case giop::MsgType::kReply:
      capture_reply(to, std::move(iiop), *info);
      return;
    default:
      return;  // Locate/Cancel/Close are not conveyed by this prototype
  }
}

std::uint64_t Mechanisms::trace_of(const EnvelopeHeader& e,
                                   const giop::Inspection& info) const {
  if (rec_.spans() == nullptr || info.has_context(giop::kVendorHandshakeContextId)) return 0;
  // Minted deterministically, not with new_trace(): every replica of an
  // actively replicated client derives the same id for the same logical
  // invocation, so the duplicates' root spans collapse via begin_named and
  // the first delivered copy closes the one tree (no orphaned second root).
  return obs::derived_trace_id(e.client_group, e.target_group, e.op_seq);
}

void Mechanisms::capture_request(const orb::Endpoint& to, util::Bytes iiop,
                                 const giop::Inspection& info) {
  if (!orb::is_group_endpoint(to)) {
    stats_.outbound_unroutable += 1;
    ETERNAL_LOG(kWarn, kTag, "captured request to non-group endpoint; dropped");
    return;
  }
  const GroupId server_group = group_of_endpoint(to);
  const GroupId client_group = client_group_for(server_group);
  if (client_group.value == 0) {
    stats_.outbound_unroutable += 1;
    ETERNAL_LOG(kWarn, kTag, "no client-group binding for outbound request; dropped");
    return;
  }
  OutboundConn& conn = outbound_conn(client_group, server_group);
  const bool is_handshake = info.has_context(giop::kVendorHandshakeContextId);

  // A recovering client replica's fresh ORB re-initiates the handshake the
  // group already performed. Eternal answers it locally from the stored
  // reply — the server groups never see it (§4.2.2, client side).
  if (is_handshake && conn.handshake_done && config_.replay_handshakes &&
      !conn.handshake_reply.empty()) {
    stats_.handshakes_answered_locally += 1;
    tap_.inject(to, giop::copy_with_request_id(conn.handshake_reply, info.request_id));
    return;
  }

  // Group-consistent request_id: with synchronization on, Eternal assigns
  // the next group-wide id and rewrites the GIOP header — translation at the
  // interception boundary, never inside the ORB (§4.2.1); with the ablation
  // off, the ORB's own (possibly divergent) id goes out unmodified.
  std::uint64_t group_rid;
  util::Bytes wire = std::move(iiop);
  if (config_.sync_request_ids) {
    group_rid = conn.next_group_rid++;
    if (group_rid != info.request_id) {
      giop::set_request_id(wire, static_cast<std::uint32_t>(group_rid));
    }
  } else {
    group_rid = info.request_id;
    conn.next_group_rid = std::max(conn.next_group_rid, group_rid + 1);
  }
  // The reply retires the translation at its first delivery; a slow sibling
  // whose reply was delivered before it issued the request keeps none.
  auto replies = reply_seen_.find(std::make_pair(client_group.value, server_group.value));
  const bool answered = replies != reply_seen_.end() && replies->second.delivered(group_rid);
  if (!answered) conn.group_to_local.insert_or_assign(group_rid, info.request_id);
  if (!is_handshake) {
    rec_.record(node_, obs::Layer::kMech, "rid_translate", group_rid,
                {{"client", client_group.value},
                 {"server", server_group.value},
                 {"local_rid", info.request_id}});
  }

  // Passive log replay: a promoted primary re-issues nested invocations the
  // old primary already performed; if the group already has the reply, it is
  // answered locally instead of re-invoking the servers.
  LocalReplica* issuer = local_replica(client_group);
  if (issuer != nullptr && issuer->phase == Phase::kReplaying) {
    if (const util::SharedSlice* cached = conn.reply_cache.find(group_rid)) {
      stats_.replies_answered_from_cache += 1;
      tap_.inject(to, giop::copy_with_request_id(*cached, info.request_id));
      return;
    }
  }

  if (is_handshake) {
    conn.handshake_group_rid = group_rid;
    conn.handshake_request = wire;
  }

  Envelope e;
  e.kind = EnvelopeKind::kRequest;
  e.client_group = client_group;
  e.target_group = server_group;
  e.op_seq = group_rid;
  // Every replica of an active client group issues the invocation; once a
  // sibling's copy has delivered, this one stays off the ring.
  RacedStream* const stream = raced_stream(e);
  if (stream != nullptr && stream->delivered(group_rid)) {
    stats_.requests_withdrawn += 1;
    // A slow sibling whose reply was delivered here before its ORB sent the
    // request: that reply went in untranslated and found no request. It
    // answers the late copy now, like a replayed invocation. Only a
    // group-consistent id names the same invocation as the cached reply's.
    if (answered && config_.sync_request_ids) {
      if (const util::SharedSlice* cached = conn.reply_cache.find(group_rid)) {
        stats_.replies_answered_from_cache += 1;
        tap_.inject(to, giop::copy_with_request_id(*cached, info.request_id));
      }
    }
    return;
  }

  // Causal span tracing: open the invocation's root span here, at the point
  // of interception. Every later hop (ordering, delivery, execution, reply)
  // derives the same trace id from the envelope it handles and attaches to
  // the same tree; the wire bytes are the same with spans on or off.
  if (const obs::TraceId trace = trace_of(e, info)) {
    obs::SpanStore* const spans = rec_.spans();
    const obs::SpanId root = spans->begin_named(
        trace, 0, node_, obs::Layer::kMech, "invocation", sim_.now(),
        {{"client", client_group.value}, {"server", server_group.value}, {"op_seq", group_rid}});
    spans->begin_named(trace, root, node_, obs::Layer::kTotem, "order-wait",
                       sim_.now());
  }

  e.payload = std::move(wire);
  multicast_copy(std::move(e), stream);
}

void Mechanisms::capture_reply(const orb::Endpoint& to, util::Bytes iiop,
                               const giop::Inspection& info) {
  // Handshake replies produced by the server-side ORB.
  auto hs = handshake_flights_.find(std::make_pair(to, info.request_id));
  if (hs != handshake_flights_.end() && !hs->second.empty()) {
    const HandshakeFlight flight = hs->second.front();
    hs->second.erase(hs->second.begin());
    if (hs->second.empty()) handshake_flights_.erase(hs);
    if (flight.replay) {
      // The reply to an artificially re-injected handshake only confirms the
      // ORB/POA-level synchronization; it is discarded (§4.2.2).
      return;
    }
    Envelope e;
    e.kind = EnvelopeKind::kReply;
    e.client_group = group_of_endpoint(to);
    e.target_group = flight.server_group;
    e.op_seq = info.request_id;
    e.payload = std::move(iiop);
    RacedStream* const stream = raced_stream(e);
    if (stream != nullptr && stream->delivered(e.op_seq)) {
      stats_.replies_withdrawn += 1;
      return;
    }
    multicast_copy(std::move(e), stream);
    return;
  }

  // Replies of a local replica's in-flight FOMs: requests answer a client
  // group, fabricated state operations the Recovery Mechanisms' own
  // endpoint.
  capture_fom_reply(to, iiop, info);
}

}  // namespace eternal::core
