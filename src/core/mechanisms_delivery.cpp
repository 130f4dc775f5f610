// Delivery-side half of the Mechanisms: totally-ordered envelope handling,
// the per-replica queue, the control plane and fault detection. The
// state-transfer protocol lives in mechanisms_transfer.cpp, recovery
// completion and replica roles in mechanisms_recovery.cpp.
#include <algorithm>

#include "core/checkpointable.hpp"
#include "core/mechanisms.hpp"
#include "obs/spans.hpp"
#include "util/log.hpp"

namespace eternal::core {

namespace {
constexpr const char* kTag = "eternal";
}  // namespace

// ------------------------------------------------------------ Totem upcalls

void Mechanisms::on_deliver_on(std::uint32_t ring, const totem::Delivery& delivery) {
  // The envelope is a view into the delivery. Requests and replies retain
  // slices of the delivery's shared payload for what they keep; the rare
  // kinds own a copy on entry.
  std::optional<EnvelopeView> env = decode_envelope_view(delivery.payload);
  if (!env) {
    ETERNAL_LOG(kWarn, kTag, "malformed envelope delivered; dropped");
    return;
  }
  // Ring containment: the stamp must match both the ring the envelope
  // arrived on and the ring the placement owns the group to. Anything else
  // is a misrouted envelope — processing it would splice the message into a
  // total order the group does not live in, silently breaking per-group
  // order agreement across nodes.
  if (env->ring != ring || env->ring != ring_of(env->target_group)) {
    stats_.envelopes_misrouted += 1;
    ETERNAL_LOG(kWarn, kTag,
                util::to_string(node_)
                    << " dropped misrouted envelope: stamped ring " << env->ring
                    << ", arrived on ring " << ring << ", group "
                    << env->target_group.value << " owned by ring "
                    << ring_of(env->target_group));
    return;
  }
  switch (env->kind) {
    case EnvelopeKind::kRequest: deliver_request(*env, delivery.payload); return;
    case EnvelopeKind::kReply: deliver_reply(*env, delivery.payload); return;
    case EnvelopeKind::kGetState: deliver_get_state(env->own()); return;
    case EnvelopeKind::kSetState: deliver_set_state(env->own()); return;
    case EnvelopeKind::kCheckpoint: deliver_checkpoint(env->own()); return;
    case EnvelopeKind::kControl: deliver_control(env->own()); return;
    case EnvelopeKind::kStateChunk: deliver_state_chunk(env->own()); return;
    case EnvelopeKind::kStateBulkDescriptor: deliver_bulk_descriptor(env->own()); return;
    case EnvelopeKind::kStateBulkComplete: deliver_bulk_marker(env->own()); return;
    case EnvelopeKind::kBulkExtent:
    case EnvelopeKind::kBulkAck:
      // Lane-only kinds; one multicast on the ring would order raw state
      // bytes without a descriptor. Drop them.
      return;
  }
}

void Mechanisms::on_view_change_on(std::uint32_t ring, const totem::View& view) {
  if (view.self_rejoined_fresh) {
    // Partition merge (or rejoin after total silence): our side's history of
    // this ring is lost, and every piece of replicated state derived from it
    // — the group table, the logs, the duplicate filters, the discovered ORB
    // state and the replicas themselves — is incomparable with the surviving
    // component's. Reset it; the application re-registers its groups, exactly
    // as a restarted processor would (the surviving component never stopped
    // serving). On a sharded system the other rings never stopped, so only
    // this ring's groups go; on one ring that is every group.
    ETERNAL_LOG(kWarn, kTag,
                util::to_string(node_) << " rejoined ring " << ring
                                       << " fresh; resetting its groups' state");
    reset_ring_state(ring);
    return;
  }

  // Transfers whose sender departed this ring (it may live on in other
  // rings) can never complete; a later one keyed to the same (group, epoch)
  // must not inherit their bytes. Lane extents survive in the stash for the
  // re-served transfer, re-issued by react() below.
  sweep_transfers([&](const TransferView& v) {
    return !v.outgoing && v.ring == ring &&
           std::find(view.departed.begin(), view.departed.end(), v.sender) !=
               view.departed.end();
  }, Sweep::kStash);

  // Replicas on departed processors are gone; apply deterministically.
  // Departure is a per-ring fact: a processor whose ring-r endpoint died
  // keeps its replicas of every other ring's groups. A recovery whose
  // coordinator or state source departed is re-issued by react's
  // kReplicaRemoved (a coordinator hosts a replica); one whose processors
  // all survive rides out the view change.
  std::vector<TableEvent> events;
  for (NodeId gone : view.departed) {
    auto sub = table_.remove_node(
        gone, [this, ring](GroupId g) { return ring_of(g) == ring; });
    events.insert(events.end(), sub.begin(), sub.end());
  }
  react(events);
}

void Mechanisms::reset_ring_state(std::uint32_t ring) {
  const auto on_ring = [this, ring](std::uint32_t gid) {
    return ring_of(GroupId{gid}) == ring;
  };
  for (auto it = replicas_.begin(); it != replicas_.end();) {
    LocalReplica& replica = *it->second;
    if (!on_ring(replica.group.value)) {
      ++it;
      continue;
    }
    const GroupEntry* entry = table_.find(replica.group);
    if (entry != nullptr) tap_.orb().root_poa().deactivate(entry->desc.object_id);
    sim_.cancel(replica.checkpoint_timer);
    sim_.cancel(replica.detector_timer);
    set_phase(replica, Phase::kDead);
    it = replicas_.erase(it);
  }
  // The ORB's connection state is shared across rings; dropping it all is
  // conservative (surviving rings' clients simply re-handshake) and the only
  // safe option — per-connection translation state derived from this ring's
  // history is gone.
  tap_.orb().reset_connections();
  table_.drop_groups_if([&](GroupId g) { return on_ring(g.value); });
  std::erase_if(logs_, [&](const auto& kv) { return on_ring(kv.first); });
  std::erase_if(outbound_, [&](const auto& kv) { return on_ring(kv.first.second); });
  std::erase_if(server_handshakes_,
                [&](const auto& kv) { return on_ring(kv.first.first); });
  for (auto& [key, flights] : handshake_flights_) {
    std::erase_if(flights,
                  [&](const HandshakeFlight& f) { return on_ring(f.server_group.value); });
  }
  std::erase_if(handshake_flights_, [](const auto& kv) { return kv.second.empty(); });
  std::erase_if(req_seen_, [&](const auto& kv) { return on_ring(kv.first.second); });
  std::erase_if(reply_seen_, [&](const auto& kv) { return on_ring(kv.first.second); });
  std::erase_if(get_state_seen_, [&](const auto& kv) { return on_ring(kv.first); });
  std::erase_if(set_state_seen_, [&](const auto& kv) { return on_ring(kv.first); });
  std::erase_if(checkpoint_seen_, [&](const auto& kv) { return on_ring(kv.first); });
  std::erase_if(awaiting_get_state_, [&](const auto& kv) { return on_ring(kv.first); });
  std::erase_if(epoch_floor_, [&](const auto& kv) { return on_ring(kv.first); });
  std::erase_if(recovery_base_, [&](const auto& kv) { return on_ring(kv.first.first); });
  sweep_transfers([&](const TransferView& v) { return v.ring == ring; }, Sweep::kForget);
  std::erase_if(bulk_stash_, [&](const auto& kv) { return on_ring(kv.first.first); });
}

// ------------------------------------------------------------------ routing

void Mechanisms::deliver_request(const EnvelopeView& e, const util::SharedSlice& delivered) {
  RacedStream& stream = req_seen_[std::make_pair(e.client_group.value, e.target_group.value)];
  if (!first_delivery(stream, e.target_group, e.op_seq, stats_.requests_withdrawn)) {
    stats_.duplicate_requests_suppressed += 1;
    ctr_req_dup_.add();
    rec_.record(node_, obs::Layer::kMech, "request_dup", e.op_seq,
                {{"client", e.client_group.value}, {"group", e.target_group.value}});
    if (obs::SpanStore* spans = rec_.spans()) {
      if (auto dup = giop::inspect(e.payload)) {
        if (const obs::TraceId t = trace_of(e, *dup)) {
          spans->instant(t, node_, obs::Layer::kMech, "request-dup", sim_.now(),
                         {{"op_seq", e.op_seq}});
        }
      }
    }
    return;
  }

  const GroupEntry* entry = table_.find(e.target_group);
  if (entry == nullptr) return;

  // ORB/POA-level state discovery (§4.2.2): nodes with a stake in the group
  // (hosting a replica, or designated as a backup/launch site) remember each
  // client's handshake message so it can be re-injected into future server
  // replicas; everyone else relies on the piggybacked transfer.
  const bool stakeholder =
      local_replica(e.target_group) != nullptr ||
      std::find(entry->desc.backup_nodes.begin(), entry->desc.backup_nodes.end(), node_) !=
          entry->desc.backup_nodes.end();
  std::optional<giop::Inspection> info = giop::inspect(e.payload);
  if (stakeholder && info && info->has_context(giop::kVendorHandshakeContextId)) {
    server_handshakes_[std::make_pair(e.target_group.value,
                                      orb::group_endpoint(e.client_group))] =
        delivered.sub(e.payload);
    stats_.handshakes_stored += 1;
  }

  // The request left Totem's total order here: the invocation's "order-wait"
  // span ends at the first delivering node (first close wins), and a
  // per-replica "deliver" span opens for the quiescence-gated queue wait.
  obs::SpanStore* const spans = rec_.spans();
  const obs::TraceId trace = info ? trace_of(e, *info) : 0;
  if (trace != 0) spans->end_named(trace, "order-wait", sim_.now());

  const bool passive = entry->desc.properties.style != ReplicationStyle::kActive;

  if (LocalReplica* r = local_replica(e.target_group)) {
    switch (r->phase) {
      case Phase::kOperational: {
        // The passive primary's node maintains the same checkpoint+message
        // log as every other log-keeping site, so a total failure can be
        // restored from *any* surviving stakeholder (§3.3).
        const RetainedEnvelope kept(e, delivered);
        if (passive) {
          log_message(kept);
        }
        trace_enqueue(*r, e);
        QueueItem item{QueueItem::Kind::kRequest, kept};
        if (trace != 0) {
          item.trace = trace;
          item.span = spans->begin(trace, spans->find_named(trace, "invocation"),
                                   node_, obs::Layer::kMech, "deliver", sim_.now(),
                                   {{"replica", r->id.value}});
        }
        r->pending.push_back(std::move(item));
        pump(*r);
        return;
      }
      case Phase::kRecovering: {
        // Paper §3.3 / §5.1(i)-(ii): normal messages for a recovering
        // replica are kept, in receipt order, for delivery after the
        // replica's state is restored. For passive styles they go straight
        // into the checkpoint+message log — which both serves the replay
        // after recovery AND keeps this node's log gap-free should it have
        // to restore the whole group from it later.
        if (passive) {
          log_message(RetainedEnvelope(e, delivered));
        } else {
          trace_enqueue(*r, e);
          QueueItem item{QueueItem::Kind::kRequest, RetainedEnvelope(e, delivered)};
          if (trace != 0) {
            item.trace = trace;
            item.span = spans->begin(trace, spans->find_named(trace, "invocation"),
                                     node_, obs::Layer::kMech, "deliver", sim_.now(),
                                     {{"replica", r->id.value}, {"recovering", 1}});
          }
          r->pending.push_back(std::move(item));
        }
        stats_.enqueued_during_recovery += 1;
        return;
      }
      case Phase::kBackup:
      case Phase::kReplaying: {
        log_message(RetainedEnvelope(e, delivered));
        return;
      }
      case Phase::kDead:
        // The process is gone, but a passive log-keeping site must not
        // develop a gap: keep logging until the replacement takes over.
        if (passive) {
          log_message(RetainedEnvelope(e, delivered));
        }
        return;
    }
    return;
  }

  // Cold-passive log role: this node keeps the checkpoint+message log for a
  // group whose servant is not loaded here (§3.3).
  if (passive &&
      std::find(entry->desc.backup_nodes.begin(), entry->desc.backup_nodes.end(), node_) !=
          entry->desc.backup_nodes.end()) {
    log_message(RetainedEnvelope(e, delivered));
  }
}

void Mechanisms::deliver_reply(const EnvelopeView& e, const util::SharedSlice& delivered) {
  RacedStream& stream = reply_seen_[std::make_pair(e.client_group.value, e.target_group.value)];
  if (!first_delivery(stream, e.target_group, e.op_seq, stats_.replies_withdrawn)) {
    stats_.duplicate_replies_suppressed += 1;
    ctr_reply_dup_.add();
    rec_.record(node_, obs::Layer::kMech, "reply_dup", e.op_seq,
                {{"client", e.client_group.value}, {"group", e.target_group.value}});
    if (obs::SpanStore* spans = rec_.spans()) {
      // Active replicas' racing replies are traced; a passive group's
      // duplicate reply is a promoted primary's log replay, which is not.
      const GroupEntry* server = table_.find(e.target_group);
      const bool replayed =
          server != nullptr && server->desc.properties.style != ReplicationStyle::kActive;
      if (auto dup = giop::inspect(e.payload); dup && !replayed) {
        if (const obs::TraceId t = trace_of(e, *dup)) {
          spans->instant(t, node_, obs::Layer::kMech, "reply-dup", sim_.now(),
                         {{"op_seq", e.op_seq}});
        }
      }
    }
    return;
  }

  const GroupEntry* client_entry = table_.find(e.client_group);
  const bool hosts_client = local_replica(e.client_group) != nullptr;
  const bool log_role_for_client =
      client_entry != nullptr &&
      client_entry->desc.properties.style != ReplicationStyle::kActive &&
      std::find(client_entry->desc.backup_nodes.begin(),
                client_entry->desc.backup_nodes.end(),
                node_) != client_entry->desc.backup_nodes.end();
  if (!hosts_client && !log_role_for_client) return;

  OutboundConn& conn = outbound_conn(e.client_group, e.target_group);
  // This is the reply's only delivery: its request-id translation retires.
  const std::optional<std::uint32_t> local_rid = conn.group_to_local.take(e.op_seq);
  const util::SharedSlice reply = delivered.sub(e.payload);
  if (conn.handshake_group_rid.has_value() && *conn.handshake_group_rid == e.op_seq) {
    conn.handshake_reply = reply;
    conn.handshake_done = true;
  }
  // Cache for passive-promotion replay (re-issued invocations are answered
  // from here instead of re-executing at the servers).
  conn.reply_cache.insert_or_assign(e.op_seq, reply);
  conn.reply_cache.trim(OutboundConn::kReplyCacheCap);

  LocalReplica* r = local_replica(e.client_group);
  if (r == nullptr) return;
  if (r->phase == Phase::kDead || r->phase == Phase::kRecovering ||
      r->phase == Phase::kBackup) {
    // Backups never issued the invocation; a recovering replica's fresh ORB
    // has no matching request. Nothing to deliver locally.
    return;
  }

  stats_.replies_delivered += 1;
  const std::optional<giop::Inspection> info = giop::inspect(e.payload);
  // The first client replica to hand the reply to its ORB completes the
  // invocation's span tree (duplicates at other clients are suppressed above).
  // Only a reply that opened a "reply" span closes it: one a promoted
  // primary's log replay produced is untraced and leaves the tree open.
  if (const obs::TraceId t = info ? trace_of(e, *info) : 0) {
    obs::SpanStore* const spans = rec_.spans();
    if (spans->end_named(t, "reply", sim_.now())) spans->end_named(t, "invocation", sim_.now());
  }
  // Translate the group-consistent request_id back to the id this replica's
  // own ORB assigned (§4.2.1). If this replica never issued the operation,
  // the reply goes in untranslated and the ORB's own matching applies.
  const orb::Endpoint from = orb::group_endpoint(e.target_group);
  if (config_.sync_request_ids && local_rid && info && info->type == giop::MsgType::kReply &&
      info->request_id != *local_rid) {
    // The retained bytes are shared (the reply cache, every ring member's
    // store), so the translation writes a copy: the one copy on this path.
    tap_.inject(from, giop::copy_with_request_id(reply, *local_rid));
    return;
  }
  tap_.inject(from, reply);
}

// ----------------------------------------------------------- queue delivery

void Mechanisms::log_message(const RetainedEnvelope& e) {
  MessageLog& log = logs_[e.target_group.value];
  log.append(e);
  stats_.messages_logged += 1;
  persist_append(e.target_group, log.messages().back());
}

void Mechanisms::trace_enqueue(const LocalReplica& r, const EnvelopeHeader& e) {
  rec_.record(node_, obs::Layer::kMech, "enqueue", e.op_seq,
              {{"group", r.group.value},
               {"replica", r.id.value},
               {"client", e.client_group.value},
               {"op_seq", e.op_seq}});
}

// ------------------------------------------------------------ control plane

void Mechanisms::deliver_control(const Envelope& e) {
  // A recovering replica's advertised log tip, recorded at every node in
  // total order so whichever member ends up serving the retrieval makes the
  // same delta-vs-full decision.
  if (e.control_op == ControlOp::kAddReplica && e.delta_base != 0) {
    recovery_base_[{e.target_group.value, e.subject.value}] = e.delta_base;
  }
  std::vector<TableEvent> events = table_.apply_control(e);

  // kCreateGroup carries the initial member list in the payload.
  if (e.control_op == ControlOp::kCreateGroup) {
    GroupEntry* entry = table_.find_mutable(e.target_group);
    if (entry != nullptr && entry->members.empty()) {
      for (const InitialMember& m : decode_initial_members(e.payload)) {
        entry->members.push_back(ReplicaInfo{m.id, m.node, ReplicaStatus::kOperational});
        entry->operational_order.push_back(m.id);
      }
      const ReplicaInfo* mine = entry->replica_on(node_);
      if (mine != nullptr && factories_.count(e.target_group.value) > 0 &&
          local_replica(e.target_group) == nullptr) {
        do_launch(e.target_group, mine->id, /*as_recovering=*/false);
      }
    }
  }
  react(events);
}

void Mechanisms::react(const std::vector<TableEvent>& events) {
  for (const TableEvent& event : events) {
    switch (event.kind) {
      case TableEvent::Kind::kGroupCreated:
        if (pending_restores_.erase(event.group.value) > 0) {
          apply_stored_log(event.group);
        }
        break;
      case TableEvent::Kind::kReplicaAdded: {
        awaiting_get_state_[event.group.value].insert(event.replica.value);
        // Profiler boundary B: the totally-ordered add announcement reaches
        // the recovering replica's own node — fault detection + relaunch is
        // over, the quiesce/enqueue window begins.
        if (obs::SpanStore* spans = rec_.spans()) {
          const LocalReplica* mine = local_replica(event.group);
          if (mine != nullptr && mine->id == event.replica) {
            spans->recovery().announced(event.group, event.replica, sim_.now());
          }
        }
        const GroupEntry* entry = table_.find(event.group);
        if (entry != nullptr) {
          const auto coord = entry->coordinator();
          if (coord && *coord == node_) send_get_state(event.group, event.replica);
        }
        break;
      }
      case TableEvent::Kind::kReplicaRemoved: {
        bool source_died = false;
        if (event.node == node_) {
          LocalReplica* r = local_replica(event.group);
          if (r != nullptr && r->id == event.replica) {
            sim_.cancel(r->checkpoint_timer);
            sim_.cancel(r->detector_timer);
            // Final phase event before the record disappears, so trace
            // consumers never see the replica as still live.
            set_phase(*r, Phase::kDead);
            replicas_.erase(event.group.value);
            source_died = true;
          }
        }
        // Transfers tied to the removed replica go: the sends it sourced,
        // and every send, reassembly and stashed extent serving it (a
        // relaunch gets a fresh replica id).
        sweep_transfers([&](const TransferView& v) {
          return v.key.first == event.group.value &&
                 (v.subject == event.replica || (v.outgoing && source_died));
        }, Sweep::kAbort);
        bulk_stash_.erase({event.group.value, event.replica.value});
        awaiting_get_state_[event.group.value].erase(event.replica.value);
        recovery_base_.erase({event.group.value, event.replica.value});
        // The removed replica may have been the state source of an ongoing
        // recovery — for a state larger than one Totem fragment, the only
        // one; the (possibly new) coordinator re-issues the retrieval for
        // any subject still waiting, and the new epoch is served by the
        // surviving primary.
        // Survivors record the agreed death: a replica whose processor
        // crashed never writes its own final phase event, so trace
        // consumers (the multi-primary invariant) would keep counting it
        // as operational through the successor's promotion.
        record_phase(event.group, event.replica, "dead");
        const GroupEntry* entry = table_.find(event.group);
        if (entry != nullptr) {
          const auto coord = entry->coordinator();
          if (coord && *coord == node_) {
            for (std::uint64_t subject : awaiting_get_state_[event.group.value]) {
              send_get_state(event.group, ReplicaId{subject});
            }
          }
          // A passive group with no operational member re-evaluates
          // log-based restoration as dead members clear out of the table.
          if (entry->desc.properties.style != ReplicationStyle::kActive &&
              entry->primary() == nullptr) {
            promote_local(event.group);
          }
        }
        break;
      }
      case TableEvent::Kind::kPrimaryFailed:
        promote_local(event.group);
        break;
      case TableEvent::Kind::kReplicaOperational: {
        awaiting_get_state_[event.group.value].erase(event.replica.value);
        recovery_base_.erase({event.group.value, event.replica.value});
        LocalReplica* r = local_replica(event.group);
        if (r != nullptr && r->id == event.replica) maybe_start_checkpoint_timer(*r);
        // The group's first state source since it had none: the coordinator
        // retries recoveries stranded meanwhile (their source died
        // mid-transfer). With another source alive, each has a server.
        const GroupEntry* entry = table_.find(event.group);
        if (entry != nullptr && entry->operational_order.size() == 1) {
          const auto coord = entry->coordinator();
          if (coord && *coord == node_) {
            for (std::uint64_t subject : awaiting_get_state_[event.group.value]) {
              send_get_state(event.group, ReplicaId{subject});
            }
          }
        }
        break;
      }
      case TableEvent::Kind::kLaunchDirective: {
        if (event.node == node_ && factories_.count(event.group.value) > 0 &&
            local_replica(event.group) == nullptr) {
          launch_replica(event.group);
        }
        break;
      }
    }
    for (const auto& observer : event_observers_) observer(event);
  }
}

// ------------------------------------------------------------ fault detector

void Mechanisms::arm_fault_detector(LocalReplica& r) {
  const GroupEntry* entry = table_.find(r.group);
  if (entry == nullptr) return;
  const GroupId group = r.group;
  const util::Duration interval = entry->desc.properties.fault_monitoring_interval;
  auto ping = [this, group, interval](auto&& self_fn) -> void {
    LocalReplica* replica = local_replica(group);
    if (replica == nullptr) return;
    if (replica->phase == Phase::kDead && !replica->removal_reported) {
      replica->removal_reported = true;
      Envelope e;
      e.kind = EnvelopeKind::kControl;
      e.control_op = ControlOp::kRemoveReplica;
      e.target_group = group;
      e.subject = replica->id;
      e.subject_node = node_;
      multicast(std::move(e));
      return;  // the replica entry is erased when the removal delivers
    }
    replica->detector_timer =
        sim_.schedule(interval, [self_fn] { self_fn(self_fn); });
  };
  r.detector_timer = sim_.schedule(interval, [ping] { ping(ping); });
}

}  // namespace eternal::core
