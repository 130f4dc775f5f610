// Delivery-side half of the Mechanisms: totally-ordered envelope handling,
// the quiescence-gated per-replica queue pump, the Figure-5 state-transfer
// protocol, passive logging/promotion, and fault detection.
#include <algorithm>

#include "core/checkpointable.hpp"
#include "core/mechanisms.hpp"
#include "obs/spans.hpp"
#include "util/log.hpp"

namespace eternal::core {

namespace {
constexpr const char* kTag = "eternal";

util::Bytes rewrite_reply_id(util::BytesView iiop, std::uint32_t new_rid) {
  std::optional<giop::Message> msg = giop::decode(iiop);
  if (!msg || msg->type() != giop::MsgType::kReply) {
    return util::Bytes(iiop.begin(), iiop.end());
  }
  giop::Reply m = std::get<giop::Reply>(std::move(msg->body));
  if (m.request_id == new_rid) return util::Bytes(iiop.begin(), iiop.end());
  m.request_id = new_rid;
  return giop::encode(m, msg->order);
}
}  // namespace

// ------------------------------------------------------------ totem listener

void Mechanisms::on_deliver(const totem::Delivery& delivery) {
  on_deliver_on(0, delivery);
}

void Mechanisms::on_deliver_on(std::uint32_t ring, const totem::Delivery& delivery) {
  std::optional<Envelope> env = decode_envelope(delivery.payload);
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
    case EnvelopeKind::kRequest: deliver_request(*env); return;
    case EnvelopeKind::kReply: deliver_reply(*env); return;
    case EnvelopeKind::kGetState: deliver_get_state(*env); return;
    case EnvelopeKind::kSetState: deliver_set_state(*env); return;
    case EnvelopeKind::kCheckpoint: deliver_checkpoint(*env); return;
    case EnvelopeKind::kControl: deliver_control(*env); return;
    case EnvelopeKind::kStateChunk: deliver_state_chunk(*env); return;
    case EnvelopeKind::kStateBulkDescriptor: deliver_bulk_descriptor(*env); return;
    case EnvelopeKind::kStateBulkComplete: deliver_bulk_marker(*env); return;
    case EnvelopeKind::kBulkExtent:
    case EnvelopeKind::kBulkAck:
      // Lane-only kinds; one multicast on the ring would order raw state
      // bytes without a descriptor. Drop them.
      return;
  }
}

void Mechanisms::on_view_change(const totem::View& view) {
  on_view_change_on(0, view);
}

void Mechanisms::on_view_change_on(std::uint32_t ring, const totem::View& view) {
  if (view.self_rejoined_fresh) {
    if (totems_.size() > 1) {
      // One ring of a sharded system lost its history; the others never
      // stopped. Reset only the state derived from this ring's order.
      ETERNAL_LOG(kWarn, kTag,
                  util::to_string(node_) << " rejoined ring " << ring
                                         << " fresh; resetting its groups' state");
      reset_ring_state(ring);
      return;
    }
    // Partition merge (or rejoin after total silence): our side's history
    // lost; every piece of replicated state derived from it — the group
    // table, the logs, the duplicate filters, the discovered ORB state and
    // the replicas themselves — is incomparable with the surviving ring's.
    // Reset; the application re-registers its groups, exactly as a restarted
    // processor would (the surviving component never stopped serving).
    ETERNAL_LOG(kWarn, kTag,
                util::to_string(node_) << " rejoined fresh; resetting replicated state");
    for (auto& [gid, replica] : replicas_) {
      const GroupEntry* entry = table_.find(replica->group);
      if (entry != nullptr) tap_.orb().root_poa().deactivate(entry->desc.object_id);
      sim_.cancel(replica->checkpoint_timer);
      sim_.cancel(replica->detector_timer);
      set_phase(*replica, Phase::kDead);
    }
    replicas_.clear();
    tap_.orb().reset_connections();
    table_ = GroupTable{};
    logs_.clear();
    outbound_.clear();
    server_handshakes_.clear();
    handshake_flights_.clear();
    req_seen_.clear();
    reply_seen_.clear();
    get_state_seen_.clear();
    set_state_seen_.clear();
    checkpoint_seen_.clear();
    awaiting_get_state_.clear();
    epoch_floor_.clear();
    recovery_base_.clear();
    outgoing_chunks_.clear();
    incoming_chunks_.clear();
    for (auto& [gid, send] : outgoing_bulk_) sim_.cancel(send.retry_timer);
    outgoing_bulk_.clear();
    incoming_bulk_.clear();
    bulk_stash_.clear();
    return;
  }

  // In-flight chunked transfers whose sender departed can never complete,
  // and a later transfer keyed to the same (group, epoch) must not inherit
  // their partial bytes — drop them now. The recoverer's retrieval is
  // re-issued by react() below; duplicate set_states are absorbed by the
  // epoch windows.
  for (auto it = incoming_chunks_.begin(); it != incoming_chunks_.end();) {
    // A node that departed this ring may still be alive on another ring —
    // only transfers of groups this ring orders are affected.
    const bool sender_gone =
        ring_of(GroupId{it->first.first}) == ring &&
        std::find(view.departed.begin(), view.departed.end(), it->second.sender) !=
            view.departed.end();
    if (sender_gone) {
      stats_.state_chunk_aborts += 1;
      it = incoming_chunks_.erase(it);
    } else {
      ++it;
    }
  }
  // Bulk reassemblies whose sender departed are equally dead — but their
  // verified extents survive into the stash, so the re-served transfer
  // (served by a surviving member) resumes instead of re-shipping.
  for (auto it = incoming_bulk_.begin(); it != incoming_bulk_.end();) {
    const bool sender_gone =
        ring_of(GroupId{it->first.first}) == ring &&
        std::find(view.departed.begin(), view.departed.end(), it->second.sender) !=
            view.departed.end();
    if (sender_gone) {
      stats_.bulk_transfers_aborted += 1;
      stash_bulk_reassembly(it->first.first, it->second);
      it = incoming_bulk_.erase(it);
    } else {
      ++it;
    }
  }

  // Replicas on departed processors are gone; apply deterministically.
  // Departure is a per-ring fact: a processor whose ring-r endpoint died
  // keeps its replicas of every other ring's groups.
  std::vector<TableEvent> events;
  for (NodeId gone : view.departed) {
    auto sub = table_.remove_node(
        gone, [this, ring](GroupId g) { return ring_of(g) == ring; });
    events.insert(events.end(), sub.begin(), sub.end());
  }
  react(events);

  // If a recovery was waiting on a coordinator that departed, the new
  // coordinator (possibly us) re-issues the get_state.
  for (const auto& [gid, subjects] : awaiting_get_state_) {
    if (ring_of(GroupId{gid}) != ring) continue;
    const GroupEntry* entry = table_.find(GroupId{gid});
    if (entry == nullptr) continue;
    const auto coord = entry->coordinator();
    if (!coord || *coord != node_) continue;
    for (std::uint64_t subject : subjects) {
      send_get_state(GroupId{gid}, ReplicaId{subject});
    }
  }
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
  std::erase_if(outgoing_chunks_, [&](const auto& kv) { return on_ring(kv.first); });
  std::erase_if(incoming_chunks_,
                [&](const auto& kv) { return on_ring(kv.first.first); });
  for (auto& [gid, send] : outgoing_bulk_) {
    if (on_ring(gid)) sim_.cancel(send.retry_timer);
  }
  std::erase_if(outgoing_bulk_, [&](const auto& kv) { return on_ring(kv.first); });
  std::erase_if(incoming_bulk_, [&](const auto& kv) { return on_ring(kv.first.first); });
  std::erase_if(bulk_stash_, [&](const auto& kv) { return on_ring(kv.first.first); });
}

// ------------------------------------------------------------------ routing

void Mechanisms::deliver_request(const Envelope& e) {
  SeqWindow& seen = req_seen_[std::make_pair(e.client_group.value, e.target_group.value)];
  if (!seen.test_and_insert(e.op_seq)) {
    stats_.duplicate_requests_suppressed += 1;
    ctr_req_dup_.add();
    if (rec_.tracing()) {
      rec_.record(node_, obs::Layer::kMech, "request_dup", e.op_seq,
                  "client=" + std::to_string(e.client_group.value) +
                      " group=" + std::to_string(e.target_group.value));
    }
    if (obs::SpanStore* spans = rec_.spans()) {
      if (auto dup = giop::inspect(e.payload)) {
        if (const obs::TraceId t = dup->trace_context()) {
          spans->instant(t, node_, obs::Layer::kMech, "request-dup", sim_.now(),
                         "op_seq=" + std::to_string(e.op_seq));
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
                                      orb::group_endpoint(e.client_group))] = e.payload;
    stats_.handshakes_stored += 1;
  }

  // The request left Totem's total order here: the invocation's "order-wait"
  // span ends at the first delivering node (first close wins), and a
  // per-replica "deliver" span opens for the quiescence-gated queue wait.
  obs::SpanStore* const spans = rec_.spans();
  const obs::TraceId trace =
      (spans != nullptr && info) ? info->trace_context() : 0;
  if (trace != 0) spans->end_named(trace, "order-wait", sim_.now());

  const bool passive = entry->desc.properties.style != ReplicationStyle::kActive;

  if (LocalReplica* r = local_replica(e.target_group)) {
    switch (r->phase) {
      case Phase::kOperational: {
        // The passive primary's node maintains the same checkpoint+message
        // log as every other log-keeping site, so a total failure can be
        // restored from *any* surviving stakeholder (§3.3).
        if (passive) {
          logs_[e.target_group.value].append(e);
          stats_.messages_logged += 1;
          persist_append(e.target_group, e);
        }
        trace_enqueue(*r, e);
        QueueItem item{QueueItem::Kind::kRequest, e};
        if (trace != 0) {
          item.trace = trace;
          item.span = spans->begin(trace, spans->find_named(trace, "invocation"),
                                   node_, obs::Layer::kMech, "deliver", sim_.now(),
                                   "replica=" + std::to_string(r->id.value));
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
          logs_[e.target_group.value].append(e);
          stats_.messages_logged += 1;
          persist_append(e.target_group, e);
        } else {
          trace_enqueue(*r, e);
          QueueItem item{QueueItem::Kind::kRequest, e};
          if (trace != 0) {
            item.trace = trace;
            item.span = spans->begin(trace, spans->find_named(trace, "invocation"),
                                     node_, obs::Layer::kMech, "deliver", sim_.now(),
                                     "replica=" + std::to_string(r->id.value) +
                                         " recovering=1");
          }
          r->pending.push_back(std::move(item));
        }
        stats_.enqueued_during_recovery += 1;
        return;
      }
      case Phase::kBackup:
      case Phase::kReplaying: {
        logs_[e.target_group.value].append(e);
        stats_.messages_logged += 1;
        persist_append(e.target_group, e);
        return;
      }
      case Phase::kDead:
        // The process is gone, but a passive log-keeping site must not
        // develop a gap: keep logging until the replacement takes over.
        if (passive) {
          logs_[e.target_group.value].append(e);
          stats_.messages_logged += 1;
          persist_append(e.target_group, e);
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
    logs_[e.target_group.value].append(e);
    stats_.messages_logged += 1;
    persist_append(e.target_group, e);
  }
}

void Mechanisms::deliver_reply(const Envelope& e) {
  SeqWindow& seen = reply_seen_[std::make_pair(e.client_group.value, e.target_group.value)];
  if (!seen.test_and_insert(e.op_seq)) {
    stats_.duplicate_replies_suppressed += 1;
    ctr_reply_dup_.add();
    if (rec_.tracing()) {
      rec_.record(node_, obs::Layer::kMech, "reply_dup", e.op_seq,
                  "client=" + std::to_string(e.client_group.value) +
                      " group=" + std::to_string(e.target_group.value));
    }
    if (obs::SpanStore* spans = rec_.spans()) {
      if (auto dup = giop::inspect(e.payload)) {
        if (const obs::TraceId t = dup->trace_context()) {
          spans->instant(t, node_, obs::Layer::kMech, "reply-dup", sim_.now(),
                         "op_seq=" + std::to_string(e.op_seq));
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
  if (conn.handshake_group_rid.has_value() && *conn.handshake_group_rid == e.op_seq) {
    conn.handshake_reply = e.payload;
    conn.handshake_done = true;
  }
  // Cache for passive-promotion replay (re-issued invocations are answered
  // from here instead of re-executing at the servers).
  conn.reply_cache[e.op_seq] = e.payload;
  while (conn.reply_cache.size() > config_.reply_cache_cap) {
    conn.reply_cache.erase(conn.reply_cache.begin());
  }

  LocalReplica* r = local_replica(e.client_group);
  if (r == nullptr) return;
  if (r->phase == Phase::kDead || r->phase == Phase::kRecovering ||
      r->phase == Phase::kBackup) {
    // Backups never issued the invocation; a recovering replica's fresh ORB
    // has no matching request. Nothing to deliver locally.
    return;
  }

  // Translate the group-consistent request_id back to the id this replica's
  // own ORB assigned (§4.2.1). If this replica never issued the operation,
  // the reply goes in untranslated and the ORB's own matching applies.
  auto local_it = conn.group_to_local.find(e.op_seq);
  util::Bytes wire = (config_.sync_request_ids && local_it != conn.group_to_local.end())
                         ? rewrite_reply_id(e.payload, local_it->second)
                         : e.payload;
  stats_.replies_delivered += 1;
  // The first client replica to hand the reply to its ORB completes the
  // invocation's span tree (duplicates at other clients are suppressed above).
  if (obs::SpanStore* spans = rec_.spans()) {
    if (auto rinfo = giop::inspect(e.payload)) {
      if (const obs::TraceId t = rinfo->trace_context()) {
        spans->end_named(t, "reply", sim_.now());
        spans->end_named(t, "invocation", sim_.now());
      }
    }
  }
  tap_.inject(orb::group_endpoint(e.target_group), wire);
}

// ------------------------------------------------------- state transfer path

void Mechanisms::send_get_state(GroupId group, ReplicaId subject) {
  GroupEntry* entry = table_.find_mutable(group);
  if (entry == nullptr) return;
  std::uint64_t& floor = epoch_floor_[group.value];
  const std::uint64_t epoch = std::max(entry->next_epoch, floor);
  floor = epoch + 1;

  Envelope e;
  e.kind = EnvelopeKind::kGetState;
  e.target_group = group;
  e.op_seq = epoch;
  e.subject = subject;
  e.subject_node = node_;
  ETERNAL_LOG(kTrace, kTag,
              util::to_string(node_) << " get_state epoch " << epoch << " for "
                                     << util::to_string(subject) << " of "
                                     << util::to_string(group));
  multicast(e);
}

void Mechanisms::deliver_get_state(const Envelope& e) {
  if (!get_state_seen_[e.target_group.value].test_and_insert(e.op_seq)) return;
  ETERNAL_LOG(kTrace, kTag,
              util::to_string(node_) << " delivered get_state epoch " << e.op_seq << " of "
                                     << util::to_string(e.target_group));
  react(table_.apply_state_transfer(e));

  const GroupEntry* entry = table_.find(e.target_group);
  if (entry == nullptr) return;

  // Log-keeping nodes record the get_state position: the state produced at
  // this epoch (checkpoint or recovery transfer) covers exactly the
  // messages logged before this point, so any truncation driven by that
  // state must stop here. The mark is created even on an as-yet-empty log —
  // messages logged after this point are NOT covered.
  if (entry->desc.properties.style != ReplicationStyle::kActive) {
    const bool log_keeper =
        local_replica(e.target_group) != nullptr ||
        std::find(entry->desc.backup_nodes.begin(), entry->desc.backup_nodes.end(),
                  node_) != entry->desc.backup_nodes.end();
    if (log_keeper) logs_[e.target_group.value].mark(e.op_seq);
  } else {
    auto log_it = logs_.find(e.target_group.value);
    if (log_it != logs_.end()) log_it->second.mark(e.op_seq);
  }

  LocalReplica* r = local_replica(e.target_group);
  if (r == nullptr) return;

  if (r->phase == Phase::kRecovering) {
    // §5.1(i): at a recovering replica the get_state is not delivered; its
    // receipt marks the cut in the totally-ordered stream — everything
    // before it will be covered by the state produced at this epoch
    // (whether a recovery set_state or a periodic checkpoint), everything
    // after it stays enqueued for replay.
    r->recovery_cuts[e.op_seq] = r->pending.size();
    if (r->id == e.subject) r->get_state_at = sim_.now();
    if (rec_.tracing()) {
      rec_.record(node_, obs::Layer::kMech, "get_state_cut", e.op_seq,
                  "group=" + std::to_string(e.target_group.value) +
                      " replica=" + std::to_string(r->id.value) +
                      " cut=" + std::to_string(r->pending.size()));
    }
    return;
  }

  // §5.1(i): deliver get_state to the replicas holding the current state —
  // every operational replica for active replication, the primary for
  // passive (their fabricated set_states are deduplicated by epoch).
  if (r->phase == Phase::kReplaying) {
    // A promoted primary still replaying its log: the retrieval joins the
    // log at its totally-ordered position and is served after the replayed
    // messages it follows.
    logs_[e.target_group.value].append(e);
    return;
  }
  if (r->phase != Phase::kOperational) return;
  QueueItem item;
  item.kind = QueueItem::Kind::kGetState;
  item.env = e;
  r->pending.push_back(std::move(item));
  pump(*r);
}

void Mechanisms::publish_state(LocalReplica& r, const CurrentDispatch& d,
                               util::BytesView reply_iiop) {
  std::optional<giop::Message> msg = giop::decode(reply_iiop);
  if (!msg || msg->type() != giop::MsgType::kReply ||
      msg->as_reply().reply_status != giop::ReplyStatus::kNoException) {
    stats_.state_transfer_failures += 1;
    ETERNAL_LOG(kWarn, kTag,
                util::to_string(node_) << " get_state failed (NoStateAvailable?); transfer "
                                       << "aborted for " << util::to_string(r.group));
    return;
  }

  // §5.1(iii)-(iv): fabricate the set_state from the get_state return value
  // and piggyback the ORB/POA-level and infrastructure-level state.
  Envelope e;
  e.kind = d.checkpoint ? EnvelopeKind::kCheckpoint : EnvelopeKind::kSetState;
  e.target_group = r.group;
  e.op_seq = d.op_seq;
  e.subject = d.subject;
  e.subject_node = node_;
  e.payload = msg->as_reply().body;
  if (d.delta_since != 0) {
    // _get_delta reply: either a real delta or the inline full-state
    // fallback; both arrive in the same totally-ordered round.
    try {
      auto [is_delta, state] = decode_delta_reply(e.payload);
      if (is_delta) {
        e.delta_base = d.delta_since;
        stats_.delta_states_published += 1;
      } else {
        stats_.delta_fallback_full += 1;
      }
      e.payload = std::move(state);
    } catch (const util::CdrError&) {
      stats_.state_transfer_failures += 1;
      ETERNAL_LOG(kWarn, kTag, "malformed _get_delta reply; transfer aborted");
      return;
    }
  }
  if (config_.transfer_orb_state) e.orb_state = build_orb_snapshot(r.group);
  if (config_.transfer_infra_state) {
    e.infra_state = encode_infra_state(build_infra_snapshot(r.group));
  }
  if (d.checkpoint) stats_.checkpoints_taken += 1;
  if (obs::SpanStore* spans = rec_.spans(); spans != nullptr && !d.checkpoint) {
    spans->recovery().state_captured(r.group, d.subject, sim_.now(), e.payload.size());
  }
  ETERNAL_LOG(kTrace, kTag,
              util::to_string(node_) << " publishing " << (d.checkpoint ? "checkpoint" : "set_state")
                                     << " epoch " << d.op_seq << " ("
                                     << e.payload.size() << "B app state)");
  if (!d.checkpoint && config_.state_chunk_bytes > 0 &&
      e.payload.size() + e.orb_state.size() + e.infra_state.size() >
          config_.state_chunk_bytes) {
    if (config_.bulk_lane) {
      // Out-of-band path: the bytes leave the ring entirely
      // (mechanisms_bulk.cpp); falls back to chunking when the lane cannot
      // reach the recoverer.
      start_bulk_send(r.group, e);
      return;
    }
    start_chunked_send(r.group, e);
    return;
  }
  multicast(e);
}

void Mechanisms::start_chunked_send(GroupId group, const Envelope& inner) {
  const Bytes encoded = encode_envelope(inner);
  const std::size_t chunk = config_.state_chunk_bytes;
  const std::size_t count = (encoded.size() + chunk - 1) / chunk;
  ChunkedSend send;
  send.epoch = inner.op_seq;
  send.subject = inner.subject;
  send.chunks.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    Envelope c;
    c.kind = EnvelopeKind::kStateChunk;
    c.target_group = group;
    c.op_seq = inner.op_seq;
    c.subject = inner.subject;
    c.subject_node = node_;
    c.chunk_index = static_cast<std::uint32_t>(i);
    c.chunk_count = static_cast<std::uint32_t>(count);
    const std::size_t begin = i * chunk;
    const std::size_t end = std::min(begin + chunk, encoded.size());
    c.payload.assign(encoded.begin() + static_cast<std::ptrdiff_t>(begin),
                     encoded.begin() + static_cast<std::ptrdiff_t>(end));
    send.chunks.push_back(std::move(c));
  }
  ETERNAL_LOG(kDebug, kTag,
              util::to_string(node_) << " chunking " << encoded.size() << "B state epoch "
                                     << inner.op_seq << " into " << count << " chunks");
  ChunkedSend& active = outgoing_chunks_[group.value] = std::move(send);
  // Prime the pipelining window; each self-delivered chunk pumps one more,
  // so normal traffic interleaves with the transfer in the total order.
  const std::size_t window = std::max<std::size_t>(1, config_.state_chunk_window);
  while (active.next < active.chunks.size() && active.next < window) {
    multicast(active.chunks[active.next++]);
    stats_.state_chunks_sent += 1;
  }
}

void Mechanisms::deliver_state_chunk(const Envelope& e) {
  // Sender side: our own chunk came back through the total order — the
  // window has room for the next one.
  if (e.subject_node == node_) {
    auto out = outgoing_chunks_.find(e.target_group.value);
    if (out != outgoing_chunks_.end() && out->second.epoch == e.op_seq) {
      if (out->second.next < out->second.chunks.size()) {
        multicast(out->second.chunks[out->second.next++]);
        stats_.state_chunks_sent += 1;
      } else if (e.chunk_index + 1 == e.chunk_count) {
        outgoing_chunks_.erase(out);
      }
    }
  }

  // Receiver side: every member reassembles (the sender included — its own
  // copy delivers through the same path a monolithic multicast would).
  const auto key = std::make_pair(e.target_group.value, e.op_seq);
  ChunkReassembly& ra = incoming_chunks_[key];
  if (ra.parts.empty()) {
    ra.parts.resize(e.chunk_count);
    ra.sender = e.subject_node;
    ra.subject = e.subject;
  } else if (ra.sender != e.subject_node) {
    // In active replication every operational member answers the same
    // retrieval epoch; the copies need not be byte-identical (infra
    // snapshots differ per node), so interleaving two senders' chunks into
    // one buffer would reassemble garbage. First sender wins; rivals'
    // chunks are redundant copies of the same logical transfer.
    stats_.state_chunk_duplicates += 1;
    return;
  }
  if (e.chunk_count != ra.parts.size() || e.chunk_index >= ra.parts.size()) {
    ETERNAL_LOG(kWarn, kTag, "inconsistent state-chunk geometry; reassembly aborted");
    stats_.state_chunk_aborts += 1;
    incoming_chunks_.erase(key);
    return;
  }
  if (!ra.parts[e.chunk_index].empty()) {
    stats_.state_chunk_duplicates += 1;
    return;
  }
  ra.parts[e.chunk_index] = e.payload;
  ra.received += 1;
  stats_.state_chunks_received += 1;
  if (obs::SpanStore* spans = rec_.spans()) {
    spans->recovery().chunk_arrived(e.target_group, e.subject, sim_.now(),
                                    e.chunk_index, e.chunk_count, e.payload.size());
  }
  if (ra.received < ra.parts.size()) return;

  std::size_t total = 0;
  for (const Bytes& part : ra.parts) total += part.size();
  Bytes encoded;
  encoded.reserve(total);
  for (const Bytes& part : ra.parts) {
    encoded.insert(encoded.end(), part.begin(), part.end());
  }
  incoming_chunks_.erase(key);
  // A completed transfer supersedes older stalled reassemblies of the same
  // group (their source died or was overtaken mid-stream).
  for (auto it = incoming_chunks_.begin(); it != incoming_chunks_.end();) {
    if (it->first.first == e.target_group.value && it->first.second < e.op_seq) {
      stats_.state_chunk_aborts += 1;
      it = incoming_chunks_.erase(it);
    } else {
      ++it;
    }
  }

  std::optional<Envelope> inner = decode_envelope(encoded);
  if (!inner || (inner->kind != EnvelopeKind::kSetState &&
                 inner->kind != EnvelopeKind::kCheckpoint)) {
    ETERNAL_LOG(kWarn, kTag, "malformed reassembled state envelope; dropped");
    stats_.state_chunk_aborts += 1;
    return;
  }
  // The inner envelope's logical delivery point is the final chunk's
  // total-order position — identical at every member.
  if (inner->kind == EnvelopeKind::kSetState) {
    deliver_set_state(*inner);
  } else {
    deliver_checkpoint(*inner);
  }
}

void Mechanisms::deliver_set_state(const Envelope& e) {
  if (!set_state_seen_[e.target_group.value].test_and_insert(e.op_seq)) return;
  ETERNAL_LOG(kTrace, kTag,
              util::to_string(node_) << " delivered set_state epoch " << e.op_seq << " for "
                                     << util::to_string(e.subject) << " ("
                                     << e.payload.size() << "B app state)");
  react(table_.apply_state_transfer(e));
  awaiting_get_state_[e.target_group.value].erase(e.subject.value);

  // This epoch's state has landed (whatever path carried it): bulk machinery
  // still working the same subject at this or an older epoch is superseded —
  // a rival sender stands down, stale reassemblies and the resume stash go.
  auto bulk_out = outgoing_bulk_.find(e.target_group.value);
  if (bulk_out != outgoing_bulk_.end() && bulk_out->second.epoch == e.op_seq) {
    abort_bulk_send(e.target_group, /*fallback=*/false);
  }
  gc_bulk_incoming(e.target_group.value, e.subject, e.op_seq);

  LocalReplica* r = local_replica(e.target_group);
  if (r == nullptr) return;

  if (r->id == e.subject && r->phase == Phase::kRecovering) {
    if (obs::SpanStore* spans = rec_.spans()) {
      spans->recovery().state_delivered(e.target_group, e.subject, sim_.now());
    }
    // §5.1(v): at the new replica the set_state overwrites the queue slot
    // the get_state reserved. Messages enqueued before that slot are
    // already reflected in the transferred state; drop them so replay
    // starts exactly at the state-transfer point.
    auto cut = r->recovery_cuts.find(e.op_seq);
    std::size_t covered = 0;
    if (cut != r->recovery_cuts.end()) {
      covered = std::min(cut->second, r->pending.size());
      // The covered prefix is dropped, not injected: close its deliver
      // spans here so they don't linger open in the span store.
      if (obs::SpanStore* spans = rec_.spans()) {
        for (std::size_t i = 0; i < covered; ++i) {
          if (r->pending[i].span != 0) {
            spans->end(r->pending[i].span, sim_.now(), "covered=1");
          }
        }
      }
      r->pending.erase(r->pending.begin(),
                       r->pending.begin() + static_cast<std::ptrdiff_t>(covered));
    } else {
      ETERNAL_LOG(kWarn, kTag,
                  util::to_string(node_) << " set_state epoch " << e.op_seq
                                         << " without matching get_state cut");
    }
    if (rec_.tracing()) {
      rec_.record(node_, obs::Layer::kMech, "set_state_apply", e.op_seq,
                  "group=" + std::to_string(e.target_group.value) +
                      " replica=" + std::to_string(r->id.value) +
                      " covered=" + std::to_string(covered) +
                      " bytes=" + std::to_string(e.payload.size()));
    }
    r->recovery_cuts.clear();
    // The transferred state supersedes this node's logged prefix: for a
    // passive replica the recovery set_state is, log-wise, a checkpoint
    // (messages before the get_state cut must not be replayed on top).
    auto log_it = logs_.find(e.target_group.value);
    if (e.delta_base != 0) {
      // The source shipped only the changes since our advertised log tip.
      // The full state is our logged base + chained deltas + this one,
      // applied as sequential fabricated dispatches (restore queue).
      if (log_it == logs_.end() || !log_it->second.set_checkpoint(e)) {
        stats_.state_transfer_failures += 1;
        ETERNAL_LOG(kWarn, kTag,
                    util::to_string(node_)
                        << " delta set_state epoch " << e.op_seq << " (base "
                        << e.delta_base << ") has no applicable local base");
        return;
      }
      persist_log(e.target_group);
      r->restore_queue.clear();
      Envelope base = *log_it->second.checkpoint();
      base.subject = r->id;
      r->restore_queue.push_back(std::move(base));
      for (const Envelope& d : log_it->second.delta_chain()) {
        r->restore_queue.push_back(d);
      }
      apply_next_restore(*r);
      return;
    }
    if (log_it != logs_.end()) {
      log_it->second.set_checkpoint(e);
      persist_log(e.target_group);
    }
    apply_state(*r, e, /*is_checkpoint=*/false);
    return;
  }

  // §5.1(vi): at existing replicas the set_state is enqueued in order and
  // discarded when it reaches the head of the queue.
  if (r->phase == Phase::kOperational) {
    QueueItem item;
    item.kind = QueueItem::Kind::kSetStateDiscard;
    item.env = e;
    r->pending.push_back(std::move(item));
    pump(*r);
  }
}

void Mechanisms::deliver_checkpoint(const Envelope& e) {
  if (!checkpoint_seen_[e.target_group.value].test_and_insert(e.op_seq)) return;
  react(table_.apply_state_transfer(e));

  const GroupEntry* entry = table_.find(e.target_group);
  if (entry == nullptr) return;
  const bool log_role =
      std::find(entry->desc.backup_nodes.begin(), entry->desc.backup_nodes.end(), node_) !=
      entry->desc.backup_nodes.end();

  LocalReplica* r = local_replica(e.target_group);

  // §3.3: the checkpoint overwrites the previous checkpoint and truncates
  // the logged messages, wherever the log is kept (the primary's own node
  // included — its log must stay restorable). A delta checkpoint chains on
  // the existing base; one the chain cannot absorb is ignored — the log
  // stays restorable from its older base plus the retained messages.
  if (r != nullptr || log_role) {
    if (logs_[e.target_group.value].set_checkpoint(e)) {
      if (e.delta_base != 0) stats_.delta_checkpoints_applied += 1;
      persist_log(e.target_group);
    } else {
      stats_.delta_skipped_unappliable += 1;
    }
  }

  // Warm passive: synchronize the backup replica's state with the
  // primary's checkpoint as it arrives (§3.2). A delta only applies to a
  // servant whose state already reflects the delta's base epoch.
  if (r != nullptr && r->phase == Phase::kBackup) {
    if (e.delta_base != 0 && r->applied_epoch < e.delta_base) {
      stats_.delta_skipped_unappliable += 1;
    } else {
      apply_state(*r, e, /*is_checkpoint=*/true);
    }
  }
}

void Mechanisms::apply_state(LocalReplica& r, const Envelope& e, bool is_checkpoint) {
  const GroupEntry* entry = table_.find(r.group);
  if (entry == nullptr) return;
  ETERNAL_LOG(kTrace, kTag,
              util::to_string(node_) << " applying " << (is_checkpoint ? "checkpoint" : "state")
                                     << " epoch " << e.op_seq << " to "
                                     << util::to_string(r.id));

  r.incoming_state_bytes = e.payload.size() + e.orb_state.size() + e.infra_state.size();
  r.set_state_at = sim_.now();

  // ORB/POA-level state (§4.2): connection counters, handshake material.
  if (config_.transfer_orb_state && !e.orb_state.empty()) {
    install_orb_state(r.group, e.orb_state);
  }

  // Server-side handshake replay (§4.2.2): inject each stored client
  // handshake into the fresh ORB *ahead of* any normal request from that
  // client; the replies will be captured and discarded. (Periodic warm
  // checkpoints skip this — the backup ORB gets the handshakes exactly once,
  // at promotion, to keep its deterministic short-key assignment aligned.)
  if (!is_checkpoint) inject_stored_handshakes(r.group);

  // Infrastructure-level state is assigned last (§4.3); stash it until the
  // set_state completes.
  r.pending_infra = e.infra_state;

  // Application-level state: the fabricated set_state() invocation.
  giop::Request request;
  request.request_id = static_cast<std::uint32_t>(e.op_seq);
  request.response_expected = true;
  request.object_key = util::bytes_of(entry->desc.object_id);
  request.operation = e.delta_base != 0 ? kApplyDeltaOp : kSetStateOp;
  request.body = e.payload;

  r.busy = true;
  CurrentDispatch d;
  d.kind = CurrentDispatch::Kind::kSetState;
  d.op_seq = e.op_seq;
  d.reply_to = recovery_endpoint(r.group);
  d.subject = e.subject;
  d.checkpoint = is_checkpoint;
  r.dispatch = d;
  tap_.inject(recovery_endpoint(r.group), giop::encode(request));
}

void Mechanisms::apply_next_restore(LocalReplica& r) {
  if (r.restore_queue.empty()) return;
  Envelope next = std::move(r.restore_queue.front());
  r.restore_queue.pop_front();
  // Intermediate entries apply checkpoint-style (no handshake replay, no
  // recovery completion); the final one of a live recovery runs the full
  // set_state epilogue. A replaying replica (cold restart / promotion)
  // continues into its log replay instead, so every entry is intermediate.
  const bool final_step = r.restore_queue.empty() && r.phase == Phase::kRecovering;
  apply_state(r, next, /*is_checkpoint=*/!final_step);
}

void Mechanisms::inject_stored_handshakes(GroupId group) {
  if (!config_.replay_handshakes) return;
  for (const auto& [key, handshake] : server_handshakes_) {
    if (key.first != group.value) continue;
    std::optional<giop::Inspection> info = giop::inspect(handshake);
    if (!info) continue;
    handshake_flights_[std::make_pair(key.second, info->request_id)].push_back(
        HandshakeFlight{group, /*replay=*/true});
    stats_.handshakes_injected += 1;
    tap_.inject(key.second, handshake);
  }
}

void Mechanisms::install_orb_state(GroupId group, BytesView blob) {
  std::optional<OrbLevelState> state = decode_orb_state(blob);
  if (!state) {
    ETERNAL_LOG(kWarn, kTag, "malformed ORB-level state snapshot; skipped");
    return;
  }
  for (const ClientConnState& cs : state->client_conns) {
    OutboundConn& conn = outbound_conn(group, cs.server_group);
    conn.next_group_rid = cs.next_group_request_id;
    conn.handshake_done = cs.handshake_done;
    conn.handshake_request = cs.handshake_request;
    conn.handshake_reply = cs.handshake_reply;
  }
  for (const ServerConnState& ss : state->server_conns) {
    server_handshakes_[std::make_pair(group.value, ss.client)] = ss.handshake_request;
  }
}

void Mechanisms::install_infra_state(GroupId group, BytesView blob) {
  std::optional<InfraLevelState> state = decode_infra_state(blob);
  if (!state) {
    ETERNAL_LOG(kWarn, kTag, "malformed infrastructure-level state snapshot; skipped");
    return;
  }
  for (const auto& rf : state->requests_seen) {
    req_seen_[std::make_pair(rf.client_group.value, group.value)] = rf.seen;
  }
  for (const auto& rf : state->replies_seen) {
    reply_seen_[std::make_pair(group.value, rf.server_group.value)] = rf.seen;
  }
}

Bytes Mechanisms::build_orb_snapshot(GroupId group) {
  OrbLevelState state;
  for (const auto& [key, conn] : outbound_) {
    if (key.first != group.value) continue;
    ClientConnState cs;
    cs.server_group = conn.server_group;
    cs.next_group_request_id = conn.next_group_rid;
    cs.handshake_done = conn.handshake_done;
    cs.handshake_request = conn.handshake_request;
    cs.handshake_reply = conn.handshake_reply;
    state.client_conns.push_back(std::move(cs));
  }
  for (const auto& [key, handshake] : server_handshakes_) {
    if (key.first != group.value) continue;
    ServerConnState ss;
    ss.client = key.second;
    ss.handshake_request = handshake;
    state.server_conns.push_back(std::move(ss));
  }
  return encode_orb_state(state);
}

InfraLevelState Mechanisms::build_infra_snapshot(GroupId group) {
  InfraLevelState state;
  for (const auto& [key, window] : req_seen_) {
    if (key.second != group.value) continue;
    state.requests_seen.push_back(
        InfraLevelState::RequestsFrom{GroupId{key.first}, window});
  }
  for (const auto& [key, window] : reply_seen_) {
    if (key.first != group.value) continue;
    state.replies_seen.push_back(
        InfraLevelState::RepliesFrom{GroupId{key.second}, window});
  }
  return state;
}

void Mechanisms::finish_recovery(LocalReplica& r, const Envelope&) {
  // Profiler boundary F: set_state applied. The backlog size fixes how many
  // queue pops the replay phase spans (0 for passive styles, whose backlog
  // lives in the message log instead of the pending queue).
  if (obs::SpanStore* spans = rec_.spans()) {
    spans->recovery().state_applied(r.group, r.id, sim_.now(), r.pending.size());
  }
  if (config_.transfer_infra_state && !r.pending_infra.empty()) {
    install_infra_state(r.group, r.pending_infra);
    r.pending_infra.clear();
  }
  assign_role_after_recovery(r);
  stats_.state_transfers_completed += 1;
  stats_.recoveries_completed += 1;
  ctr_state_transfers_.add();
  if (rec_.tracing()) {
    rec_.record(node_, obs::Layer::kMech, "recovered", r.id.value,
                "group=" + std::to_string(r.group.value) +
                    " replica=" + std::to_string(r.id.value) +
                    " bytes=" + std::to_string(r.incoming_state_bytes));
  }

  RecoveryRecord record;
  record.group = r.group;
  record.replica = r.id;
  record.launched = r.launched_at;
  record.get_state_delivered = r.get_state_at;
  record.set_state_delivered = r.set_state_at;
  record.operational = sim_.now();
  record.app_state_bytes = r.incoming_state_bytes;
  recoveries_.push_back(record);

  ETERNAL_LOG(kDebug, kTag,
              util::to_string(node_) << " replica " << util::to_string(r.id) << " of "
                                     << util::to_string(r.group) << " recovered in "
                                     << util::format_duration(record.recovery_time()));
}

void Mechanisms::assign_role_after_recovery(LocalReplica& r) {
  const GroupEntry* entry = table_.find(r.group);
  if (entry == nullptr) return;
  if (entry->desc.properties.style == ReplicationStyle::kActive) {
    set_phase(r, Phase::kOperational);
    return;
  }
  const ReplicaInfo* primary = entry->primary();
  set_phase(r, (primary != nullptr && primary->id == r.id) ? Phase::kOperational
                                                           : Phase::kBackup);
  maybe_start_checkpoint_timer(r);
}

// ----------------------------------------------------------- queue delivery

void Mechanisms::trace_enqueue(const LocalReplica& r, const Envelope& e) {
  if (!rec_.tracing()) return;
  rec_.record(node_, obs::Layer::kMech, "enqueue", e.op_seq,
              "group=" + std::to_string(r.group.value) +
                  " replica=" + std::to_string(r.id.value) +
                  " client=" + std::to_string(e.client_group.value) +
                  " op_seq=" + std::to_string(e.op_seq));
}

void Mechanisms::pump(LocalReplica& r) {
  // FOM mode: an operational replica drains its run queue through the
  // execution engine (mechanisms_exec.cpp). Every other phase — recovery,
  // backup log absorption, promotion replay — keeps the classic path.
  if (r.engine != nullptr && r.phase == Phase::kOperational) {
    engine_pump(r);
    return;
  }
  // Passive backups never execute queued requests; anything a freshly
  // recovered backup accumulated belongs in the message log (§3.3).
  if (r.phase == Phase::kBackup && !r.pending.empty()) {
    MessageLog& log = logs_[r.group.value];
    for (QueueItem& item : r.pending) {
      if (item.kind == QueueItem::Kind::kRequest) {
        log.append(std::move(item.env));
        stats_.messages_logged += 1;
      }
    }
    r.pending.clear();
    return;
  }
  while (!r.busy && !r.pending.empty() && r.phase == Phase::kOperational) {
    QueueItem item = std::move(r.pending.front());
    r.pending.pop_front();
    if (obs::SpanStore* spans = rec_.spans()) {
      spans->recovery().replayed_one(r.group, r.id, sim_.now());
    }
    switch (item.kind) {
      case QueueItem::Kind::kRequest:
        inject_request_item(r, item);
        break;
      case QueueItem::Kind::kGetState:
        inject_get_state(r, item.env);
        break;
      case QueueItem::Kind::kSetStateDiscard:
        stats_.set_state_discarded_at_existing += 1;
        break;
    }
  }
}

void Mechanisms::inject_request_item(LocalReplica& r, const QueueItem& item) {
  const Envelope& e = item.env;
  std::optional<giop::Inspection> info = giop::inspect(e.payload);
  if (!info) return;
  const orb::Endpoint from = orb::group_endpoint(e.client_group);

  obs::SpanStore* const spans = rec_.spans();
  if (spans != nullptr && item.span != 0) spans->end(item.span, sim_.now());

  if (info->has_context(giop::kVendorHandshakeContextId)) {
    // Client-server handshakes are served inside the ORB; they do not make
    // the application object busy.
    handshake_flights_[std::make_pair(from, info->request_id)].push_back(
        HandshakeFlight{r.group, /*replay=*/false});
    tap_.inject(from, e.payload);
    return;
  }

  stats_.requests_delivered += 1;
  ctr_requests_injected_.add();
  if (rec_.tracing()) {
    rec_.record(node_, obs::Layer::kMech, "request_inject", e.op_seq,
                "group=" + std::to_string(r.group.value) +
                    " replica=" + std::to_string(r.id.value) +
                    " client=" + std::to_string(e.client_group.value) +
                    " op_seq=" + std::to_string(e.op_seq));
  }
  if (info->response_expected) {
    r.busy = true;
    CurrentDispatch d;
    d.kind = CurrentDispatch::Kind::kNormal;
    d.client_group = e.client_group;
    d.op_seq = e.op_seq;
    d.reply_to = from;
    if (spans != nullptr && item.trace != 0) {
      d.trace = item.trace;
      d.exec_span = spans->begin(item.trace, spans->find_named(item.trace, "invocation"),
                                 node_, obs::Layer::kOrb, "execute", sim_.now(),
                                 "replica=" + std::to_string(r.id.value));
    }
    r.dispatch = d;
    tap_.inject(from, e.payload);
    return;
  }

  // Oneways return no response; the object is considered non-quiescent for
  // a bounded grace period (§5: oneways complicate quiescence).
  r.busy = true;
  r.dispatch.reset();
  tap_.inject(from, e.payload);
  const GroupId group = r.group;
  sim_.schedule(config_.oneway_grace, [this, group] {
    LocalReplica* replica = local_replica(group);
    if (replica == nullptr) return;
    if (replica->busy && !replica->dispatch.has_value()) {
      replica->busy = false;
      if (replica->phase == Phase::kReplaying) {
        replay_next(*replica);
      } else {
        pump(*replica);
      }
    }
  });
}

void Mechanisms::inject_get_state(LocalReplica& r, const Envelope& e) {
  const GroupEntry* entry = table_.find(r.group);
  if (entry == nullptr) return;

  // Fast path: fabricate _get_delta instead of the full retrieval when the
  // requester holds a usable base — its advertised log tip for a recovery,
  // the log keepers' shared tip for a periodic checkpoint (unless the chain
  // hit its cap and the next checkpoint must be full).
  std::uint64_t since = 0;
  if (config_.delta_chain_cap > 0) {
    if (e.subject.value == 0) {
      auto log_it = logs_.find(r.group.value);
      if (log_it != logs_.end() && log_it->second.checkpoint().has_value() &&
          log_it->second.chain_length() < config_.delta_chain_cap) {
        since = log_it->second.tip_epoch();
      }
    } else {
      auto base = recovery_base_.find({r.group.value, e.subject.value});
      if (base != recovery_base_.end()) since = base->second;
    }
  }

  giop::Request request;
  request.request_id = static_cast<std::uint32_t>(e.op_seq);
  request.response_expected = true;
  request.object_key = util::bytes_of(entry->desc.object_id);
  request.operation = since != 0 ? kGetDeltaOp : kGetStateOp;
  if (since != 0) request.body = encode_delta_request(since);

  // Profiler boundary C: the source replica has drained ahead of the
  // get_state — the group is quiescent for this transfer (checkpoints have
  // subject 0 and are not recovery transfers).
  if (obs::SpanStore* spans = rec_.spans(); spans != nullptr && e.subject.value != 0) {
    spans->recovery().quiescent(r.group, e.subject, sim_.now());
  }

  r.busy = true;
  CurrentDispatch d;
  d.kind = CurrentDispatch::Kind::kGetState;
  d.op_seq = e.op_seq;
  d.reply_to = recovery_endpoint(r.group);
  d.subject = e.subject;
  d.checkpoint = e.subject.value == 0;
  d.delta_since = since;
  r.dispatch = d;
  tap_.inject(recovery_endpoint(r.group), giop::encode(request));
}

void Mechanisms::complete_dispatch(LocalReplica& r, util::Bytes) {
  r.busy = false;
  r.dispatch.reset();
  if (r.phase == Phase::kReplaying) {
    replay_next(r);
  } else {
    pump(r);
  }
}

// -------------------------------------------------- passive logging / promo

void Mechanisms::maybe_start_checkpoint_timer(LocalReplica& r) {
  const GroupEntry* entry = table_.find(r.group);
  if (entry == nullptr) return;
  if (entry->desc.properties.style == ReplicationStyle::kActive) return;
  const ReplicaInfo* primary = entry->primary();
  if (primary == nullptr || primary->id != r.id) return;

  const GroupId group = r.group;
  const util::Duration interval = entry->desc.properties.checkpoint_interval;
  sim_.cancel(r.checkpoint_timer);
  auto tick = [this, group](auto&& self_fn) -> void {
    LocalReplica* replica = local_replica(group);
    if (replica == nullptr || replica->phase != Phase::kOperational) return;
    const GroupEntry* e = table_.find(group);
    if (e == nullptr) return;
    const ReplicaInfo* p = e->primary();
    if (p == nullptr || p->id != replica->id) return;
    send_get_state(group, ReplicaId{0});  // subject 0 = periodic checkpoint
    replica->checkpoint_timer =
        sim_.schedule(e->desc.properties.checkpoint_interval,
                      [this, self_fn] { self_fn(self_fn); });
  };
  r.checkpoint_timer = sim_.schedule(interval, [tick] { tick(tick); });
}

void Mechanisms::promote_local(GroupId group) {
  const GroupEntry* entry = table_.find(group);
  if (entry == nullptr) return;

  const ReplicaInfo* primary = entry->primary();
  if (primary != nullptr) {
    // Warm passive: the next operational member takes over (§3.2). Its
    // state already matches the last checkpoint; the logged messages since
    // then are delivered to it before it becomes fully operational (§3.3).
    LocalReplica* r = local_replica(group);
    if (r != nullptr && r->id == primary->id && r->phase == Phase::kBackup) {
      stats_.promotions += 1;
      set_phase(*r, Phase::kReplaying);
      ETERNAL_LOG(kDebug, kTag,
                  util::to_string(node_) << " promoting backup of " << util::to_string(group));
      // The promoted ORB missed every client-server handshake (§4.2.2);
      // re-enact them ahead of the replayed and future requests.
      inject_stored_handshakes(group);
      // Live delta checkpoints the backup could not apply leave its servant
      // behind the log tip; feed it the missing base/chain entries before
      // the logged messages replay (fast path: already at the tip).
      MessageLog& log = logs_[group.value];
      if (r->applied_epoch < log.tip_epoch()) {
        r->restore_queue.clear();
        if (log.checkpoint().has_value() && r->applied_epoch < log.base_epoch()) {
          Envelope base = *log.checkpoint();
          base.subject = r->id;
          r->restore_queue.push_back(std::move(base));
        }
        for (const Envelope& d : log.delta_chain()) {
          if (d.op_seq > r->applied_epoch) r->restore_queue.push_back(d);
        }
      }
      if (!r->restore_queue.empty()) {
        apply_next_restore(*r);
      } else {
        replay_next(*r);
      }
    }
    return;
  }

  // No operational member remains: cold-passive restart from the log
  // (also the last resort for a warm group that lost every member, and for
  // an orphaned recovery whose only state source died mid-transfer).
  // Deterministic restoration site: the first backup-listed node that is in
  // the current ring and whose table-visible member slot is absent or still
  // recovering (every node evaluates the same agreed state; the chosen
  // node additionally confirms its local replica really is restorable).
  const auto& backups = entry->desc.backup_nodes;
  const auto& ring = totem_for(group).view().members;
  for (NodeId candidate : backups) {
    if (std::find(ring.begin(), ring.end(), candidate) == ring.end()) continue;
    const ReplicaInfo* slot = entry->replica_on(candidate);
    if (slot != nullptr && slot->status != ReplicaStatus::kRecovering) continue;
    if (candidate == node_ && factories_.count(group.value) > 0) {
      const LocalReplica* mine = local_replica(group);
      if (mine == nullptr || mine->phase == Phase::kRecovering) {
        sim_.schedule(config_.cold_start_delay, [this, group] { cold_restart(group); });
      }
    }
    break;  // only the first eligible backup node restarts
  }
}

void Mechanisms::cold_restart(GroupId group) {
  GroupEntry* entry = table_.find_mutable(group);
  if (entry == nullptr || entry->primary() != nullptr) return;

  LocalReplica* r = local_replica(group);
  if (r == nullptr) {
    // Classic cold restart: launch the servant, announce membership.
    stats_.promotions += 1;
    const ReplicaId id = allocate_replica_id();
    do_launch(group, id, /*as_recovering=*/true);
    Envelope add;
    add.kind = EnvelopeKind::kControl;
    add.control_op = ControlOp::kAddReplica;
    add.target_group = group;
    add.subject = id;
    add.subject_node = node_;
    multicast(add);
    r = local_replica(group);
  } else if (r->phase == Phase::kRecovering) {
    // Orphaned recovery: the state source died before publishing the
    // set_state. Fall back to this node's own checkpoint+message log.
    stats_.promotions += 1;
  } else {
    return;
  }

  set_phase(*r, Phase::kReplaying);
  r->replay_cursor = 0;

  MessageLog& log = logs_[group.value];
  if (log.checkpoint().has_value()) {
    // Apply the logged checkpoint first (§3.3: checkpoint, then messages —
    // with any chained deltas between the base and the replay).
    Envelope ckpt = *log.checkpoint();
    ckpt.subject = r->id;
    // Messages enqueued at an orphaned recovery that precede the restored
    // state's get_state cut are covered by it (the chain tip is the newest
    // state this log reconstructs).
    auto cut = r->recovery_cuts.find(log.tip_epoch());
    if (cut != r->recovery_cuts.end()) {
      const std::size_t covered = std::min(cut->second, r->pending.size());
      r->pending.erase(r->pending.begin(),
                       r->pending.begin() + static_cast<std::ptrdiff_t>(covered));
    }
    r->recovery_cuts.clear();
    r->restore_queue.clear();
    r->restore_queue.push_back(std::move(ckpt));
    for (const Envelope& d : log.delta_chain()) r->restore_queue.push_back(d);
    apply_next_restore(*r);
    inject_stored_handshakes(group);  // after the ORB-level state installed
    // replay continues from complete_dispatch when set_state() returns
  } else {
    r->recovery_cuts.clear();
    inject_stored_handshakes(group);
    replay_next(*r);
  }
}

void Mechanisms::replay_log(LocalReplica& r) {
  set_phase(r, Phase::kReplaying);
  r.replay_cursor = 0;
  replay_next(r);
}

void Mechanisms::replay_next(LocalReplica& r) {
  if (r.phase != Phase::kReplaying || r.busy) return;
  MessageLog& log = logs_[r.group.value];
  if (r.replay_cursor >= log.messages().size()) {
    set_phase(r, Phase::kOperational);
    Envelope e;
    e.kind = EnvelopeKind::kControl;
    e.control_op = ControlOp::kReplicaOperational;
    e.target_group = r.group;
    e.subject = r.id;
    e.subject_node = node_;
    multicast(e);
    maybe_start_checkpoint_timer(r);
    pump(r);
    return;
  }
  // Read through the log without consuming it; the entries stay until the
  // next checkpoint's mark truncates them.
  Envelope next = log.messages()[r.replay_cursor++];
  stats_.log_replayed_messages += 1;
  if (next.kind == EnvelopeKind::kGetState) {
    inject_get_state(r, next);
    return;  // continues from complete_dispatch when the reply is captured
  }
  QueueItem item;
  item.kind = QueueItem::Kind::kRequest;
  item.env = std::move(next);
  // The replayed log entry (re)enters this replica's execution order here —
  // recorded so the checker sees injections follow the logged total order.
  trace_enqueue(r, item.env);
  inject_request_item(r, item);
  if (!r.busy) replay_next(r);  // handshakes complete immediately
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
        if (event.node == node_) {
          LocalReplica* r = local_replica(event.group);
          if (r != nullptr && r->id == event.replica) {
            sim_.cancel(r->checkpoint_timer);
            sim_.cancel(r->detector_timer);
            // Final phase event before the record disappears, so trace
            // consumers never see the replica as still live.
            set_phase(*r, Phase::kDead);
            replicas_.erase(event.group.value);
            // Any chunked or bulk send our replica was sourcing dies with it.
            if (outgoing_chunks_.erase(event.group.value) > 0) {
              stats_.chunk_sends_aborted += 1;
            }
            abort_bulk_send(event.group, /*fallback=*/false);
          }
        }
        // GC chunked transfers tied to the removed replica: an outgoing send
        // serving it would keep multicasting chunks nobody applies, and a
        // partial reassembly for it would collide with a later transfer
        // keyed to the same (group, epoch).
        auto out_it = outgoing_chunks_.find(event.group.value);
        if (out_it != outgoing_chunks_.end() &&
            out_it->second.subject == event.replica) {
          stats_.chunk_sends_aborted += 1;
          outgoing_chunks_.erase(out_it);
        }
        for (auto it = incoming_chunks_.begin(); it != incoming_chunks_.end();) {
          if (it->first.first == event.group.value &&
              it->second.subject == event.replica) {
            stats_.state_chunk_aborts += 1;
            it = incoming_chunks_.erase(it);
          } else {
            ++it;
          }
        }
        // Likewise for bulk transfers serving the removed replica: the
        // sender's stream, the reassembly, and the resume stash (the subject
        // is gone for good — a relaunch gets a fresh replica id).
        auto bulk_it = outgoing_bulk_.find(event.group.value);
        if (bulk_it != outgoing_bulk_.end() &&
            bulk_it->second.subject == event.replica) {
          abort_bulk_send(event.group, /*fallback=*/false);
        }
        gc_bulk_incoming(event.group.value, event.replica, 0);
        awaiting_get_state_[event.group.value].erase(event.replica.value);
        recovery_base_.erase({event.group.value, event.replica.value});
        // The removed replica may have been the state source of an ongoing
        // recovery; the (possibly new) coordinator re-issues the retrieval
        // for any subject still waiting (duplicate set_states are absorbed
        // by the epoch windows).
        const GroupEntry* entry = table_.find(event.group);
        // Survivors record the agreed death: a replica whose processor
        // crashed never writes its own final phase event, so trace
        // consumers (the multi-primary invariant) would keep counting it
        // as operational through the successor's promotion.
        if (rec_.tracing()) {
          rec_.record(node_, obs::Layer::kMech, "phase", event.replica.value,
                      "group=" + std::to_string(event.group.value) +
                          " replica=" + std::to_string(event.replica.value) +
                          " phase=dead style=" +
                          (entry ? to_string(entry->desc.properties.style) : "?") +
                          (totems_.size() > 1
                               ? " ring=" + std::to_string(ring_of(event.group))
                               : ""));
        }
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
        // A new state source exists; if recoveries were stranded (their
        // earlier source died mid-transfer), the coordinator retries them.
        const GroupEntry* entry = table_.find(event.group);
        if (entry != nullptr) {
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
      multicast(e);
      return;  // the replica entry is erased when the removal delivers
    }
    replica->detector_timer =
        sim_.schedule(interval, [self_fn] { self_fn(self_fn); });
  };
  r.detector_timer = sim_.schedule(interval, [ping] { ping(ping); });
}

}  // namespace eternal::core
