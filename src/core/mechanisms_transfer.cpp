// State transfer: the Figure-5 get_state/set_state protocol (§5.1), the
// three-kind snapshots it piggybacks (§4), in-band chunks, and the
// out-of-band bulk lane (control/data split, motr-rpc style).
//
// The totally-ordered ring carries only two skinny control messages per
// transfer: a kStateBulkDescriptor announcing {transfer id, epoch, geometry,
// per-extent FNV-1a digests}, and a kStateBulkComplete marker that pins the
// set_state's logical instant at its own total-order position — exactly where
// the final kStateChunk would have delivered it on the in-band path. The
// state bytes themselves stream point-to-point on the bulk lane
// (sim/bulk_lane.hpp) as kBulkExtent frames under a credit window, each
// acknowledged (kBulkAck) only after its digest verified against the
// descriptor.
//
// Safety argument: the sender multicasts the marker only after every extent
// is acked, and the receiver acks only verified extents — so a delivered
// marker implies the recoverer holds the complete, digest-checked image.
// Every node (recoverer or not) synthesizes the set_state at the marker's
// position: the group table's apply_state_transfer consumes only envelope
// metadata, all of which the marker carries, so non-recoverers stay
// table-consistent without ever seeing the state bytes. Lane events mutate
// only transfer-local state, never the replicated table or servants —
// logical time stays solely on the ring.
//
// Failure handling: lost extents/acks are covered by re-acks and the
// sender's retry timer; retry exhaustion (lane disabled, partitioned, dead
// receiver) switches the transfer to ring chunks in place, under the same
// epoch. A receiver whose lane attempt dies (sender gone, newer epoch, or
// the same epoch falling back to the ring) stashes its verified extents
// keyed by content digest; the next attempt's descriptor (same or new
// sender) is pre-filled from the stash and the matching extents acked
// immediately — resume without re-shipping.
#include <algorithm>
#include <utility>

#include "core/checkpointable.hpp"
#include "core/mechanisms.hpp"
#include "obs/spans.hpp"
#include "util/log.hpp"

namespace eternal::core {

namespace {
constexpr const char* kTag = "eternal";
}  // namespace

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
  multicast(std::move(e));
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
    rec_.record(node_, obs::Layer::kMech, "get_state_cut", e.op_seq,
                {{"group", e.target_group.value},
                 {"replica", r->id.value},
                 {"cut", r->pending.size()}});
    return;
  }

  // §5.1(i): deliver get_state to the replicas holding the current state —
  // every operational replica for active replication, the primary for
  // passive. Each active replica runs the retrieval at the same point of its
  // order, but publish_state puts one copy of the set_state on the ring.
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

void Mechanisms::publish_state(LocalReplica& r, const exec::Fom& op, util::BytesView body) {
  // §5.1(iii)-(iv): fabricate the set_state from the get_state return value
  // and piggyback the ORB/POA-level and infrastructure-level state. Subject
  // 0 is a periodic checkpoint.
  const bool checkpoint = op.subject.value == 0;
  Envelope e;
  e.kind = checkpoint ? EnvelopeKind::kCheckpoint : EnvelopeKind::kSetState;
  e.target_group = r.group;
  e.op_seq = op.op_seq;
  e.subject = op.subject;
  e.subject_node = node_;
  if (op.delta_since == 0) {
    e.payload.assign(body.begin(), body.end());
  } else {
    // _get_delta reply: either a real delta or the inline full-state
    // fallback; both arrive in the same totally-ordered round.
    try {
      auto [is_delta, state] = decode_delta_reply(body);
      if (is_delta) {
        e.delta_base = op.delta_since;
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
  // One copy of a set_state on the ring. Active replicas all answer the
  // retrieval: a state larger than one Totem fragment is published by the
  // group's primary alone (rival copies would fragment the whole state onto
  // the ring at once, each holding its node's replies behind it; if the
  // primary dies first, kReplicaRemoved re-issues the retrieval), while a
  // small one is raced and the first delivered copy withdraws the others.
  RacedStream* stream = nullptr;
  if (!checkpoint && raced(r.group)) {
    stream = &set_state_seen_[r.group.value];
    const ReplicaInfo* primary = table_.find(r.group)->primary();
    const bool fragmented = encoded_size(e) > totem_for(r.group).fragment_capacity();
    if (stream->delivered(e.op_seq) ||
        (fragmented && (primary == nullptr || primary->id != r.id))) {
      stats_.set_states_withdrawn += 1;
      return;
    }
  }
  if (checkpoint) stats_.checkpoints_taken += 1;
  if (obs::SpanStore* spans = rec_.spans(); spans != nullptr && !checkpoint) {
    spans->recovery().state_captured(r.group, op.subject, sim_.now(), e.payload.size());
  }
  ETERNAL_LOG(kTrace, kTag,
              util::to_string(node_) << " publishing " << (checkpoint ? "checkpoint" : "set_state")
                                     << " epoch " << op.op_seq << " ("
                                     << e.payload.size() << "B app state)");
  if (!checkpoint && config_.state_chunk_bytes > 0 &&
      e.payload.size() + e.orb_state.size() + e.infra_state.size() >
          config_.state_chunk_bytes) {
    start_transfer(r.group, e);
    return;
  }
  multicast_copy(std::move(e), stream);
}

void Mechanisms::deliver_set_state(Envelope e) {
  if (!first_delivery(set_state_seen_[e.target_group.value], e.target_group, e.op_seq,
                      stats_.set_states_withdrawn)) {
    return;
  }
  ETERNAL_LOG(kTrace, kTag,
              util::to_string(node_) << " delivered set_state epoch " << e.op_seq << " for "
                                     << util::to_string(e.subject) << " ("
                                     << e.payload.size() << "B app state)");
  react(table_.apply_state_transfer(e));
  awaiting_get_state_[e.target_group.value].erase(e.subject.value);

  // This epoch's state has landed (whatever path carried it): lane
  // transfers still working the same subject at this or an older epoch are
  // superseded — a rival sender stands down, stale reassemblies and the
  // resume stash go.
  sweep_transfers([&](const TransferView& v) {
    if (!v.lane || v.key.first != e.target_group.value) return false;
    return v.outgoing ? v.key.second == e.op_seq
                      : v.subject == e.subject && v.key.second <= e.op_seq;
  }, Sweep::kAbort);
  bulk_stash_.erase({e.target_group.value, e.subject.value});

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
            spans->end(r->pending[i].span, sim_.now(), {{"covered", 1}});
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
    rec_.record(node_, obs::Layer::kMech, "set_state_apply", e.op_seq,
                {{"group", e.target_group.value},
                 {"replica", r->id.value},
                 {"covered", covered},
                 {"bytes", e.payload.size()}});
    r->recovery_cuts.clear();
    // The transferred state supersedes this node's logged prefix: for a
    // passive replica the recovery set_state is, log-wise, a checkpoint
    // (messages before the get_state cut must not be replayed on top).
    auto log_it = logs_.find(e.target_group.value);
    if (e.delta_base != 0) {
      // The source shipped only the changes since our advertised log tip.
      // The full state is our logged base + chained deltas + this one,
      // applied as a restore chain.
      if (log_it == logs_.end() || !log_it->second.set_checkpoint(e)) {
        stats_.state_transfer_failures += 1;
        ETERNAL_LOG(kWarn, kTag,
                    util::to_string(node_)
                        << " delta set_state epoch " << e.op_seq << " (base "
                        << e.delta_base << ") has no applicable local base");
        return;
      }
      persist_log(e.target_group);
      fill_restore_queue(*r, log_it->second, 0);
    } else {
      if (log_it != logs_.end()) {
        log_it->second.set_checkpoint(e);
        persist_log(e.target_group);
      }
      r->restore_queue.push_back({std::move(e), exec::FomKind::kSetState});
    }
    apply_next_restore(*r);
    return;
  }

  // §5.1(vi): at existing replicas the set_state is enqueued in order and
  // discarded when it reaches the head of the queue (only its position
  // matters, so the item carries no envelope).
  if (r->phase == Phase::kOperational) {
    QueueItem item;
    item.kind = QueueItem::Kind::kSetStateDiscard;
    r->pending.push_back(std::move(item));
    pump(*r);
  }
}

void Mechanisms::deliver_checkpoint(Envelope e) {
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
  // primary's checkpoint as it arrives (§3.2), after any checkpoint still
  // being applied. A delta only applies to a servant whose state already
  // reflects the delta's base epoch.
  if (r != nullptr && r->phase == Phase::kBackup) {
    if (e.delta_base != 0 && r->applied_epoch < e.delta_base) {
      stats_.delta_skipped_unappliable += 1;
    } else {
      r->restore_queue.push_back({std::move(e), exec::FomKind::kCheckpoint});
      apply_next_restore(*r);
    }
  }
}

void Mechanisms::apply_state(LocalReplica& r, Envelope e, exec::FomKind kind) {
  const GroupEntry* entry = table_.find(r.group);
  if (entry == nullptr) return;
  const bool recovery = kind == exec::FomKind::kSetState;
  ETERNAL_LOG(kTrace, kTag,
              util::to_string(node_) << " applying " << (recovery ? "state" : "checkpoint")
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
  // client; the replies will be captured and discarded. (Checkpoint-style
  // applies skip this — the backup ORB gets the handshakes exactly once,
  // at promotion, to keep its deterministic short-key assignment aligned.)
  if (recovery) inject_stored_handshakes(r.group);

  // Infrastructure-level state is assigned last (§4.3); stash it until the
  // set_state completes.
  r.pending_infra = std::move(e.infra_state);

  // Application-level state: the fabricated set_state() invocation.
  exec::Fom op;
  op.kind = kind;
  op.op_seq = e.op_seq;
  inject_state_op(r, op, entry->desc.object_id,
                  e.delta_base != 0 ? kApplyDeltaOp : kSetStateOp, std::move(e.payload));
}

void Mechanisms::fill_restore_queue(LocalReplica& r, const MessageLog& log,
                                    std::uint64_t above) {
  r.restore_queue.clear();
  if (log.base_epoch() > above) {
    Envelope base = *log.checkpoint();
    base.subject = r.id;
    r.restore_queue.push_back({std::move(base), exec::FomKind::kRestoreStep});
  }
  for (const Envelope& d : log.delta_chain())
    if (d.op_seq > above) r.restore_queue.push_back({d, exec::FomKind::kRestoreStep});
  // The last step of a live recovery runs the full set_state epilogue; a
  // replaying replica (cold restart / promotion) continues into its log
  // replay instead, so its last step counts as a checkpoint.
  if (!r.restore_queue.empty()) {
    r.restore_queue.back().kind = r.phase == Phase::kRecovering ? exec::FomKind::kSetState
                                                                : exec::FomKind::kCheckpoint;
  }
}

void Mechanisms::apply_next_restore(LocalReplica& r) {
  if (r.restore_queue.empty() || !r.engine.can_admit(r.restore_queue.front().kind)) return;
  RestoreStep next = std::move(r.restore_queue.front());
  r.restore_queue.pop_front();
  apply_state(r, std::move(next.state), next.kind);
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
    conn.handshake_reply = util::SharedSlice::copy_of(cs.handshake_reply);
  }
  for (const ServerConnState& ss : state->server_conns) {
    server_handshakes_[std::make_pair(group.value, ss.client)] =
        util::SharedSlice::copy_of(ss.handshake_request);
  }
}

void Mechanisms::install_infra_state(GroupId group, BytesView blob) {
  std::optional<InfraLevelState> state = decode_infra_state(blob);
  if (!state) {
    ETERNAL_LOG(kWarn, kTag, "malformed infrastructure-level state snapshot; skipped");
    return;
  }
  for (const auto& rf : state->requests_seen) {
    req_seen_[std::make_pair(rf.client_group.value, group.value)].restore(rf.seen);
  }
  for (const auto& rf : state->replies_seen) {
    reply_seen_[std::make_pair(group.value, rf.server_group.value)].restore(rf.seen);
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
  for (const auto& [key, stream] : req_seen_) {
    if (key.second != group.value) continue;
    state.requests_seen.push_back(
        InfraLevelState::RequestsFrom{GroupId{key.first}, stream.window()});
  }
  for (const auto& [key, stream] : reply_seen_) {
    if (key.first != group.value) continue;
    state.replies_seen.push_back(
        InfraLevelState::RepliesFrom{GroupId{key.second}, stream.window()});
  }
  return state;
}

// ------------------------------------------------------- transfer lifecycle

std::optional<Envelope> Mechanisms::Reassembly::join() const {
  std::size_t total = 0;
  for (const Bytes& part : parts) total += part.size();
  Bytes encoded;
  encoded.reserve(total);
  for (const Bytes& part : parts) encoded.insert(encoded.end(), part.begin(), part.end());
  return decode_envelope(encoded);
}

void Mechanisms::sweep_transfers(const std::function<bool(const TransferView&)>& match,
                                 Sweep how) {
  const bool counted = how != Sweep::kForget;
  for (auto it = outgoing_.begin(); it != outgoing_.end();) {
    OutgoingTransfer& t = it->second;
    if (!match({it->first, ring_of(GroupId{it->first.first}), t.subject, node_, t.lane(),
                /*outgoing=*/true})) {
      ++it;
      continue;
    }
    sim_.cancel(t.retry_timer);
    if (counted) (t.lane() ? stats_.bulk_transfers_aborted : stats_.chunk_sends_aborted) += 1;
    it = outgoing_.erase(it);
  }
  for (auto it = incoming_.begin(); it != incoming_.end();) {
    Reassembly& re = it->second;
    if (!match({it->first, ring_of(GroupId{it->first.first}), re.subject, re.sender,
                re.lane(), /*outgoing=*/false})) {
      ++it;
      continue;
    }
    if (counted) (re.lane() ? stats_.bulk_transfers_aborted : stats_.state_chunk_aborts) += 1;
    if (how == Sweep::kStash && re.lane()) {
      // The verified extents become the resume source of the next attempt.
      auto& stash = bulk_stash_[{it->first.first, re.subject.value}];
      for (std::size_t i = 0; i < re.parts.size(); ++i) {
        if (!re.parts[i].empty()) stash[re.digests[i]] = std::move(re.parts[i]);
      }
    }
    it = incoming_.erase(it);
  }
}

// ------------------------------------------------------------------ sender

bool Mechanisms::bulk_usable(NodeId to) const {
  return config_.bulk_lane && bulk_lane_ != nullptr && bulk_lane_->enabled() &&
         bulk_lane_->attached(node_) && bulk_lane_->attached(to);
}

void Mechanisms::start_transfer(GroupId group, const Envelope& inner) {
  const TransferKey key{group.value, inner.op_seq};
  OutgoingTransfer t{.subject = inner.subject,
                     .encoded = encode_envelope(inner),
                     .delta_base = inner.delta_base};
  if (config_.bulk_lane) {
    // The lane is point-to-point: the only receiver is the recoverer's node.
    const GroupEntry* entry = table_.find(group);
    if (const ReplicaInfo* m = entry ? entry->find_replica(inner.subject) : nullptr) {
      t.to = m->node;
    }
    if (t.to.value != 0 && t.to != node_ && bulk_usable(t.to)) {
      t.transfer_id = (static_cast<std::uint64_t>(node_.value) << 32) | next_transfer_nonce_++;
    } else {
      stats_.bulk_fallbacks_chunked += 1;
    }
  }
  open_send(key, outgoing_[key] = std::move(t));
}

void Mechanisms::open_send(const TransferKey& key, OutgoingTransfer& t) {
  // A new send supersedes our older sends serving the same recoverer.
  sweep_transfers([&](const TransferView& v) {
    return v.outgoing && v.key.first == key.first && v.key != key && v.subject == t.subject;
  }, Sweep::kForget);
  if (!t.lane()) {
    t.slice = config_.state_chunk_bytes;
    ETERNAL_LOG(kDebug, kTag,
                util::to_string(node_) << " chunking " << t.encoded.size() << "B state epoch "
                                       << key.second << " into " << t.count() << " chunks");
    // Prime the pipelining window; each self-delivered chunk pumps one more,
    // so normal traffic interleaves with the transfer in the total order.
    send_chunks(key, t, std::max<std::size_t>(1, config_.state_chunk_window));
    return;
  }
  t.slice = std::max<std::size_t>(1, config_.bulk_extent_bytes);
  t.acked.assign(t.count(), false);
  ETERNAL_LOG(kDebug, kTag,
              util::to_string(node_) << " bulk transfer " << t.transfer_id << ": "
                                     << t.encoded.size() << "B state epoch " << key.second
                                     << " in " << t.count() << " extents to "
                                     << util::to_string(t.to));
  stats_.bulk_transfers_started += 1;
  Envelope descriptor = transfer_envelope(key, t, EnvelopeKind::kStateBulkDescriptor);
  multicast(std::move(descriptor));
  // Streaming starts when the descriptor self-delivers (and was first for
  // its epoch in the total order); the timer covers a descriptor that never
  // comes back (ring reformation ate it).
  arm_bulk_retry(key, t);
}

Envelope Mechanisms::transfer_envelope(const TransferKey& key, const OutgoingTransfer& t,
                                       EnvelopeKind kind, std::size_t index) const {
  Envelope e;
  e.kind = kind;
  e.target_group = GroupId{key.first};
  e.op_seq = key.second;
  e.subject = t.subject;
  e.subject_node = node_;
  e.chunk_count = static_cast<std::uint32_t>(t.count());
  if (kind == EnvelopeKind::kStateChunk || kind == EnvelopeKind::kBulkExtent) {
    e.chunk_index = static_cast<std::uint32_t>(index);
    const BytesView slice = t.slice_of(index);
    e.payload.assign(slice.begin(), slice.end());
  } else {
    e.delta_base = t.delta_base;  // descriptor and marker
  }
  if (kind != EnvelopeKind::kStateChunk) {
    e.transfer_id = t.transfer_id;
    e.total_bytes = t.encoded.size();
    e.extent_bytes = static_cast<std::uint32_t>(t.slice);
  }
  if (kind == EnvelopeKind::kStateBulkDescriptor) {
    for (std::size_t i = 0; i < e.chunk_count; ++i) {
      e.extent_digests.push_back(util::fnv1a(t.slice_of(i)));
    }
  }
  return e;
}

void Mechanisms::send_chunks(const TransferKey& key, OutgoingTransfer& t, std::size_t upto) {
  while (t.next < t.count() && t.next < upto) {
    Envelope chunk = transfer_envelope(key, t, EnvelopeKind::kStateChunk, t.next++);
    multicast(std::move(chunk));
    stats_.state_chunks_sent += 1;
  }
}

void Mechanisms::ship_bulk_extent(const TransferKey& key, const OutgoingTransfer& t,
                                  std::size_t index) {
  stats_.bulk_extents_sent += 1;
  bulk_lane_->send(node_, t.to,
                   encode_envelope(transfer_envelope(key, t, EnvelopeKind::kBulkExtent, index)));
}

void Mechanisms::pump_bulk_send(const TransferKey& key, OutgoingTransfer& t) {
  const std::size_t count = t.count();
  if (t.acked_count >= count) {
    if (!t.marker_sent) {
      t.marker_sent = true;
      sim_.cancel(t.retry_timer);
      Envelope marker = transfer_envelope(key, t, EnvelopeKind::kStateBulkComplete);
      multicast(std::move(marker));
    }
    return;
  }
  /// Extents in flight on the lane before waiting for acks.
  constexpr std::size_t kBulkCreditWindow = 4;
  static_assert(kBulkCreditWindow >= 1, "a 0 window would never ship an extent");
  while (t.next < count && t.inflight < kBulkCreditWindow) {
    const std::size_t i = t.next++;
    if (t.acked[i]) continue;  // satisfied from the receiver's stash
    t.inflight += 1;
    ship_bulk_extent(key, t, i);
  }
  arm_bulk_retry(key, t);
}

void Mechanisms::arm_bulk_retry(const TransferKey& key, OutgoingTransfer& t) {
  if (t.marker_sent) return;
  sim_.cancel(t.retry_timer);
  /// Re-send timeout for the oldest unacked extent.
  constexpr util::Duration kBulkRetryTimeout = util::Duration(10'000'000);  ///< 10 ms
  /// Consecutive retry rounds before the sender gives up and falls back to
  /// the in-band chunked path.
  constexpr std::size_t kBulkMaxRetries = 8;
  const std::uint64_t id = t.transfer_id;
  t.retry_timer = sim_.schedule(kBulkRetryTimeout, [this, key, id] {
    auto cur = outgoing_.find(key);
    if (cur == outgoing_.end() || cur->second.transfer_id != id) return;
    OutgoingTransfer& live = cur->second;
    if (live.marker_sent) return;
    live.retry_rounds += 1;
    stats_.bulk_extent_retries += 1;
    if (live.retry_rounds > kBulkMaxRetries) {
      ETERNAL_LOG(kWarn, kTag,
                  util::to_string(node_) << " bulk transfer " << live.transfer_id
                                         << " exhausted retries; falling back in-band");
      fall_back_to_ring(key, live);
      return;
    }
    // Re-ship everything in flight; lost acks are answered with re-acks.
    for (std::size_t i = 0; i < live.next; ++i) {
      if (!live.acked[i]) ship_bulk_extent(key, live, i);
    }
    if (live.streaming) pump_bulk_send(key, live);
    arm_bulk_retry(key, live);
  });
}

void Mechanisms::fall_back_to_ring(const TransferKey& key, OutgoingTransfer& t) {
  sim_.cancel(t.retry_timer);
  stats_.bulk_transfers_aborted += 1;
  stats_.bulk_fallbacks_chunked += 1;
  // Same epoch: the recoverer's epoch window has not consumed it, so the
  // chunks land at the cut the get_state reserved. Only the medium changes.
  t = OutgoingTransfer{
      .subject = t.subject, .encoded = std::move(t.encoded), .delta_base = t.delta_base};
  open_send(key, t);
}

// ---------------------------------------------------------------- receiver

void Mechanisms::deliver_state_chunk(const Envelope& e) {
  const TransferKey key{e.target_group.value, e.op_seq};
  // Sender side: our own chunk came back through the total order — the
  // window has room for the next one.
  auto out = outgoing_.find(key);
  if (e.subject_node == node_ && out != outgoing_.end() && !out->second.lane()) {
    OutgoingTransfer& t = out->second;
    if (t.next < t.count()) send_chunks(key, t, t.next + 1);
    else if (e.chunk_index + 1 == e.chunk_count) outgoing_.erase(out);
  }

  // Receiver side: every member reassembles (the sender included — its own
  // copy delivers through the same path a monolithic multicast would).
  const auto this_reassembly = [&](const TransferView& v) {
    return !v.outgoing && v.key == key;
  };
  if (auto open = incoming_.find(key); open != incoming_.end() && open->second.lane()) {
    // The lane sender of this epoch gave up and fell back to the ring. Bank
    // the lane attempt's verified extents for a later resume.
    sweep_transfers(this_reassembly, Sweep::kStash);
  }
  Reassembly& ra = incoming_[key];
  if (ra.parts.empty()) {
    ra.parts.resize(e.chunk_count);
    ra.sender = e.subject_node;
    ra.subject = e.subject;
  } else if (ra.sender != e.subject_node) {
    // Two active replicas may chunk the same retrieval epoch: a state that
    // fits one Totem fragment is raced, and a removal racing the publish
    // can leave two nodes each believing it is the primary. The copies need
    // not be byte-identical (infra snapshots differ per node), so
    // interleaving two senders' chunks into one buffer would reassemble
    // garbage. First sender wins; rivals' chunks are redundant copies of
    // the same logical transfer.
    stats_.state_chunk_duplicates += 1;
    return;
  }
  if (e.chunk_count != ra.parts.size() || e.chunk_index >= ra.parts.size()) {
    ETERNAL_LOG(kWarn, kTag, "inconsistent state-chunk geometry; reassembly aborted");
    sweep_transfers(this_reassembly, Sweep::kAbort);
    return;
  }
  if (!ra.accept(e.chunk_index, e.payload)) {
    stats_.state_chunk_duplicates += 1;
    return;
  }
  stats_.state_chunks_received += 1;
  if (obs::SpanStore* spans = rec_.spans()) {
    spans->recovery().chunk_arrived(e.target_group, e.subject, sim_.now(),
                                    e.chunk_index, e.chunk_count, e.payload.size());
  }
  if (!ra.complete()) return;

  std::optional<Envelope> inner = ra.join();
  incoming_.erase(key);
  // A completed transfer supersedes older stalled ring reassemblies for
  // the same recoverer (their source died or was overtaken mid-stream).
  sweep_transfers([&](const TransferView& v) {
    return !v.outgoing && !v.lane && v.key.first == key.first && v.subject == e.subject &&
           v.key.second < key.second;
  }, Sweep::kAbort);
  if (!inner || (inner->kind != EnvelopeKind::kSetState &&
                 inner->kind != EnvelopeKind::kCheckpoint)) {
    ETERNAL_LOG(kWarn, kTag, "malformed reassembled state envelope; dropped");
    stats_.state_chunk_aborts += 1;
    return;
  }
  // The inner envelope's logical delivery point is the final chunk's
  // total-order position — identical at every member.
  if (inner->kind == EnvelopeKind::kSetState) {
    deliver_set_state(std::move(*inner));
  } else {
    deliver_checkpoint(std::move(*inner));
  }
}

void Mechanisms::deliver_bulk_descriptor(const Envelope& e) {
  const TransferKey key{e.target_group.value, e.op_seq};
  // Sender-side coordination happens at the descriptor's ordered position.
  auto out = outgoing_.find(key);
  if (out != outgoing_.end() && out->second.lane() && !out->second.streaming) {
    if (e.subject_node == node_ && e.transfer_id == out->second.transfer_id) {
      out->second.streaming = true;
      pump_bulk_send(key, out->second);
    } else {
      // A rival source of the same retrieval (a removal raced the
      // primary-only publish) ordered its descriptor before ours, so the
      // receiver keyed its reassembly to the rival. Stand down silently —
      // the rival's marker (or its fallback) completes the epoch.
      sweep_transfers([&](const TransferView& v) { return v.outgoing && v.key == key; },
                      Sweep::kAbort);
    }
  }
  rec_.record(node_, obs::Layer::kMech, "bulk_descriptor", e.op_seq,
              {{"group", e.target_group.value},
               {"transfer", e.transfer_id},
               {"extents", e.chunk_count},
               {"bytes", e.total_bytes}});

  // Only the recoverer assembles; everyone else needs just the marker.
  LocalReplica* r = local_replica(e.target_group);
  if (r == nullptr || r->id != e.subject || r->phase != Phase::kRecovering) return;
  if (set_state_seen_[e.target_group.value].delivered(e.op_seq)) return;  // already applied
  if (incoming_.count(key) > 0) return;  // first descriptor wins

  // A newer-epoch attempt supersedes stalled older ones for us; bank their
  // verified extents for the resume pre-fill below.
  sweep_transfers([&](const TransferView& v) {
    return !v.outgoing && v.lane && v.key.first == key.first && v.subject == e.subject &&
           v.key.second < key.second;
  }, Sweep::kStash);

  Reassembly& re = incoming_[key];
  re.transfer_id = e.transfer_id;
  re.sender = e.subject_node;
  re.subject = e.subject;
  re.total_bytes = e.total_bytes;
  re.extent_bytes = e.extent_bytes;
  re.digests = e.extent_digests;
  re.parts.resize(e.chunk_count);

  if (obs::SpanStore* spans = rec_.spans()) {
    spans->recovery().bulk_descriptor(e.target_group, e.subject, sim_.now(),
                                      e.chunk_count, e.total_bytes);
  }

  // Resume: pre-fill from a prior attempt's verified extents. The digest
  // match makes this sound across senders — only byte-identical slices at
  // identical offsets are reused, and the ack tells the (new) sender to skip
  // them.
  auto st = bulk_stash_.find({key.first, e.subject.value});
  if (st != bulk_stash_.end()) {
    for (std::size_t i = 0; i < re.parts.size(); ++i) {
      auto hit = st->second.find(re.digests[i]);
      if (hit == st->second.end()) continue;
      const std::uint64_t offset = static_cast<std::uint64_t>(i) * re.extent_bytes;
      const std::uint64_t expected =
          std::min<std::uint64_t>(re.extent_bytes, re.total_bytes - offset);
      if (hit->second.size() != expected) continue;
      re.accept(i, hit->second);
      stats_.bulk_extents_resumed += 1;
      send_bulk_ack(key, re, i);
    }
    if (re.received > 0) {
      ETERNAL_LOG(kDebug, kTag,
                  util::to_string(node_) << " bulk transfer " << re.transfer_id << " resumed "
                                         << re.received << "/" << re.parts.size()
                                         << " extents from stash");
    }
    if (obs::SpanStore* spans = rec_.spans(); spans != nullptr && re.complete()) {
      spans->recovery().bulk_streamed(e.target_group, e.subject, sim_.now());
    }
  }
}

void Mechanisms::on_bulk(NodeId from, util::BytesView payload) {
  std::optional<Envelope> env = decode_envelope(payload);
  if (!env) {
    ETERNAL_LOG(kWarn, kTag, "malformed bulk-lane frame; dropped");
    return;
  }
  // Ordered kinds have no business on the lane; ignore them so a confused
  // or malicious peer cannot smuggle around the total order.
  if (env->kind == EnvelopeKind::kBulkExtent) handle_bulk_extent(from, *env);
  if (env->kind == EnvelopeKind::kBulkAck) handle_bulk_ack(*env);
}

void Mechanisms::handle_bulk_extent(NodeId from, const Envelope& e) {
  const TransferKey key{e.target_group.value, e.op_seq};
  auto it = incoming_.find(key);
  if (it == incoming_.end()) return;  // unknown/superseded: no ack, sender retries
  Reassembly& re = it->second;
  if (re.transfer_id != e.transfer_id || re.sender != from ||
      e.chunk_count != re.parts.size() || e.chunk_index >= re.parts.size() ||
      e.total_bytes != re.total_bytes || e.extent_bytes != re.extent_bytes) {
    return;
  }
  if (re.parts[e.chunk_index].empty() && util::fnv1a(e.payload) != re.digests[e.chunk_index]) {
    stats_.bulk_digest_mismatches += 1;
    ETERNAL_LOG(kWarn, kTag,
                util::to_string(node_) << " bulk extent " << e.chunk_index << " of transfer "
                                       << e.transfer_id << " failed digest verify; dropped");
    return;  // no ack — the sender re-ships it (or exhausts and falls back)
  }
  // A duplicate means our earlier ack was lost on the lane: re-ack it.
  const bool fresh = re.accept(e.chunk_index, e.payload);
  if (fresh) {
    stats_.bulk_extents_received += 1;
    if (obs::SpanStore* spans = rec_.spans()) {
      spans->recovery().bulk_extent(e.target_group, re.subject, sim_.now(), e.chunk_index,
                                    e.chunk_count, e.payload.size());
    }
  }
  send_bulk_ack(key, re, e.chunk_index);
  if (obs::SpanStore* spans = rec_.spans(); spans != nullptr && fresh && re.complete()) {
    spans->recovery().bulk_streamed(e.target_group, re.subject, sim_.now());
  }
}

void Mechanisms::send_bulk_ack(const TransferKey& key, const Reassembly& re,
                               std::size_t index) {
  if (bulk_lane_ == nullptr) return;
  Envelope ack;
  ack.kind = EnvelopeKind::kBulkAck;
  ack.target_group = GroupId{key.first};
  ack.op_seq = key.second;
  ack.subject = re.subject;
  ack.subject_node = node_;
  ack.chunk_index = static_cast<std::uint32_t>(index);
  ack.chunk_count = static_cast<std::uint32_t>(re.parts.size());
  ack.transfer_id = re.transfer_id;
  bulk_lane_->send(node_, re.sender, encode_envelope(ack));
}

void Mechanisms::handle_bulk_ack(const Envelope& e) {
  const TransferKey key{e.target_group.value, e.op_seq};
  auto it = outgoing_.find(key);
  if (it == outgoing_.end()) return;
  OutgoingTransfer& t = it->second;
  if (t.transfer_id != e.transfer_id) return;
  if (e.chunk_index >= t.acked.size() || t.acked[e.chunk_index]) return;
  t.acked[e.chunk_index] = true;
  t.acked_count += 1;
  if (e.chunk_index < t.next && t.inflight > 0) t.inflight -= 1;  // it was shipped
  t.retry_rounds = 0;  // forward progress
  // Resume acks can land before our descriptor self-delivers; hold the
  // stream (and the marker) until the ordered start, as the rival-descriptor
  // stand-down is decided there.
  if (t.streaming) pump_bulk_send(key, t);
}

void Mechanisms::deliver_bulk_marker(const Envelope& e) {
  const TransferKey key{e.target_group.value, e.op_seq};
  // Sender bookkeeping at the marker's ordered position: the transfer is
  // done (deliver_set_state below also stands down any same-epoch rival).
  auto out = outgoing_.find(key);
  if (out != outgoing_.end() && out->second.transfer_id == e.transfer_id) {
    sim_.cancel(out->second.retry_timer);
    outgoing_.erase(out);
  }
  if (set_state_seen_[e.target_group.value].delivered(e.op_seq)) return;  // duplicate epoch

  // The recoverer substitutes the reassembled inner envelope; every other
  // node synthesizes a skeleton carrying the marker's metadata. Both run
  // deliver_set_state at this same total-order position, so the replicated
  // group table transitions identically everywhere.
  std::optional<Envelope> inner;
  bool incomplete_at_recoverer = false;
  auto in = incoming_.find(key);
  if (in != incoming_.end() && in->second.transfer_id == e.transfer_id) {
    if (in->second.complete()) {
      inner = in->second.join();
      incoming_.erase(in);
      if (!inner || inner->kind != EnvelopeKind::kSetState) {
        // Every extent digest verified, so this means the descriptor itself
        // described garbage. Unreachable from our own sender; counted, and
        // recovery is re-served by the coordinator path.
        inner.reset();
        incomplete_at_recoverer = true;
        stats_.state_transfer_failures += 1;
        ETERNAL_LOG(kWarn, kTag, "malformed reassembled bulk envelope; dropped");
      }
    } else {
      // Protocol-unreachable (the marker follows the last ack); defensive.
      incomplete_at_recoverer = true;
      sweep_transfers([&](const TransferView& v) { return !v.outgoing && v.key == key; },
                      Sweep::kStash);
      ETERNAL_LOG(kWarn, kTag,
                  util::to_string(node_) << " bulk marker for transfer " << e.transfer_id
                                         << " with incomplete reassembly");
    }
  }

  if (inner.has_value()) {
    stats_.bulk_transfers_completed += 1;
    deliver_set_state(std::move(*inner));
    return;
  }

  Envelope skeleton = e;
  skeleton.kind = EnvelopeKind::kSetState;
  LocalReplica* r = local_replica(e.target_group);
  if (r != nullptr && r->id == e.subject && r->phase == Phase::kRecovering) {
    // We are the recoverer but hold no usable image (GC'd reassembly, or the
    // decode failure above). Applying an empty skeleton would install empty
    // state into the servant; instead keep only the replicated-table side
    // consistent (every other node applies the skeleton) and leave the
    // replica recovering. Protocol-unreachable — the marker follows the last
    // verified ack — so this trades a visible stall for silent corruption.
    if (!incomplete_at_recoverer) stats_.state_transfer_failures += 1;
    first_delivery(set_state_seen_[e.target_group.value], e.target_group, e.op_seq,
                   stats_.set_states_withdrawn);
    react(table_.apply_state_transfer(skeleton));
    awaiting_get_state_[e.target_group.value].erase(e.subject.value);
    return;
  }
  deliver_set_state(std::move(skeleton));
}

}  // namespace eternal::core
