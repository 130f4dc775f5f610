// Request execution: every delivered request runs as a run-to-completion
// FOM on the replica's exec::ReplicaEngine.
//
// Agreed delivery only enqueues; pump() pops run-queue items strictly in
// total order while the engine has a free admission slot, and promotion
// replay (replay_next) feeds the same admission path from the message log.
// Replies are sequenced by the engine so they are emitted in total-order
// position regardless of completion order. The admission window is the
// hosting ORB's POA window (OrbConfig::poa_max_inflight); at the default of
// 1 this is the paper's synchronous upcall — one request executes at a time
// and the next pops only after its reply is captured.
//
// Quiescence (§5): every fabricated state operation (_get_state, _get_delta,
// _set_state, _apply_delta) runs as a barrier FOM on the same engine. The
// engine admits it only when idle — no FOM executing, no reply parked, no
// oneway inside its grace period — because the published state piggybacks
// ORB/infra snapshots that are only consistent then, and admits nothing
// else until its reply is captured. Every set_state goes through the
// replica's restore queue (apply_next_restore), one barrier at a time.
#include "core/checkpointable.hpp"
#include "core/mechanisms.hpp"
#include "obs/spans.hpp"
#include "util/log.hpp"

namespace eternal::core {

const exec::ReplicaEngine* Mechanisms::engine_of(GroupId group) const {
  const LocalReplica* r = local_replica(group);
  return r == nullptr ? nullptr : &r->engine;
}

bool Mechanisms::output_imminent_on(std::uint32_t ring) const {
  for (const auto& [gid, replica] : replicas_) {
    const LocalReplica& r = *replica;
    if (r.phase != Phase::kOperational || !r.engine.awaiting_reply()) continue;
    if (ring_of(r.group) != ring) continue;
    // Only a sole replier's reply is certain to go out: with several active
    // replicas, a busy one's copy is withdrawn once a sibling's delivers.
    // Either kind of sole replier is its group's primary.
    const GroupEntry* entry = table_.find(r.group);
    const ReplicaInfo* primary = entry == nullptr ? nullptr : entry->primary();
    if (primary == nullptr || primary->id != r.id) continue;
    if (entry->desc.properties.style != ReplicationStyle::kActive ||
        entry->operational_count() == 1) {
      return true;
    }
  }
  return false;
}

void Mechanisms::pump(LocalReplica& r) {
  if (r.phase == Phase::kReplaying) {
    replay_next(r);
    return;
  }
  // Passive backups never execute queued requests; anything a freshly
  // recovered backup accumulated belongs in the message log (§3.3).
  if (r.phase == Phase::kBackup && !r.pending.empty()) {
    MessageLog& log = log_for(r.group);
    for (QueueItem& item : r.pending) {
      if (item.kind == QueueItem::Kind::kRequest) {
        log.append(std::move(item.env));
        stats_.messages_logged += 1;
      }
    }
    r.pending.clear();
    return;
  }
  while (!r.pending.empty() && r.phase == Phase::kOperational) {
    QueueItem& front = r.pending.front();
    if (!r.engine.can_admit(front.runs_as())) {
      // The front item is next in total order but the engine does not admit
      // it yet. A request waiting for a free slot swaps its "deliver" span
      // for an "admit-wait" span so the critical-path breakdown separates
      // queue-behind wait from admission-slot wait; admit() closes whichever
      // span the item carries. Waiting behind a state op is queue-behind.
      if (obs::SpanStore* spans = rec_.spans();
          spans != nullptr && !front.admit_blocked &&
          front.kind == QueueItem::Kind::kRequest && front.trace != 0 &&
          r.engine.inflight() == r.engine.concurrency()) {
        front.admit_blocked = true;
        if (front.span != 0) spans->end(front.span, sim_.now());
        front.span = spans->begin(front.trace,
                                  spans->find_named(front.trace, "invocation"),
                                  node_, obs::Layer::kMech, "admit-wait", sim_.now());
      }
      return;
    }
    QueueItem item = std::move(r.pending.front());
    r.pending.pop_front();
    if (obs::SpanStore* spans = rec_.spans()) {
      spans->recovery().replayed_one(r.group, r.id, sim_.now());
    }
    admit(r, item);
  }
}

void Mechanisms::admit(LocalReplica& r, const QueueItem& item) {
  if (item.kind == QueueItem::Kind::kGetState) return inject_get_state(r, item.env);
  if (item.kind == QueueItem::Kind::kSetStateDiscard) {
    stats_.set_state_discarded_at_existing += 1;
    return;
  }
  const RetainedEnvelope& e = item.env;

  // ---- decode: the agreed envelope becomes a GIOP request again.
  std::optional<giop::Inspection> info = giop::inspect(e.payload);
  if (!info) return;
  const orb::Endpoint from = orb::pair_endpoint(e.client_group, r.group);

  obs::SpanStore* const spans = rec_.spans();
  if (spans != nullptr && item.span != 0) spans->end(item.span, sim_.now());

  if (info->has_context(giop::kVendorHandshakeContextId)) {
    // Client-server handshakes are served inside the ORB; they never occupy
    // an admission slot (they do not make the application object busy).
    tap_.inject(from, e.payload);
    return;
  }

  stats_.requests_delivered += 1;

  exec::Fom& fom = r.engine.admit(e.client_group, e.op_seq, from,
                                  info->response_expected, sim_.now());
  const std::uint64_t position = fom.position;
  rec_.record(node_, obs::Layer::kMech, "request_inject", e.op_seq,
              {{"group", r.group.value},
               {"replica", r.id.value},
               {"client", e.client_group.value},
               {"op_seq", e.op_seq},
               {"fom_pos", position},
               obs::Field::text_field("fom_phase", exec::to_string(fom.phase))});
  if (spans != nullptr && item.trace != 0 && info->response_expected) {
    fom.trace = item.trace;
    const obs::SpanId parent = spans->find_named(item.trace, "invocation");
    // Zero-length decode marker plus the open execute span: the per-phase
    // breakdown the critical-path analysis attributes stall time with.
    const obs::SpanId decode =
        spans->begin(item.trace, parent, node_, obs::Layer::kMech, "fom-decode",
                     sim_.now(), {{"pos", position}});
    spans->end(decode, sim_.now());
    fom.exec_span = spans->begin(item.trace, parent, node_, obs::Layer::kOrb,
                                 "execute", sim_.now(), {{"replica", r.id.value}});
  }
  fom.enter(exec::FomPhase::kExecute, sim_.now());
  tap_.inject(from, e.payload);
  if (info->response_expected) return;

  // Oneway: no reply will ever match this FOM. The object is non-quiescent
  // for a bounded grace period (§5: oneways complicate quiescence), so the
  // slot is held that long; then the FOM retires at its position so later
  // replies are not stuck behind it.
  constexpr util::Duration kOnewayGrace = util::Duration(200'000);  ///< quiescence bound
  const GroupId group = r.group;
  const ReplicaId incarnation = r.id;
  sim_.schedule(kOnewayGrace, [this, group, incarnation, position] {
    LocalReplica* replica = local_replica(group);
    if (replica == nullptr || replica->id != incarnation) return;
    exec::Fom* f = replica->engine.find(position);
    if (f == nullptr) return;
    f->enter(exec::FomPhase::kDone, sim_.now());
    replica->engine.retire_immediate(position, sim_.now(), [this, replica](exec::Reply& out) {
      emit_reply(*replica, out);
    });
    pump(*replica);
  });
}

void Mechanisms::capture_fom_reply(LocalReplica& r, const orb::Endpoint& to,
                                   util::Bytes& iiop, const giop::Inspection& info) {
  exec::Fom* fom = r.engine.match(to, info.request_id);
  if (fom == nullptr) {
    stats_.replies_unmatched_dropped += 1;
    return;
  }
  if (fom->kind != exec::FomKind::kRequest) return complete_state_op(r, iiop);

  exec::Reply reply;
  reply.client_group = fom->client_group;
  reply.op_seq = fom->op_seq;
  reply.trace = fom->trace;
  reply.payload = std::move(iiop);

  // ---- log: the operation's effect is on record (under active
  // replication a zero-cost hop; passive logging happened at delivery).
  fom->enter(exec::FomPhase::kLog, sim_.now());
  if (obs::SpanStore* spans = rec_.spans(); spans != nullptr && reply.trace != 0) {
    if (fom->exec_span != 0) spans->end(fom->exec_span, sim_.now());
    const obs::SpanId parent = spans->find_named(reply.trace, "invocation");
    const obs::SpanId log_span =
        spans->begin(reply.trace, parent, node_, obs::Layer::kMech, "fom-log",
                     sim_.now(), {{"pos", fom->position}});
    spans->end(log_span, sim_.now());
    // The reply parks in the sequencer from here until every earlier
    // position has emitted; zero-length when it emits immediately.
    reply.park_span = spans->begin(reply.trace, parent, node_, obs::Layer::kMech,
                                   "reply-park", sim_.now(), {{"pos", fom->position}});
  }
  // ---- reply: built and handed to the sequencer; emitted now if this is
  // the lowest outstanding position, parked otherwise.
  fom->enter(exec::FomPhase::kReply, sim_.now());
  r.engine.finish(fom->position, sim_.now(), std::move(reply),
                  [this, &r](exec::Reply& out) { emit_reply(r, out); });
  pump(r);
}

void Mechanisms::emit_reply(LocalReplica& r, exec::Reply& reply) {
  Envelope e;
  e.kind = EnvelopeKind::kReply;
  e.client_group = reply.client_group;
  e.target_group = r.group;
  e.op_seq = reply.op_seq;
  // Every active replica answers; a replica whose sibling's copy already
  // delivered here keeps its own off the ring.
  RacedStream* const stream = raced_stream(e);
  const bool withheld = stream != nullptr && stream->delivered(reply.op_seq);
  if (obs::SpanStore* spans = rec_.spans(); spans != nullptr && reply.trace != 0) {
    if (reply.park_span != 0) spans->end(reply.park_span, sim_.now());
    // One logical "reply" span per invocation: active replicas racing to
    // answer collapse onto the first opener (begin_named).
    if (!withheld) {
      spans->begin_named(reply.trace, spans->find_named(reply.trace, "invocation"), node_,
                         obs::Layer::kTotem, "reply", sim_.now(), {{"replica", r.id.value}});
    }
  }
  if (withheld) {
    stats_.replies_withdrawn += 1;
    return;
  }
  e.payload = std::move(reply.payload);
  multicast_copy(std::move(e), stream);
}

// ------------------------------------------------------ fabricated state ops

void Mechanisms::inject_get_state(LocalReplica& r, const EnvelopeHeader& e) {
  const GroupEntry* entry = table_.find(r.group);
  if (entry == nullptr) return;

  // Fast path: fabricate _get_delta instead of the full retrieval when the
  // requester holds a usable base — its advertised log tip for a recovery,
  // the log keepers' shared tip for a periodic checkpoint (unless the chain
  // hit its cap and the next checkpoint must be full).
  std::uint64_t since = 0;
  if (config_.delta_chain_cap > 0) {
    if (e.subject.value == 0) {
      const MessageLog* log = find_log(r.group);
      if (log != nullptr && log->checkpoint().has_value() &&
          log->chain_length() < config_.delta_chain_cap) {
        since = log->tip_epoch();
      }
    } else if (auto gs = group_state_.find(r.group.value); gs != group_state_.end()) {
      auto rc = gs->second.recoverers.find(e.subject.value);
      if (rc != gs->second.recoverers.end()) since = rc->second.delta_base;
    }
  }

  // Profiler boundary C: the source replica has drained ahead of the
  // get_state — the group is quiescent for this transfer (checkpoints have
  // subject 0 and are not recovery transfers).
  if (obs::SpanStore* spans = rec_.spans(); spans != nullptr && e.subject.value != 0) {
    spans->recovery().quiescent(r.group, e.subject, sim_.now());
  }

  exec::Fom op;
  op.kind = exec::FomKind::kGetState;
  op.op_seq = e.op_seq;
  op.subject = e.subject;
  op.delta_since = since;
  inject_state_op(r, op, entry->desc.object_id, since != 0 ? kGetDeltaOp : kGetStateOp,
                  since != 0 ? encode_delta_request(since) : Bytes{});
}

void Mechanisms::inject_state_op(LocalReplica& r, exec::Fom op, const std::string& object_id,
                                 const char* operation, Bytes body) {
  giop::Request request;
  request.request_id = static_cast<std::uint32_t>(op.op_seq);
  request.response_expected = true;
  request.object_key = util::bytes_of(object_id);
  request.operation = operation;
  request.body = std::move(body);
  // The Recovery Mechanisms are client group 0 of every server group.
  op.reply_to = orb::pair_endpoint(GroupId{0}, r.group);
  r.engine.admit_barrier(op);
  tap_.inject(op.reply_to, giop::encode_shared(request));
}

void Mechanisms::complete_state_op(LocalReplica& r, util::BytesView reply_iiop) {
  const exec::Fom op = r.engine.finish_barrier();
  // Read in place: a get_state reply's body is the whole state, and
  // publish_state copies it once, into the set_state envelope.
  const std::optional<giop::Inspection> reply = giop::inspect(reply_iiop);
  if (!reply || reply->type != giop::MsgType::kReply ||
      reply->status != static_cast<std::uint32_t>(giop::ReplyStatus::kNoException)) {
    // A failed get_state (NoStateAvailable?) aborts its transfer; a failed
    // set_state abandons the rest of its restore chain and leaves the
    // replica where it is.
    stats_.state_transfer_failures += 1;
    ETERNAL_LOG(kWarn, "eternal",
                util::to_string(node_) << " state operation on " << util::to_string(r.group)
                                       << " raised an exception");
    if (op.kind != exec::FomKind::kGetState) {
      r.restore_queue.clear();
      return;
    }
  } else if (op.kind == exec::FomKind::kGetState) {
    publish_state(r, op, reply->body);
  } else {
    r.applied_epoch = std::max(r.applied_epoch, op.op_seq);
    if (op.kind == exec::FomKind::kCheckpoint) stats_.checkpoints_applied += 1;
    // A set_state queued behind this one supersedes it.
    if (op.kind == exec::FomKind::kSetState && r.restore_queue.empty()) finish_recovery(r);
  }
  apply_next_restore(r);
  pump(r);
}

}  // namespace eternal::core
