// Recovery completion and replica roles: the role a recovered replica takes,
// the primary's checkpoint timer, warm-passive promotion with log replay, and
// cold-passive restart from the log.
#include <algorithm>

#include "core/mechanisms.hpp"
#include "obs/spans.hpp"
#include "util/log.hpp"

namespace eternal::core {

namespace {
constexpr const char* kTag = "eternal";
}  // namespace

void Mechanisms::finish_recovery(LocalReplica& r) {
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
  rec_.record(node_, obs::Layer::kMech, "recovered", r.id.value,
              {{"group", r.group.value},
               {"replica", r.id.value},
               {"bytes", r.incoming_state_bytes}});

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
      if (r->applied_epoch < log.tip_epoch()) fill_restore_queue(*r, log, r->applied_epoch);
      apply_next_restore(*r);
      replay_next(*r);  // waits for the restore chain
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
        constexpr util::Duration kColdStartDelay = util::Duration(2'000'000);  ///< process spawn
        sim_.schedule(kColdStartDelay, [this, group] { cold_restart(group); });
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
    multicast(std::move(add));
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

  // Apply the logged checkpoint first (§3.3: checkpoint, then messages —
  // with any chained deltas between the base and the replay). Messages
  // enqueued at an orphaned recovery that precede the restored state's
  // get_state cut are covered by it (the chain tip is the newest state this
  // log reconstructs).
  MessageLog& log = logs_[group.value];
  if (log.checkpoint().has_value()) {
    auto cut = r->recovery_cuts.find(log.tip_epoch());
    if (cut != r->recovery_cuts.end()) {
      const std::size_t covered = std::min(cut->second, r->pending.size());
      r->pending.erase(r->pending.begin(),
                       r->pending.begin() + static_cast<std::ptrdiff_t>(covered));
    }
    fill_restore_queue(*r, log, 0);
    apply_next_restore(*r);
  }
  r->recovery_cuts.clear();
  inject_stored_handshakes(group);  // after the ORB-level state installed
  replay_next(*r);                  // waits for the restore chain
}

void Mechanisms::replay_next(LocalReplica& r) {
  // Read through the log without consuming it; the entries stay until the
  // next checkpoint's mark truncates them. Replayed requests take the same
  // admission path as live ones, so the engine's window paces the replay.
  MessageLog& log = logs_[r.group.value];
  while (r.phase == Phase::kReplaying) {
    if (r.replay_cursor >= log.messages().size()) {
      if (!r.engine.idle()) return;  // resumes when the last FOM retires
      set_phase(r, Phase::kOperational);
      Envelope e;
      e.kind = EnvelopeKind::kControl;
      e.control_op = ControlOp::kReplicaOperational;
      e.target_group = r.group;
      e.subject = r.id;
      e.subject_node = node_;
      multicast(std::move(e));
      maybe_start_checkpoint_timer(r);
      pump(r);
      return;
    }
    QueueItem item;
    if (log.messages()[r.replay_cursor].kind == EnvelopeKind::kGetState) {
      item.kind = QueueItem::Kind::kGetState;
    }
    if (!r.engine.can_admit(item.runs_as())) return;
    item.env = log.messages()[r.replay_cursor++];
    stats_.log_replayed_messages += 1;
    // A replayed request (re)enters this replica's execution order here —
    // recorded so the checker sees injections follow the logged total order.
    if (item.kind == QueueItem::Kind::kRequest) trace_enqueue(r, item.env);
    admit(r, item);
  }
}

}  // namespace eternal::core
