// The Eternal Replication Mechanisms and Recovery Mechanisms of one
// processor (paper §2, §3, §4, §5).
//
// One Mechanisms instance sits between a node's Interceptor (the ORB's
// socket boundary) and its TotemNode (the group-communication endpoint).
// It implements, per the paper:
//
//   Replication Mechanisms
//   - conveys intercepted IIOP messages as totally-ordered multicasts;
//   - stamps every invocation/response with an Eternal operation identifier
//     (client group, group-consistent request sequence) and suppresses
//     duplicates from replicated clients/servers (§2.1);
//   - supports active, warm passive and cold passive replication (§3);
//
//   Recovery Mechanisms
//   - serializes delivery per replica; state operations wait for quiescence
//     as barriers on the replica's execution engine;
//   - enqueues normal messages for a recovering replica and replays them
//     after state assignment (§3.3, §5.1 steps i–vi);
//   - fabricates get_state()/set_state() invocations at the proper points of
//     the total order, piggybacking ORB/POA-level and infrastructure-level
//     state onto the application-level state (§4, §5.1);
//   - logs checkpoints and messages for passive replication, promotes
//     backups, and replays the log into a new primary (§3.2, §3.3);
//   - discovers ORB/POA-level state *by parsing intercepted IIOP* — GIOP
//     request_id counters (§4.2.1) and client-server handshakes (§4.2.2) —
//     and restores it on recovery by request_id translation and handshake
//     replay/injection.
#pragma once

#include <algorithm>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <unordered_map>

#include "core/envelope.hpp"
#include "core/exec/engine.hpp"
#include "core/group_table.hpp"
#include "core/placement.hpp"
#include "core/message_log.hpp"
#include "core/raced_stream.hpp"
#include "util/seq_map.hpp"
#include "core/seq_window.hpp"
#include "core/state_snapshots.hpp"
#include "interceptor/interceptor.hpp"
#include "obs/trace.hpp"
#include "orb/orb.hpp"
#include "sim/bulk_lane.hpp"
#include "totem/totem.hpp"
#include "util/fifo.hpp"

namespace eternal::core {

/// Creates the application servant for a replica of a group on this node.
using ServantFactory = std::function<std::shared_ptr<orb::Servant>()>;

/// Reserved endpoint representing Eternal's Recovery Mechanisms as the
/// logical client of fabricated get_state/set_state invocations.
inline orb::Endpoint recovery_endpoint(GroupId group) {
  return orb::Endpoint{NodeId{0xFE000000 + group.value}, 2809};
}

/// Behaviour switches. The defaults implement the full paper; the ablation
/// flags let the benchmarks disable individual recovery mechanisms to
/// reproduce the failure modes of §4.2.1/§4.2.2 and the cost of §4.3.
struct MechanismsConfig {
  bool sync_request_ids = true;    ///< §4.2.1: translate GIOP request_ids
  bool replay_handshakes = true;   ///< §4.2.2: store + replay handshakes
  bool transfer_orb_state = true;  ///< piggyback ORB/POA-level state
  bool transfer_infra_state = true;  ///< piggyback infrastructure-level state
  /// When non-empty, this node's checkpoint+message logs are persisted to
  /// stable storage in this directory (paper §3.3: the cold-passive log
  /// must survive the logging processor), enabling restore_from_storage()
  /// after a total failure or whole-system restart.
  std::string stable_storage_dir;

  // ---- fast-path state transfer (0 = off: seed wire behaviour) ----
  /// Delta checkpoints: maximum chained deltas a log absorbs before the
  /// next checkpoint is forced full. 0 disables deltas entirely — every
  /// fabricated state retrieval is a full get_state().
  std::size_t delta_chain_cap = 0;
  /// Chunked state transfer: encoded state envelopes larger than this are
  /// split into kStateChunk envelopes of at most this many payload bytes,
  /// interleaving with normal traffic in the total order. 0 = monolithic.
  std::size_t state_chunk_bytes = 0;
  /// Chunks submitted to Totem before waiting for self-delivery (pipelining
  /// window of an in-progress chunked transfer).
  std::size_t state_chunk_window = 4;

  // ---- out-of-band bulk lane (off = every state byte rides the ring) ----
  /// Ship large state point-to-point on the bulk lane: the ordered ring
  /// carries only a kStateBulkDescriptor (per-extent digests) and a
  /// kStateBulkComplete marker that pins the set_state logical instant;
  /// the bytes stream as kBulkExtent lane messages with per-extent ack.
  /// Requires a BulkLane wired via set_bulk_lane and state_chunk_bytes > 0
  /// (the lane's fallback path; the constructor rejects the lane without).
  bool bulk_lane = false;
  /// Payload bytes per bulk extent (the digest / ack / retry unit).
  std::size_t bulk_extent_bytes = 65'536;
};

/// Behaviour counters (consumed by tests and the benchmark harness).
struct MechanismsStats {
  std::uint64_t multicasts = 0;
  std::uint64_t duplicate_requests_suppressed = 0;
  std::uint64_t duplicate_replies_suppressed = 0;
  // Copies of an active group's outputs this node kept off the ring because
  // another replica's copy delivered first (not sent, or withdrawn from the
  // Totem send queue), or, for a set_state larger than one Totem fragment,
  // because this replica is not the group's primary (core/raced_stream.hpp).
  std::uint64_t requests_withdrawn = 0;
  std::uint64_t replies_withdrawn = 0;
  std::uint64_t set_states_withdrawn = 0;
  std::uint64_t requests_delivered = 0;
  std::uint64_t replies_delivered = 0;
  std::uint64_t enqueued_during_recovery = 0;
  std::uint64_t set_state_discarded_at_existing = 0;
  std::uint64_t checkpoints_taken = 0;
  std::uint64_t checkpoints_applied = 0;
  std::uint64_t messages_logged = 0;
  std::uint64_t log_replayed_messages = 0;
  std::uint64_t promotions = 0;
  std::uint64_t handshakes_stored = 0;
  std::uint64_t handshakes_injected = 0;   ///< server-side replay (§4.2.2)
  std::uint64_t handshakes_answered_locally = 0;  ///< client-side replay
  std::uint64_t replies_answered_from_cache = 0;  ///< passive replay
  std::uint64_t state_transfers_completed = 0;
  std::uint64_t state_transfer_failures = 0;
  std::uint64_t recoveries_completed = 0;
  std::uint64_t replies_unmatched_dropped = 0;
  std::uint64_t outbound_unroutable = 0;
  std::uint64_t delta_states_published = 0;   ///< _get_delta answers that were deltas
  std::uint64_t delta_fallback_full = 0;      ///< _get_delta answers that fell back full
  std::uint64_t delta_checkpoints_applied = 0;  ///< deltas chained into a log / servant
  std::uint64_t delta_skipped_unappliable = 0;  ///< live deltas a backup could not use
  std::uint64_t state_chunks_sent = 0;
  std::uint64_t state_chunks_received = 0;
  std::uint64_t state_chunk_duplicates = 0;
  std::uint64_t state_chunk_aborts = 0;  ///< reassemblies abandoned (superseded epoch)
  std::uint64_t chunk_sends_aborted = 0;  ///< outgoing chunked sends dropped on membership change
  std::uint64_t storage_persist_failures = 0;  ///< base compactions that failed (surfaced)
  std::uint64_t storage_append_failures = 0;   ///< segment appends that failed/tore (surfaced)
  // ---- out-of-band bulk transfer ----
  std::uint64_t bulk_transfers_started = 0;    ///< descriptors multicast (sender side)
  std::uint64_t bulk_transfers_completed = 0;  ///< markers applied at the recoverer
  std::uint64_t bulk_extents_sent = 0;         ///< lane extents sent (incl. re-sends)
  std::uint64_t bulk_extents_received = 0;     ///< lane extents accepted + verified
  std::uint64_t bulk_extent_retries = 0;       ///< retry rounds fired
  std::uint64_t bulk_extents_resumed = 0;      ///< extents satisfied from a prior attempt's stash
  std::uint64_t bulk_digest_mismatches = 0;    ///< extents rejected on digest verify
  std::uint64_t bulk_transfers_aborted = 0;    ///< half-shipped transfers GC'd
  std::uint64_t bulk_fallbacks_chunked = 0;    ///< sends that fell back in-band
  // ---- multi-ring (core/placement.hpp) ----
  std::uint64_t envelopes_misrouted = 0;  ///< dropped: ring stamp ≠ arrival ring
};

/// Timing record of one completed recovery (drives paper Figure 6).
struct RecoveryRecord {
  GroupId group;
  ReplicaId replica;
  util::TimePoint launched{};
  util::TimePoint get_state_delivered{};  ///< the §5.1(i) cut reached us
  util::TimePoint set_state_delivered{};  ///< full state arrived (§5.1(v))
  util::TimePoint operational{};          ///< applied + queue drained (§5.1(vi))
  std::size_t app_state_bytes = 0;
  util::Duration recovery_time() const { return operational - launched; }
  /// Launch → get_state: membership agreement + retrieval coordination +
  /// source-side quiescence wait.
  util::Duration coordination_time() const { return get_state_delivered - launched; }
  /// get_state → set_state: state retrieval at the source plus the (size-
  /// dependent) multicast of the state across the network.
  util::Duration transfer_time() const { return set_state_delivered - get_state_delivered; }
  /// set_state → operational: three-kind assignment + enqueued replay.
  util::Duration apply_time() const { return operational - set_state_delivered; }
};

class Mechanisms final : public interceptor::Diversion, public sim::BulkStation {
 public:
  /// One Totem endpoint per ring, all on this node (core/placement.hpp);
  /// `placement` decides which endpoint orders each group's envelopes.
  /// `rings[i]` must be the endpoint of ring index i. A null placement (or a
  /// one-entry vector) is a single ring. The placement must outlive the
  /// Mechanisms.
  Mechanisms(sim::Simulator& sim, NodeId node, interceptor::Interceptor& tap,
             std::vector<totem::TotemNode*> rings, const RingPlacement* placement,
             MechanismsConfig config = MechanismsConfig{});
  ~Mechanisms() override;

  Mechanisms(const Mechanisms&) = delete;
  Mechanisms& operator=(const Mechanisms&) = delete;

  NodeId node() const noexcept { return node_; }

  // ---------------------------------------------------------- deployment API

  /// Registers the servant factory this node uses to launch replicas of
  /// `group` (initial placement, recovery relaunch, cold-passive restart).
  void register_factory(GroupId group, ServantFactory factory);

  /// Declares that invocations this node's ORB sends to `server_group`
  /// originate from the local replica of `client_group` (the client-side
  /// binding Eternal needs to stamp operation identifiers).
  void bind_client(GroupId client_group, GroupId server_group);

  /// Multicasts group creation (call on exactly one node per group). The
  /// descriptor lists the initial members; each listed node launches its
  /// replica on delivery, already consistent (they all start from the same
  /// initial state, like the paper's initially-deployed replicas).
  void create_group(const GroupDescriptor& desc,
                    const std::vector<ReplicaInfo>& initial_members);

  /// Launches a *new* replica of an existing group on this node and starts
  /// the recovery protocol for it (kAddReplica → get_state → set_state).
  ReplicaId launch_replica(GroupId group);

  /// Fault injection: the local replica of `group` dies (process kill). The
  /// Fault Detector reports it after the group's fault monitoring interval.
  void kill_replica(GroupId group);

  /// Multicasts a Resource Manager launch directive: `node` shall launch a
  /// replica of `group` (it must hold a registered factory).
  void request_launch(GroupId group, NodeId node);

  /// Allocates a replica id unique across this node's lifetime. Every
  /// replica hosted here — initial placement included — must use this
  /// allocator, so that a removal of one incarnation can never be confused
  /// with a later incarnation on the same node.
  ReplicaId allocate_replica_id() {
    return ReplicaId{(static_cast<std::uint64_t>(node_.value) << 32) | next_replica_nonce_++};
  }

  /// Groups with a readable record in this node's stable storage.
  std::vector<GroupDescriptor> stored_groups() const;

  /// Re-establishes a group from this node's stable storage after a total
  /// failure or whole-system restart: re-creates the group if the table no
  /// longer knows it, reloads the checkpoint+message log, and cold-restarts
  /// a primary from it. Requires a registered factory for the group.
  /// Returns false when storage is disabled or holds no usable record.
  bool restore_from_storage(GroupId group);

  /// Builds the IOR clients use to reach a replicated object.
  giop::Ior group_ior(GroupId group) const;

  // ------------------------------------------------------------- inspection

  const GroupTable& groups() const noexcept { return table_; }
  const MechanismsStats& stats() const noexcept { return stats_; }
  const std::vector<RecoveryRecord>& recoveries() const noexcept { return recoveries_; }
  const MessageLog* log_of(GroupId group) const;

  /// The node's stable storage, or nullptr when storage is disabled
  /// (read-only: I/O accounting for benches and tests).
  const class StableStorage* storage() const noexcept { return storage_.get(); }
  /// Mutable access for chaos fault injection (StableStorage::inject_faults).
  class StableStorage* storage() noexcept { return storage_.get(); }

  /// The execution engine of the local replica of `group`; nullptr when no
  /// replica is hosted here (tests/benches).
  const exec::ReplicaEngine* engine_of(GroupId group) const;

  /// True when this node hosts a replica of `group` in the given phase.
  bool hosts_operational(GroupId group) const;
  bool hosts_recovering(GroupId group) const;

  /// Pending (not yet delivered) messages of the local replica of `group`.
  std::size_t queued_messages(GroupId group) const;

  /// Request-id translations held here for replies not yet delivered.
  std::size_t pending_translations(GroupId client_group, GroupId server_group) const {
    auto it = outbound_.find({client_group.value, server_group.value});
    return it == outbound_.end() ? 0 : it->second.group_to_local.size();
  }

  /// Registers an observer for group-table events (the Replication/Resource
  /// Manager's placement policy, the Fault Notifier's consumers, tests).
  /// Observers run after the table applied the event, on every node, in
  /// total order — so all nodes observe the same event sequence.
  void add_event_observer(std::function<void(const TableEvent&)> observer) {
    event_observers_.push_back(std::move(observer));
  }

  // ------------------------------------------------- interceptor::Diversion
  void on_outbound(const orb::Endpoint& to, util::Bytes iiop) override;

  // ------------------------------------------------------------ Totem upcalls
  // The deployment wires one per-ring listener shim per endpoint to these,
  // so deliveries and membership changes arrive ring-attributed.
  void on_deliver_on(std::uint32_t ring, const totem::Delivery& delivery);
  void on_view_change_on(std::uint32_t ring, const totem::View& view);
  /// TotemListener::output_imminent for ring `ring`: a local replica that is
  /// its group's sole replier (a passive primary, or an active group's only
  /// operational member) on that ring is executing a two-way request.
  bool output_imminent_on(std::uint32_t ring) const;

  // -------------------------------------------------------------- multi-ring
  /// Ring index ordering every envelope about `group` (0 when no placement).
  std::uint32_t ring_of(GroupId group) const {
    if (placement_ == nullptr) return 0;
    const std::uint32_t ring = placement_->ring_of(group);
    return ring < totems_.size() ? ring : 0;
  }
  /// This node's Totem endpoint on `group`'s ring.
  totem::TotemNode& totem_for(GroupId group) { return *totems_[ring_of(group)]; }
  const totem::TotemNode& totem_for(GroupId group) const {
    return *totems_[ring_of(group)];
  }

  // ------------------------------------------------------- sim::BulkStation
  /// Wires the out-of-band data lane (deployment). Null = lane absent; bulk
  /// sends are then never attempted regardless of config.bulk_lane.
  void set_bulk_lane(sim::BulkLane* lane) noexcept { bulk_lane_ = lane; }
  void on_bulk(NodeId from, util::BytesView payload) override;

 private:
  // ---- local replica bookkeeping ----
  enum class Phase {
    kRecovering,  ///< awaiting state transfer
    kOperational, ///< active executor or passive primary
    kBackup,      ///< warm passive backup
    kReplaying,   ///< promoted primary replaying the log
    kDead,        ///< killed; awaiting fault detector report
  };

  struct QueueItem {
    enum class Kind { kRequest, kGetState, kSetStateDiscard } kind = Kind::kRequest;
    RetainedEnvelope env;
    std::uint64_t trace = 0;  ///< causal trace id (obs/spans.hpp), 0 = untraced
    std::uint64_t span = 0;   ///< open "deliver" span closed at admission
    /// The item reached the queue front but no admission slot was free;
    /// `span` was swapped from "deliver" to an "admit-wait" span so
    /// queue-behind wait and admission wait attribute separately.
    bool admit_blocked = false;
    /// What the item starts as on the engine; a discard takes a request's
    /// turn.
    exec::FomKind runs_as() const {
      return kind == Kind::kGetState ? exec::FomKind::kGetState : exec::FomKind::kRequest;
    }
  };

  /// A state envelope bound for the servant and the set_state kind that
  /// applies it.
  struct RestoreStep {
    Envelope state;
    exec::FomKind kind;
  };

  struct LocalReplica {
    explicit LocalReplica(std::size_t concurrency) : engine(concurrency) {}

    ReplicaId id;
    GroupId group;
    std::shared_ptr<orb::Servant> servant;
    Phase phase = Phase::kRecovering;
    /// Executes every request of this incarnation, from `pending` while
    /// kOperational and from the message log while kReplaying. A relaunched
    /// incarnation starts from a fresh engine.
    exec::ReplicaEngine engine;
    util::Fifo<QueueItem> pending;
    util::TimePoint launched_at{};
    util::TimePoint get_state_at{};
    util::TimePoint set_state_at{};
    std::size_t incoming_state_bytes = 0;
    Bytes pending_infra;  ///< infra snapshot installed last (§4.3 order)
    /// Epoch of the newest full state or delta applied to the servant
    /// (0 = none). Gates live delta-checkpoint application at warm backups
    /// and enables the promotion fast path.
    std::uint64_t applied_epoch = 0;
    /// Every state envelope bound for the servant — a recovery's set_state,
    /// a warm checkpoint, a restore chain's base, deltas and wire delta —
    /// applied in order, one barrier at a time (apply_next_restore).
    std::deque<RestoreStep> restore_queue;
    /// Promotion replay position in the group's message log. Replay reads
    /// through the log without consuming it — the entries must survive until
    /// a later checkpoint covers them, or a subsequent restoration from this
    /// log would have a hole where the replayed messages were.
    std::size_t replay_cursor = 0;
    /// §5.1(i): per-epoch position of the get_state in this recovering
    /// replica's queue — messages before the cut are covered by the
    /// transferred state and are dropped when that epoch's set_state applies.
    std::map<std::uint64_t, std::size_t> recovery_cuts;
    sim::EventId checkpoint_timer{};
    sim::EventId detector_timer{};
    bool removal_reported = false;
  };

  // ---- client-role connection state (discovered from the wire) ----
  struct OutboundConn {
    static constexpr std::size_t kReplyCacheCap = 1024;
    GroupId client_group;
    GroupId server_group;
    std::uint64_t next_group_rid = 0;
    /// group rid → the local ORB's request id, for each invocation issued
    /// here whose reply has not been delivered yet: the first delivery of the
    /// reply retires it.
    util::SeqMap<std::uint32_t> group_to_local;
    bool handshake_done = false;
    std::optional<std::uint64_t> handshake_group_rid;
    Bytes handshake_request;  ///< group-form request bytes
    util::SharedSlice handshake_reply;  ///< stored server answer (group-form reply)
    /// group rid → reply bytes, retained from the delivery: the latest
    /// kReplyCacheCap replies, for passive-promotion replay.
    util::SeqMap<util::SharedSlice> reply_cache;
  };

  // ---- outbound capture ----
  void capture_request(const orb::Endpoint& to, util::Bytes iiop,
                       const giop::Inspection& info);
  void capture_reply(const orb::Endpoint& to, util::Bytes iiop,
                     const giop::Inspection& info);
  OutboundConn& outbound_conn(GroupId client_group, GroupId server_group);
  GroupId client_group_for(GroupId server_group);
  /// The causal trace id (obs/spans.hpp) of the invocation a request or
  /// reply belongs to, derived from its envelope header at every hop, so
  /// nothing carries it: 0 while no SpanStore is attached, and for a
  /// client-server handshake or its reply (`info` carries the vendor
  /// handshake context), which stay untraced.
  std::uint64_t trace_of(const EnvelopeHeader& e, const giop::Inspection& info) const;

  // ---- delivery ----
  // Requests and replies are dispatched as views into the Totem delivery
  // (valid for the callback only); what they keep past it they retain as
  // slices of `delivered`, the delivery's shared payload, never as copies.
  void deliver_request(const EnvelopeView& e, const util::SharedSlice& delivered);
  void deliver_reply(const EnvelopeView& e, const util::SharedSlice& delivered);
  /// Appends a delivered message (retained, not copied) to its group's log
  /// and persists it.
  void log_message(const RetainedEnvelope& e);
  void deliver_get_state(const Envelope& e);
  void deliver_set_state(Envelope e);
  void deliver_checkpoint(Envelope e);
  void deliver_control(const Envelope& e);
  void react(const std::vector<TableEvent>& events);

  // ---- request execution (mechanisms_exec.cpp) ----
  /// Pops run-queue items in total order while the engine admits them (a
  /// kReplaying replica continues its log replay instead).
  void pump(LocalReplica& r);
  /// Starts a run-queue item the engine admits: a request's decode phase and
  /// injection as a FOM (handshakes bypass the engine: the ORB serves them
  /// without occupying the object), a get_state's barrier, or a discard.
  void admit(LocalReplica& r, const QueueItem& item);
  /// Matches a captured servant reply against the replicas' in-flight FOMs:
  /// a request's reply is sequenced through the in-order emitter, a state op
  /// completes, and a reply matching nothing is dropped.
  void capture_fom_reply(const orb::Endpoint& to, util::Bytes& iiop,
                         const giop::Inspection& info);
  /// Multicasts a sequenced reply at its total-order position.
  void emit_reply(LocalReplica& r, exec::Reply& reply);

  // ---- raced outputs (core/raced_stream.hpp) ----
  /// The stream `e` is a replica's copy of, or nullptr when its group does
  /// not race: requests of an active client group, replies of an active
  /// server group. A copy whose stream already delivered stays off the ring.
  RacedStream* raced_stream(const Envelope& e);
  /// Records a delivered copy of `seq` on `stream`, a stream about `group`;
  /// false for a duplicate. The first delivery withdraws this node's own
  /// unsent copy from the group's ring (counted in `withdrawn`).
  bool first_delivery(RacedStream& stream, GroupId group, std::uint64_t seq,
                      std::uint64_t& withdrawn);
  /// True when `group` is actively replicated by more than one replica:
  /// its replicas race.
  bool raced(GroupId group) const;
  /// Multicasts `e`, remembering the copy on `stream` (if any) for
  /// withdrawal.
  void multicast_copy(Envelope&& e, RacedStream* stream);

  // ---- per-replica queue (quiescence-gated delivery) ----
  /// Records a request joining a replica's execution order — from the live
  /// queue or the replayed log. The InvariantChecker's replay-order rule
  /// requires every injected request to appear here first, in order.
  void trace_enqueue(const LocalReplica& r, const EnvelopeHeader& e);
  void inject_get_state(LocalReplica& r, const EnvelopeHeader& e);
  /// The one fabricator of state invocations: builds the GIOP request for
  /// `op` (kind, epoch, get_state fields), admits it as the engine's
  /// barrier and injects it.
  void inject_state_op(LocalReplica& r, exec::Fom op, const std::string& object_id,
                       const char* operation, Bytes body);
  /// The barrier's reply arrived: a get_state publishes the state, a
  /// set_state completes its step; then the next queued set_state and the
  /// run queue continue.
  void complete_state_op(LocalReplica& r, util::BytesView reply_iiop);

  // ---- state transfer (mechanisms_transfer.cpp) ----
  Bytes build_orb_snapshot(GroupId group);
  InfraLevelState build_infra_snapshot(GroupId group);
  void publish_state(LocalReplica& r, const exec::Fom& op, util::BytesView body);
  void apply_state(LocalReplica& r, Envelope e, exec::FomKind kind);
  // A state envelope larger than state_chunk_bytes travels as one transfer,
  // keyed by (group, epoch): as kStateChunk multicasts every member
  // reassembles (the set_state delivers at the final chunk), or on the bulk
  // lane to the recoverer (the ring orders a descriptor and the completion
  // marker that pins the set_state). Both media share one record per side.
  using TransferKey = std::pair<std::uint32_t, std::uint64_t>;  ///< (group, epoch)
  struct OutgoingTransfer {
    ReplicaId subject{};  ///< the recoverer this transfer serves
    Bytes encoded;        ///< the encoded inner envelope, held once
    std::uint64_t delta_base = 0;
    std::size_t slice = 0;  ///< chunk / extent payload bytes
    std::size_t next = 0;   ///< cursor: the next chunk / extent not yet sent
    // ---- bulk lane only ----
    std::uint64_t transfer_id = 0;  ///< 0 = ring chunks
    NodeId to{};                    ///< the recoverer's node (lane destination)
    std::vector<bool> acked{};
    std::size_t acked_count = 0;
    std::size_t inflight = 0;  ///< sent, not yet acked (credit accounting)
    std::size_t retry_rounds = 0;
    /// Our descriptor self-delivered, and it was the first descriptor of its
    /// epoch in the total order — extents may flow.
    bool streaming = false;
    bool marker_sent = false;
    sim::EventId retry_timer{};

    bool lane() const { return transfer_id != 0; }
    std::size_t count() const { return (encoded.size() + slice - 1) / slice; }
    BytesView slice_of(std::size_t index) const {
      const std::size_t begin = index * slice;
      return BytesView(encoded).subspan(begin, std::min(slice, encoded.size() - begin));
    }
  };
  struct Reassembly {
    std::uint64_t transfer_id = 0;  ///< the lane attempt; 0 = ring chunks
    NodeId sender{};      ///< first sender seen; rival senders' chunks dropped
    ReplicaId subject{};  ///< the recoverer this transfer serves
    std::uint64_t total_bytes = 0;  ///< lane geometry, from the descriptor
    std::size_t extent_bytes = 0;
    std::vector<std::uint64_t> digests;
    std::vector<Bytes> parts;  ///< empty slot = not yet received (and verified)
    std::size_t received = 0;

    bool lane() const { return transfer_id != 0; }
    bool complete() const { return received == parts.size(); }
    /// Stores part `index`; false when it is already held (a duplicate).
    bool accept(std::size_t index, Bytes part) {
      if (!parts[index].empty()) return false;
      parts[index] = std::move(part);
      received += 1;
      return true;
    }
    /// The joined parts, decoded.
    std::optional<Envelope> join() const;
  };
  /// What an abort sweep matches a transfer on.
  struct TransferView {
    TransferKey key;
    std::uint32_t ring;  ///< the ring ordering the group
    ReplicaId subject;   ///< the recoverer the transfer serves
    NodeId sender;       ///< the node publishing the state (this node for a send)
    bool lane;           ///< carried by the bulk lane, else by ring chunks
    bool outgoing;       ///< this node's send, else a reassembly
  };
  enum class Sweep { kAbort, kStash, kForget };
  /// The one abort path of every transfer: drops each send and reassembly
  /// `match` selects. A ring transfer counts chunk_sends_aborted (send) or
  /// state_chunk_aborts (reassembly), a lane one bulk_transfers_aborted;
  /// kStash banks a lane reassembly's verified extents for a resume, and
  /// kForget (a newer send superseded it, or the ring's history is gone)
  /// counts nothing.
  void sweep_transfers(const std::function<bool(const TransferView&)>& match, Sweep how);
  /// Sender: encodes `inner` once and ships it on the bulk lane when the
  /// lane can reach the recoverer, else as ring chunks.
  void start_transfer(GroupId group, const Envelope& inner);
  /// Starts a send on its medium — again, on ring chunks, after a lane
  /// fallback.
  void open_send(const TransferKey& key, OutgoingTransfer& t);
  /// The one builder of a send's ring and lane envelopes; chunks and extents
  /// carry slice `index` of the encoded inner envelope.
  Envelope transfer_envelope(const TransferKey& key, const OutgoingTransfer& t,
                             EnvelopeKind kind, std::size_t index = 0) const;
  /// Multicasts chunks until `upto` of them are out (or all are).
  void send_chunks(const TransferKey& key, OutgoingTransfer& t, std::size_t upto);
  /// True when a bulk send to `to` can be attempted right now: config + lane
  /// enabled, both endpoints attached.
  bool bulk_usable(NodeId to) const;
  /// Streams extents up to the credit window; emits the ordered completion
  /// marker once every extent is acked.
  void pump_bulk_send(const TransferKey& key, OutgoingTransfer& t);
  void ship_bulk_extent(const TransferKey& key, const OutgoingTransfer& t, std::size_t index);
  void arm_bulk_retry(const TransferKey& key, OutgoingTransfer& t);
  /// Retry exhaustion: the transfer switches to ring chunks in place, under
  /// the same epoch.
  void fall_back_to_ring(const TransferKey& key, OutgoingTransfer& t);
  void deliver_state_chunk(const Envelope& e);
  void deliver_bulk_descriptor(const Envelope& e);
  void deliver_bulk_marker(const Envelope& e);
  void handle_bulk_extent(NodeId from, const Envelope& e);
  void handle_bulk_ack(const Envelope& e);
  void send_bulk_ack(const TransferKey& key, const Reassembly& re, std::size_t index);

  /// The one caller of apply_state: applies the front of the restore queue
  /// once the engine is idle.
  void apply_next_restore(LocalReplica& r);
  /// Refills `r`'s restore queue from `log`: the base checkpoint
  /// (re-subjected to r's id) when its epoch is above `above`, then every
  /// chained delta above it. Epochs start at 1, so `above` = 0 takes all.
  /// The last step finishes a recovery or, at a replaying replica, counts
  /// as a checkpoint.
  void fill_restore_queue(LocalReplica& r, const MessageLog& log, std::uint64_t above);
  void install_orb_state(GroupId group, BytesView blob);
  void inject_stored_handshakes(GroupId group);
  void install_infra_state(GroupId group, BytesView blob);
  void finish_recovery(LocalReplica& r);

  // ---- passive logging / promotion ----
  void maybe_start_checkpoint_timer(LocalReplica& r);
  void promote_local(GroupId group);
  /// Feeds the promotion replay from the log cursor into the admission
  /// path; becomes operational once the log is exhausted and the engine
  /// drained.
  void replay_next(LocalReplica& r);
  void cold_restart(GroupId group);
  void send_get_state(GroupId group, ReplicaId subject);

  // ---- fault detection / launching ----
  void arm_fault_detector(LocalReplica& r);
  void do_launch(GroupId group, ReplicaId id, bool as_recovering);
  /// Stamps e.ring with the target group's ring and multicasts on that
  /// ring's endpoint, consuming the envelope: its payload moves into the
  /// Totem message unencoded (to_outbound). Returns the Totem handle, 0 when
  /// the endpoint is down.
  std::uint64_t multicast(Envelope&& e);
  /// Per-ring scoped reset of replicated state (fresh rejoin of ring
  /// `ring`): everything derived from that ring's history — groups,
  /// replicas, logs, duplicate filters, in-flight transfers — is dropped;
  /// other rings' state survives. On a single ring that is everything.
  void reset_ring_state(std::uint32_t ring);

  LocalReplica* local_replica(GroupId group);
  const LocalReplica* local_replica(GroupId group) const;
  void assign_role_after_recovery(LocalReplica& r);
  /// Single point for every phase transition: keeps the trace stream's
  /// "phase" events (which the InvariantChecker's single-primary rule
  /// consumes) in lockstep with the actual lifecycle.
  void set_phase(LocalReplica& r, Phase phase);
  /// The "phase" trace event; also written by survivors for a replica whose
  /// agreed death they observe.
  void record_phase(GroupId group, ReplicaId replica, const char* phase);
  void persist_log(GroupId group);
  /// Persistence of one logged message: appends a segment entry.
  void persist_append(GroupId group, const RetainedEnvelope& message);
  void apply_stored_log(GroupId group);

  sim::Simulator& sim_;
  NodeId node_;
  interceptor::Interceptor& tap_;
  /// One endpoint per ring, indexed by ring.
  std::vector<totem::TotemNode*> totems_;
  const RingPlacement* placement_ = nullptr;
  MechanismsConfig config_;

  GroupTable table_;
  std::unordered_map<std::uint32_t, std::unique_ptr<LocalReplica>> replicas_;  // by group
  std::unordered_map<std::uint32_t, ServantFactory> factories_;                // by group
  std::unordered_map<std::uint32_t, std::uint32_t> client_binding_;  // server → client group
  std::map<std::pair<std::uint32_t, std::uint32_t>, OutboundConn> outbound_;  // (client, server)
  std::unordered_map<std::uint32_t, MessageLog> logs_;  // by group (passive roles)

  // Server-role handshake store: (server group, client endpoint) → request.
  std::map<std::pair<std::uint32_t, orb::Endpoint>, util::SharedSlice> server_handshakes_;
  // Handshake dispatches in flight inside the local ORB.
  struct HandshakeFlight {
    GroupId server_group;
    bool replay = false;  ///< reply must be discarded (recovery injection)
  };
  /// In-flight handshakes awaiting their server-ORB reply, keyed by the
  /// (client endpoint, GIOP request id) the reply will be addressed with.
  /// The value is a FIFO, not a single flight: one client group opening
  /// connections to several server groups reuses the same endpoint AND the
  /// same per-connection request id, so concurrently injected handshakes
  /// (routine once independent rings deliver them back-to-back) share a
  /// key. The ORB answers injections in order, so replies pop front.
  std::map<std::pair<orb::Endpoint, std::uint32_t>, std::vector<HandshakeFlight>>
      handshake_flights_;

  // Duplicate-suppression windows (infrastructure-level state). Requests,
  // replies and set_states are raced by active replicas: (client, server)
  // and group keyed streams whose first delivered copy withdraws the rest.
  std::map<std::pair<std::uint32_t, std::uint32_t>, RacedStream> req_seen_;
  std::map<std::pair<std::uint32_t, std::uint32_t>, RacedStream> reply_seen_;
  std::unordered_map<std::uint32_t, SeqWindow> get_state_seen_;
  std::unordered_map<std::uint32_t, RacedStream> set_state_seen_;
  std::unordered_map<std::uint32_t, SeqWindow> checkpoint_seen_;

  // Recovery coordination: group → subjects awaiting get_state dispatch.
  std::unordered_map<std::uint32_t, std::set<std::uint64_t>> awaiting_get_state_;

  // Epoch allocator for the kGetState messages this node originates.
  std::unordered_map<std::uint32_t, std::uint64_t> epoch_floor_;

  // Delta recovery: (group, replica) → the log tip epoch the recovering
  // replica advertised in its kAddReplica (0 = no usable local base).
  // Recorded at every node in total order, so the eventual state source
  // fabricates _get_delta(since) instead of a full _get_state.
  std::map<std::pair<std::uint32_t, std::uint64_t>, std::uint64_t> recovery_base_;

  // ---- state transfers, by (group, epoch) ----
  std::map<TransferKey, OutgoingTransfer> outgoing_;
  std::map<TransferKey, Reassembly> incoming_;
  /// Verified extents surviving an aborted lane attempt, keyed by content
  /// digest: a re-served transfer (same or new sender) acks matching extents
  /// without re-shipping them. (group, subject) → digest → bytes.
  std::map<std::pair<std::uint32_t, std::uint64_t>, std::map<std::uint64_t, Bytes>>
      bulk_stash_;
  sim::BulkLane* bulk_lane_ = nullptr;
  std::uint64_t next_transfer_nonce_ = 1;

  // Stable storage (optional) and restores awaiting group re-creation.
  std::unique_ptr<class StableStorage> storage_;
  std::set<std::uint32_t> pending_restores_;

  // Observability (src/obs/): duplicate suppression is the hottest metered
  // path, so its counters are resolved once at construction.
  obs::Recorder& rec_;
  obs::Counter& ctr_req_dup_;
  obs::Counter& ctr_reply_dup_;
  obs::Counter& ctr_requests_injected_;
  obs::Counter& ctr_state_transfers_;

  std::uint64_t next_replica_nonce_ = 1;
  MechanismsStats stats_;
  std::vector<RecoveryRecord> recoveries_;
  std::vector<std::function<void(const TableEvent&)>> event_observers_;
};

}  // namespace eternal::core
