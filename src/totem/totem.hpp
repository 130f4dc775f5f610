// Totem-like reliable totally-ordered multicast (single ring).
//
// Guarantees provided to the layer above (Eternal's Replication Mechanisms):
//   - *agreed delivery*: every operational ring member delivers the same
//     messages in the same global sequence order, gap-free;
//   - *self-delivery*: a sender delivers its own messages at their ordered
//     position, like everyone else;
//   - *virtual synchrony-style views*: membership changes are announced as
//     views; all surviving members deliver the same set of messages before
//     the next view installs;
//   - *fragmentation*: messages larger than an Ethernet frame are split into
//     multiple sequenced Data frames and reassembled before delivery (this
//     is the transport behaviour behind the paper's Figure 6).
//
// The protocol is token-based: the ring token carries the next sequence
// number, retransmission requests and the all-received-up-to watermark.
// Membership loss (token timeout, crash, join request) triggers a
// gather/commit/recovery-exchange/install reformation.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <set>
#include <unordered_map>
#include <vector>

#include "obs/trace.hpp"
#include "sim/ethernet.hpp"
#include "sim/simulator.hpp"
#include "totem/frames.hpp"
#include "totem/seq_store.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

namespace eternal::totem {

using sim::Ethernet;
using sim::Simulator;
using util::Duration;
using util::TimePoint;

/// Protocol timing and flow-control parameters.
struct TotemConfig {
  Duration idle_pass_delay = Duration(20'000);        ///< 20 us token hold when idle
  Duration token_timeout = Duration(5'000'000);       ///< 5 ms: no token/frame → gather
  Duration join_settle = Duration(1'000'000);         ///< 1 ms gossip settle
  Duration join_rebroadcast = Duration(300'000);      ///< re-gossip interval in gather
  Duration recovery_timeout = Duration(10'000'000);   ///< 10 ms: stuck recovery → re-gather
  Duration join_request_interval = Duration(1'000'000);  ///< joiner announcement period
  std::size_t max_frags_per_token = 16;               ///< fragments sent per token visit
  std::size_t max_rtr_per_token = 64;                 ///< retransmission requests per token
  std::uint64_t gc_margin = 4096;                     ///< retained seqs behind aru
  /// Consecutive fruitless recovery rounds (missing set unchanged at the
  /// recovery timeout) a member tolerates before concluding its missing
  /// messages have no surviving holder — they were garbage-collected while
  /// it was cut off — and demoting itself to a fresh member so reformation
  /// can complete. Eternal's state transfer rebuilds its replicas above us.
  std::uint32_t max_recovery_stalls = 3;

  // ---- multicast batching (off by default: wire behaviour unchanged) ----
  /// Complete small messages coalesced into one Data frame (1 = no
  /// batching). A batch consumes one sequence number and one token-visit
  /// fragment slot, so the per-rotation message budget scales with it.
  std::size_t max_batch_msgs = 1;
  /// Payload-byte bound per batch; 0 = whatever fits one Ethernet frame.
  std::size_t max_batch_bytes = 0;
  /// Adapts the batch window between 1 and max_batch_msgs from the recent
  /// submission→origination wait (the local, Totem-controlled component of
  /// the order-wait span): drain-fast when idle, pack-dense under backlog.
  bool adaptive_batching = false;
  /// Queue-wait level (EWMA) above which the adaptive window widens.
  Duration adaptive_wait_target = Duration(300'000);  ///< 300 us

  // ---- token backpressure ----
  /// Undelivered-sequence gap at which a member declares itself congested
  /// and writes a reduced origination budget into the token, slowing every
  /// sender instead of overflowing its own retransmission window.
  std::uint64_t backpressure_gap = 512;
  /// Data frames per token visit the ring drops to while congested.
  std::size_t backpressure_budget = 2;
  /// Proportional controller: instead of the fixed backpressure_budget
  /// step, size the budget from the congested member's own drain rate
  /// (delivered messages per token rotation, EWMA) minus a term that pays
  /// the excess gap down — shrinking the sawtooth the on/off step causes
  /// under sustained asymmetric load.
  bool proportional_backpressure = false;
  /// Budget floor for the proportional controller (keeps the ring live).
  std::size_t backpressure_min_budget = 1;

  // ---- multi-ring deployments (core/placement.hpp) ----
  /// Index of this endpoint's ring within a sharded multi-ring system.
  /// Salted into the ring identity so two rings with identical membership
  /// and view counters can never collide on ring_id, and stamped into this
  /// endpoint's reformation traces/spans so observability stays
  /// per-ring-attributable. 0 = the classic single-ring system (identity
  /// computation unchanged — single-ring traces stay byte-identical).
  std::uint32_t ring_index = 0;
};

/// An installed membership view.
struct View {
  ViewId id;
  std::uint64_t ring_id = 0;         ///< unique identity of this ring incarnation
  std::vector<NodeId> members;       ///< sorted ring order
  std::vector<NodeId> joined;        ///< members not in the previous view
  std::vector<NodeId> departed;      ///< previous members no longer present
  bool self_rejoined_fresh = false;  ///< this node re-entered without history
};

/// A totally-ordered, reassembled message handed to the layer above.
///
/// The payload is lent, not owned: it points into the endpoint's frame store
/// (or its reassembly buffer) and is valid only until on_deliver returns. A
/// listener that keeps the bytes copies them.
struct Delivery {
  NodeId sender;
  ViewId view;
  std::uint64_t seq = 0;  ///< sequence number of the message's last fragment
  util::BytesView payload;
};

/// Callbacks into the layer above. Invoked from simulation events; the
/// callee may multicast further messages re-entrantly (they are queued).
class TotemListener {
 public:
  virtual ~TotemListener() = default;
  virtual void on_deliver(const Delivery& delivery) = 0;
  virtual void on_view_change(const View& view) = 0;
};

/// Traffic/behaviour counters for the resource-usage experiments.
struct TotemStats {
  std::uint64_t multicasts = 0;         ///< messages submitted locally
  std::uint64_t fragments_sent = 0;     ///< Data frames originated (no rtx)
  std::uint64_t retransmissions = 0;    ///< Data frames re-sent on request
  std::uint64_t deliveries = 0;         ///< messages delivered to listener
  std::uint64_t view_changes = 0;
  std::uint64_t tokens_handled = 0;
  std::uint64_t batches_sent = 0;       ///< Data frames carrying >= 2 messages
  std::uint64_t batched_messages = 0;   ///< messages that travelled inside a batch
  std::uint64_t backpressure_sets = 0;  ///< token visits where we imposed a budget
  std::uint64_t backpressure_throttled = 0;  ///< sends deferred by a foreign budget
  std::uint64_t forced_demotions = 0;   ///< gave up continuity after stalled recovery
  std::uint64_t stale_frames_discarded = 0;  ///< held frames dropped at commit
                                             ///< (seqs beyond the merged base)
  std::uint64_t stale_frames_replaced = 0;   ///< held frames overwritten by a
                                             ///< differing retransmission
  std::uint64_t stale_rebroadcasts = 0;      ///< authoritative re-sends after a
                                             ///< Ready held-digest mismatch
};

/// One ring endpoint, living on one simulated processor.
class TotemNode : public sim::Station {
 public:
  TotemNode(Simulator& sim, Ethernet& ethernet, NodeId node, TotemConfig config,
            TotemListener* listener);
  ~TotemNode() override;

  TotemNode(const TotemNode&) = delete;
  TotemNode& operator=(const TotemNode&) = delete;

  NodeId node() const noexcept { return node_; }

  /// Bootstraps the ring out-of-band: every initial member calls start()
  /// with the same member list; the lowest id creates the first token.
  void start(const std::vector<NodeId>& initial_members);

  /// (Re)joins a running ring: announces JoinRequest until a view that
  /// contains this node installs. The node enters with no message history.
  void join();

  /// Crash: detaches from the medium and discards all protocol state.
  void crash();

  /// True once a view containing this node is installed.
  bool operational() const noexcept { return state_ == State::kOperational; }
  bool is_down() const noexcept { return state_ == State::kDown; }

  /// Queues a message for agreed delivery to all members (including self).
  /// Accepts any size; fragments as needed. Must not be called while down.
  void multicast(util::Bytes payload);

  /// Messages queued locally but not yet sequenced.
  std::size_t backlog() const noexcept { return send_queue_.size(); }

  const View& view() const noexcept { return view_; }
  const TotemStats& stats() const noexcept { return stats_; }

  /// Largest fragment payload that fits one Ethernet frame.
  std::size_t fragment_capacity() const;

  // sim::Station
  void on_frame(NodeId from, util::BytesView frame) override;

 private:
  enum class State { kDown, kJoining, kOperational, kGather, kRecovery };

  struct PendingFragment {
    std::uint64_t msg_id;
    std::uint32_t frag_index;
    std::uint32_t frag_count;
    util::Bytes payload;
    TimePoint enqueued_at{};  ///< submission time (queue-wait accounting)
  };

  // ---- frame handlers ----
  void handle_data(DataFrame&& f);
  void handle_token(NodeId from, TokenFrame token);
  void handle_join(NodeId from, const JoinFrame& f);
  void handle_commit(NodeId from, const CommitFrame& f);
  void handle_ready(NodeId from, const ReadyFrame& f);
  void handle_install(NodeId from, const InstallFrame& f);
  void handle_join_request(NodeId from);

  // ---- normal operation ----
  void advance_delivery();
  void deliver_frame(const DataFrame& f);
  void deliver(const Delivery& d);
  /// Re-sends a held frame on request; `trace` names the trace event to
  /// record (nullptr: the caller records its own).
  void retransmit(DataFrame& held, const char* trace);
  void send_fragments(TokenFrame& token);
  void originate(DataFrame f);
  /// Current batch window: config'd max, or the adaptive window when enabled.
  std::size_t batch_window() const noexcept;
  void note_queue_wait(TimePoint enqueued_at);
  void update_adaptive_window();
  void apply_backpressure(TokenFrame& token);
  void serve_retransmissions(std::vector<std::uint64_t>& rtr);
  void request_missing(TokenFrame& token);
  void pass_token(TokenFrame token, bool idle);
  NodeId successor_of(NodeId node) const;
  void arm_token_timer();
  void broadcast(util::Bytes frame);

  // ---- membership ----
  void enter_gather();
  void broadcast_join();
  void settle_elapsed();
  void maybe_install();
  void send_ready();
  std::vector<std::uint64_t> compute_missing(std::uint64_t up_to) const;
  void install_view(const InstallFrame& f);
  void arm_recovery_timer();

  Simulator& sim_;
  Ethernet& ethernet_;
  NodeId node_;
  TotemConfig config_;
  TotemListener* listener_;

  State state_ = State::kDown;
  View view_;
  bool ever_installed_ = false;
  bool bootstrapping_ = false;  ///< inside start()'s initial install
  /// Rings whose history the current ring continues, oldest → newest.
  /// Retransmitted frames sequenced under an ancestor are accepted; frames
  /// from an unknown ring (a healed partition's other component) are
  /// foreign. Bounded at kMaxAncestorRings: the list rides inside the
  /// single-MTU commit frame, so it cannot grow with reformation count —
  /// a member lagging more than the window merely demotes to fresh on
  /// merge, which is always safe (the Mechanisms rebuild its state).
  static constexpr std::size_t kMaxAncestorRings = 64;
  std::vector<std::uint64_t> ancestor_rings_;
  void remember_ancestor(std::uint64_t ring);
  bool known_ancestor(std::uint64_t ring) const noexcept;

  // Sequencing / delivery.
  std::uint64_t delivered_up_to_ = 0;  ///< aru: contiguous prefix delivered
  SeqStore store_;  ///< frames by seq (delivery + rtx)
  std::map<std::pair<std::uint32_t, std::uint64_t>, util::Bytes> partial_;  ///< reassembly
  std::deque<PendingFragment> send_queue_;
  std::uint64_t next_msg_id_ = 1;
  std::uint64_t highest_seen_seq_ = 0;

  // Batching / flow control.
  std::size_t adaptive_window_ = 1;   ///< live batch window (adaptive mode)
  std::int64_t queue_wait_ewma_ = 0;  ///< ns; smoothed submission→origination wait
  std::uint64_t drain_ewma16_ = 0;    ///< messages delivered per token rotation, ×16
  std::uint64_t last_visit_delivered_ = 0;  ///< delivered_up_to_ at the previous visit

  // Span bookkeeping (obs/spans.hpp; raw ids to keep the header light).
  // Only populated while a SpanStore is attached to the recorder.
  std::map<std::uint64_t, std::uint64_t> frag_spans_;  ///< msg_id → open span
  std::uint64_t gather_span_ = 0;  ///< open "reformation" span, 0 when none

  // Token state.
  sim::EventId token_timer_{};
  sim::EventId pass_timer_{};
  std::optional<TokenFrame> held_token_;  ///< single-member ring: token waiting to self-pass

  // Gather/recovery state.
  std::set<NodeId> gather_alive_;
  std::uint64_t gather_highest_seq_ = 0;  ///< max over joins of *this* ring
  std::uint64_t gather_highest_view_ = 0;
  sim::EventId settle_timer_{};
  sim::EventId rebroadcast_timer_{};
  sim::EventId recovery_timer_{};
  sim::EventId join_request_timer_{};
  std::optional<CommitFrame> commit_;
  std::set<NodeId> ready_members_;
  std::vector<std::uint64_t> requested_missing_check_;  ///< last Ready's missing wave
  bool fresh_member_ = true;  ///< entering without history (new or demoted)
  std::uint32_t recovery_stalls_ = 0;     ///< consecutive no-progress recovery rounds
  std::size_t last_stall_missing_ = 0;    ///< missing count at the previous stall

  std::unordered_map<NodeId, TimePoint> last_heard_;
  TotemStats stats_;

  // Observability (src/obs/). Instruments are resolved once at construction
  // — against the registry the deploying System attached to the Simulator's
  // Recorder, or a shared sink when running bare — so the token path pays
  // one increment, never a name lookup. rec_ gates trace emission.
  obs::Recorder& rec_;
  obs::Counter& ctr_tokens_;
  obs::Counter& ctr_deliveries_;
  obs::Counter& ctr_retransmissions_;
  obs::Counter& ctr_view_installs_;
  obs::Counter& ctr_gathers_;
  obs::Histogram& hist_batch_msgs_;   ///< messages per originated Data frame
  obs::Histogram& hist_batch_bytes_;  ///< payload bytes per originated Data frame
};

}  // namespace eternal::totem
