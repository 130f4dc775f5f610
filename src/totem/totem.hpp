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
#include "util/fifo.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

namespace eternal::totem {

using sim::Ethernet;
using sim::Simulator;
using util::Duration;
using util::TimePoint;

/// Flow-control and deployment parameters. The protocol's timers and
/// per-token bounds are constants in totem.cpp (DESIGN.md lists them).
struct TotemConfig {
  std::size_t max_frags_per_token = 16;               ///< fragments sent per token visit
  std::uint64_t gc_margin = 4096;                     ///< retained seqs behind aru

  // ---- multicast batching (off by default: wire behaviour unchanged) ----
  /// Complete small messages coalesced into one Data frame (1 = no
  /// batching). A batch consumes one sequence number and one token-visit
  /// fragment slot, so the per-rotation message budget scales with it. A
  /// batch never outgrows one Ethernet frame.
  std::size_t max_batch_msgs = 1;

  // ---- token backpressure ----
  /// Undelivered-sequence gap at which a member declares itself congested
  /// and writes a reduced origination budget into the token, slowing every
  /// sender instead of overflowing its own retransmission window. The
  /// budget is sized from the congested member's own drain rate (delivered
  /// messages per token rotation, EWMA) minus a term that pays the excess
  /// gap down, so the ring tracks what the slowest member can absorb.
  std::uint64_t backpressure_gap = 512;

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
/// The payload is a slice of the shared buffer the message arrived in (the
/// frame, or the one buffer a fragmented message was reassembled into). A
/// listener that keeps the bytes keeps the slice, or a sub-slice of it: no
/// copy, and the bytes stay valid for as long as it holds the reference.
/// A view taken from it (a BytesView) is only valid during on_deliver.
struct Delivery {
  NodeId sender;
  ViewId view;
  std::uint64_t seq = 0;  ///< sequence number of the message's last fragment
  util::SharedSlice payload;
};

/// Callbacks into the layer above. Invoked from simulation events; the
/// callee may multicast further messages re-entrantly (they are queued).
class TotemListener {
 public:
  virtual ~TotemListener() = default;
  virtual void on_deliver(const Delivery& delivery) = 0;
  virtual void on_view_change(const View& view) = 0;
  /// Asked on a token visit that would pass on idle: true when this node is
  /// about to multicast an output that no other member will send instead
  /// (a sole replier computing its reply). The endpoint then keeps the
  /// token until that multicast, or for at most a fixed cap. Must not
  /// allocate: it runs on every idle visit.
  virtual bool output_imminent() const { return false; }
};

/// Traffic/behaviour counters for the resource-usage experiments.
struct TotemStats {
  std::uint64_t multicasts = 0;         ///< messages submitted locally
  std::uint64_t withdrawn = 0;          ///< submitted messages dropped before sending
  std::uint64_t fragments_sent = 0;     ///< Data frames originated (no rtx)
  std::uint64_t retransmissions = 0;    ///< Data frames re-sent on request
  std::uint64_t deliveries = 0;         ///< messages delivered to listener
  std::uint64_t view_changes = 0;
  std::uint64_t tokens_handled = 0;
  std::uint64_t gathers = 0;            ///< entries into the gather state
  std::uint64_t output_holds = 0;       ///< idle visits that kept the token for local output
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
  /// The message stays one queue entry, its body untouched, until its last
  /// fragment is sent: each Data frame is written straight from it, so a
  /// message costs one allocation per frame and none while it waits.
  /// Returns the message's handle for withdraw(): its msg_id, which this
  /// endpoint never reuses, not even across crash().
  std::uint64_t multicast(Outbound message);

  /// Drops a queued message, but only while none of its fragments has been
  /// sent: a message partly on the ring stays, or its receivers would hold
  /// a reassembly that never completes. True when the message was dropped;
  /// false when it is already (partly) sent or unknown. Allocates nothing,
  /// and may be called from inside a delivery upcall.
  bool withdraw(std::uint64_t handle);

  /// Fragments queued locally but not yet sequenced.
  std::size_t backlog() const noexcept;

  /// True while this endpoint keeps the token for the listener's imminent
  /// output (TotemListener::output_imminent).
  bool holding_for_output() const noexcept { return hold_ != Hold::kNone; }

  const View& view() const noexcept { return view_; }
  const TotemStats& stats() const noexcept { return stats_; }

  /// Largest fragment payload that fits one Ethernet frame.
  std::size_t fragment_capacity() const;

  // sim::Station
  void on_frame(NodeId from, util::BytesView frame) override;

 private:
  enum class State { kDown, kJoining, kOperational, kGather, kRecovery };

  /// A queued message and its fragment cursor: fragments [0, next_frag)
  /// are on the ring. A message batches only whole, so only a fragmented
  /// message ever has a cursor past 0.
  struct PendingMessage {
    std::uint64_t msg_id = 0;
    std::uint32_t frag_count = 1;
    std::uint32_t next_frag = 0;
    Outbound message;
    TimePoint enqueued_at{};  ///< submission time (start of a batch span)
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
  /// Encodes `f` with the `payload_size`-byte payload `fill` writes into
  /// one shared buffer, broadcasts it and keeps a slice of it as the
  /// self-delivery store entry.
  template <typename Fill>
  void originate(DataFrame f, std::size_t payload_size, Fill&& fill);
  /// Sends the next fragment of the queue's front message, a batch of the
  /// queue's whole messages from the front, or the front message alone.
  void send_next(TokenFrame& token);
  /// Step 4 of a visit: the all-received-up-to watermark and the store's
  /// garbage collection below it.
  void update_aru(TokenFrame& token);
  /// Keeps an idle visit's token, unpassed, until the next multicast wakes
  /// it or kOutputHoldCap elapses.
  void hold_for_output(TokenFrame token);
  /// Ends a hold: the visit's sends, its aru step, and an immediate pass.
  void release_hold();
  void apply_backpressure(TokenFrame& token);
  void serve_retransmissions(std::vector<std::uint64_t>& rtr);
  void request_missing(TokenFrame& token);
  void pass_token(TokenFrame token, bool idle);
  NodeId successor_of(NodeId node) const;
  void arm_token_timer();
  void broadcast(util::BytesView frame);
  void broadcast(util::SharedBytes frame);

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
  /// Reassembly: the fragments received so far of each message, by
  /// (origin, msg_id).
  std::map<std::pair<std::uint32_t, std::uint64_t>, std::vector<util::SharedSlice>> partial_;
  /// In submission order, so msg_ids ascend along it (the unsent messages
  /// an excluded member carries into its rejoin keep their place).
  util::Fifo<PendingMessage> send_queue_;
  /// Not reset by crash(): a rejoining member's new messages must not alias
  /// the unsent ones it carries, nor a withdraw() handle taken before.
  std::uint64_t next_msg_id_ = 1;
  std::uint64_t highest_seen_seq_ = 0;

  // Flow control.
  std::uint64_t drain_ewma16_ = 0;    ///< messages delivered per token rotation, ×16
  std::uint64_t last_visit_delivered_ = 0;  ///< delivered_up_to_ at the previous visit

  // Span bookkeeping (obs/spans.hpp; raw ids to keep the header light).
  // Only populated while a SpanStore is attached to the recorder.
  std::map<std::uint64_t, std::uint64_t> frag_spans_;  ///< msg_id → open span
  std::uint64_t gather_span_ = 0;  ///< open "reformation" span, 0 when none

  // Token state.
  sim::EventId token_timer_{};
  sim::EventId pass_timer_{};
  std::optional<TokenFrame> held_token_;  ///< token waiting for pass_timer_ to pass it on
  /// An output hold: held_token_ is this visit's token, not yet passed;
  /// pass_timer_ is the cap (kHeld) or the wake a multicast scheduled
  /// (kWoken). Cleared with held_token_ by gather and crash.
  enum class Hold : std::uint8_t { kNone, kHeld, kWoken };
  Hold hold_ = Hold::kNone;
  util::Bytes token_wire_;  ///< the last pass's encoded token, reused by the next

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

  // Observability (src/obs/). Histograms are resolved once at construction
  // — against the registry the deploying System attached to the Simulator's
  // Recorder, or a shared sink when running bare — so the send path pays
  // one observation, never a name lookup. rec_ gates trace emission; counts
  // live in stats_.
  obs::Recorder& rec_;
  obs::Histogram& hist_batch_msgs_;   ///< messages per originated Data frame
  obs::Histogram& hist_batch_bytes_;  ///< payload bytes per originated Data frame
};

}  // namespace eternal::totem
