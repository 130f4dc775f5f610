#include "totem/totem.hpp"

#include <algorithm>
#include <cassert>
#include <iterator>
#include <stdexcept>

#include "obs/spans.hpp"

namespace eternal::totem {

namespace {
constexpr const char* kTag = "totem";

// Protocol timers and per-token bounds. One configuration runs everywhere;
// DESIGN.md ("Multicast batching and token flow control") says why each
// value holds.
constexpr Duration kIdlePassDelay = Duration(20'000);          ///< 20 us token hold when idle
constexpr Duration kOutputHoldCap = Duration(200'000);          ///< longest hold for local output
constexpr Duration kTokenTimeout = Duration(5'000'000);         ///< 5 ms: no token/frame → gather
constexpr Duration kJoinSettle = Duration(1'000'000);           ///< 1 ms gossip settle
constexpr Duration kJoinRebroadcast = Duration(300'000);        ///< re-gossip interval in gather
constexpr Duration kRecoveryTimeout = Duration(10'000'000);     ///< 10 ms: stuck recovery → re-gather
constexpr Duration kJoinRequestInterval = Duration(1'000'000);  ///< joiner announcement period
constexpr std::size_t kMaxRtrPerToken = 64;                     ///< retransmission requests per token
/// Consecutive fruitless recovery rounds (missing set unchanged at the
/// recovery timeout) a member tolerates before concluding its missing
/// messages have no surviving holder — they were garbage-collected while
/// it was cut off — and demoting itself to a fresh member so reformation
/// can complete. Eternal's state transfer rebuilds its replicas above us.
constexpr std::uint32_t kMaxRecoveryStalls = 3;
/// Floor of the backpressure budget (keeps the ring live).
constexpr std::uint32_t kBackpressureMinBudget = 1;
static_assert(kBackpressureMinBudget >= 1, "a 0 flow budget in the token means unlimited");

std::vector<NodeId> sorted(std::set<NodeId> nodes) {
  return std::vector<NodeId>(nodes.begin(), nodes.end());
}
}  // namespace

TotemNode::TotemNode(Simulator& sim, Ethernet& ethernet, NodeId node, TotemConfig config,
                     TotemListener* listener)
    : sim_(sim),
      ethernet_(ethernet),
      node_(node),
      config_(config),
      listener_(listener),
      rec_(sim.recorder()),
      hist_batch_msgs_(rec_.histogram("totem.batch_msgs", {1, 2, 4, 8, 16, 32, 64, 128})),
      hist_batch_bytes_(
          rec_.histogram("totem.batch_bytes", {64, 128, 256, 512, 1024, 1536})) {
  if (listener_ == nullptr) throw std::invalid_argument("TotemNode: null listener");
}

TotemNode::~TotemNode() {
  if (state_ != State::kDown) crash();
}

void TotemNode::remember_ancestor(std::uint64_t ring) {
  // Recency-ordered with dedup: a re-learned ring moves to the back, and
  // the oldest entries fall off once the window fills.
  std::erase(ancestor_rings_, ring);
  ancestor_rings_.push_back(ring);
  if (ancestor_rings_.size() > kMaxAncestorRings) {
    ancestor_rings_.erase(ancestor_rings_.begin(),
                          ancestor_rings_.end() -
                              static_cast<std::ptrdiff_t>(kMaxAncestorRings));
  }
}

bool TotemNode::known_ancestor(std::uint64_t ring) const noexcept {
  return std::find(ancestor_rings_.begin(), ancestor_rings_.end(), ring) !=
         ancestor_rings_.end();
}

std::size_t TotemNode::fragment_capacity() const {
  const std::size_t overhead = data_frame_overhead();
  const std::size_t max_payload = ethernet_.max_payload();
  if (max_payload <= overhead + 8) throw std::logic_error("TotemNode: MTU too small");
  return max_payload - overhead;
}

void TotemNode::broadcast(util::BytesView frame) { ethernet_.broadcast(node_, frame); }

void TotemNode::broadcast(util::SharedBytes frame) {
  ethernet_.broadcast(node_, std::move(frame));
}

// ---------------------------------------------------------------- lifecycle

void TotemNode::start(const std::vector<NodeId>& initial_members) {
  if (state_ != State::kDown) throw std::logic_error("TotemNode: start() while running");
  if (std::find(initial_members.begin(), initial_members.end(), node_) ==
      initial_members.end()) {
    throw std::invalid_argument("TotemNode: start() without self in member list");
  }
  ethernet_.attach(node_, this);

  InstallFrame bootstrap;
  bootstrap.new_view = ViewId{1};
  bootstrap.members = initial_members;
  std::sort(bootstrap.members.begin(), bootstrap.members.end());
  bootstrap.next_seq = 1;
  state_ = State::kRecovery;  // install_view expects a non-operational state
  fresh_member_ = true;
  bootstrapping_ = true;
  install_view(bootstrap);
  bootstrapping_ = false;
}

void TotemNode::join() {
  if (state_ != State::kDown) throw std::logic_error("TotemNode: join() while running");
  ethernet_.attach(node_, this);
  state_ = State::kJoining;
  fresh_member_ = true;

  // Announce until a view containing us installs.
  auto announce = [this](auto&& self_fn) -> void {
    if (state_ != State::kJoining) return;
    broadcast(encode_frame(node_, JoinRequestFrame{}));
    join_request_timer_ = sim_.schedule(kJoinRequestInterval,
                                        [this, self_fn] { self_fn(self_fn); });
  };
  announce(announce);
}

void TotemNode::crash() {
  ethernet_.detach(node_);
  sim_.cancel(token_timer_);
  sim_.cancel(pass_timer_);
  sim_.cancel(settle_timer_);
  sim_.cancel(rebroadcast_timer_);
  sim_.cancel(recovery_timer_);
  sim_.cancel(join_request_timer_);
  state_ = State::kDown;
  view_ = View{};
  ever_installed_ = false;
  delivered_up_to_ = 0;
  store_.clear();
  partial_.clear();
  send_queue_.clear();
  // Pending span bookkeeping does not survive into the next incarnation.
  if (obs::SpanStore* spans = rec_.spans()) {
    for (const auto& [msg, span] : frag_spans_)
      spans->end(span, sim_.now(), {{"crashed", 1}});
    if (gather_span_ != 0) spans->end(gather_span_, sim_.now(), {{"crashed", 1}});
  }
  frag_spans_.clear();
  gather_span_ = 0;
  highest_seen_seq_ = 0;
  drain_ewma16_ = 0;
  last_visit_delivered_ = 0;
  recovery_stalls_ = 0;
  last_stall_missing_ = 0;
  held_token_.reset();
  hold_ = Hold::kNone;
  gather_alive_.clear();
  gather_highest_seq_ = 0;
  gather_highest_view_ = 0;
  commit_.reset();
  ready_members_.clear();
  last_heard_.clear();
  ancestor_rings_.clear();
  fresh_member_ = true;
}

std::uint64_t TotemNode::multicast(Outbound message) {
  if (state_ == State::kDown) throw std::logic_error("TotemNode: multicast() while down");
  const std::size_t cap = fragment_capacity();
  const std::uint64_t msg_id = next_msg_id_++;
  const std::size_t bytes = message.size();
  const std::size_t count = bytes == 0 ? 1 : (bytes + cap - 1) / cap;
  send_queue_.push_back(PendingMessage{msg_id, static_cast<std::uint32_t>(count), 0,
                                       std::move(message), sim_.now()});
  stats_.multicasts += 1;
  if (hold_ == Hold::kHeld) {
    // The output the token was kept for. The release runs as an event of its
    // own, never inline: multicast() is called from inside delivery upcalls.
    hold_ = Hold::kWoken;
    sim_.cancel(pass_timer_);
    pass_timer_ = sim_.schedule(Duration::zero(), [this] { release_hold(); });
  }
  if (obs::SpanStore* spans = rec_.spans(); spans != nullptr && count > 1) {
    // Track a fragmented message (a large state transfer, typically) from
    // submission until its last fragment is originated on the ring.
    frag_spans_[msg_id] =
        spans->begin(0, 0, node_, obs::Layer::kTotem, "fragmented-send", sim_.now(),
                     {{"msg", msg_id}, {"frags", count}, {"bytes", bytes}});
  }
  return msg_id;
}

bool TotemNode::withdraw(std::uint64_t handle) {
  // Sending pops from the front, so a handle below the front's was sent.
  const auto first = std::lower_bound(
      send_queue_.begin(), send_queue_.end(), handle,
      [](const PendingMessage& m, std::uint64_t h) { return m.msg_id < h; });
  if (first == send_queue_.end() || first->msg_id != handle || first->next_frag != 0) {
    return false;
  }
  send_queue_.erase(first, first + 1);
  stats_.withdrawn += 1;
  if (auto it = frag_spans_.find(handle); it != frag_spans_.end()) {
    if (obs::SpanStore* spans = rec_.spans()) spans->end(it->second, sim_.now(), {{"withdrawn", 1}});
    frag_spans_.erase(it);
  }
  return true;
}

std::size_t TotemNode::backlog() const noexcept {
  std::size_t fragments = 0;
  for (const PendingMessage& m : send_queue_) fragments += m.frag_count - m.next_frag;
  return fragments;
}

// ---------------------------------------------------------------- frame I/O

void TotemNode::on_frame(NodeId from, util::BytesView raw) {
  if (state_ == State::kDown) return;
  // A frame the segment is delivering out of a shared buffer is referenced,
  // not copied; any other view (a test, a replayed corpus) is decoded into a
  // buffer of its own.
  const util::SharedBytes* lent = ethernet_.lent_frame();
  std::optional<Frame> frame =
      lent != nullptr && lent->data() == raw.data() && lent->size() == raw.size()
          ? decode_frame(*lent)
          : decode_frame(raw);
  if (!frame) return;
  last_heard_[from] = sim_.now();
  if (state_ == State::kOperational) arm_token_timer();

  std::visit(
      [&](auto&& body) {
        using T = std::decay_t<decltype(body)>;
        if constexpr (std::is_same_v<T, DataFrame>) {
          handle_data(std::move(body));
        } else if constexpr (std::is_same_v<T, TokenFrame>) {
          handle_token(from, std::move(body));
        } else if constexpr (std::is_same_v<T, JoinFrame>) {
          handle_join(from, body);
        } else if constexpr (std::is_same_v<T, CommitFrame>) {
          handle_commit(from, body);
        } else if constexpr (std::is_same_v<T, ReadyFrame>) {
          handle_ready(from, body);
        } else if constexpr (std::is_same_v<T, InstallFrame>) {
          handle_install(from, body);
        } else if constexpr (std::is_same_v<T, JoinRequestFrame>) {
          handle_join_request(from);
        }
      },
      frame->body);
}

// ---------------------------------------------------------------- data path

void TotemNode::handle_data(DataFrame&& f) {
  if (state_ == State::kJoining) return;  // no history yet; state transfer covers us
  if (f.ring_id != view_.ring_id && !known_ancestor(f.ring_id)) {
    // Sequenced by a ring whose history we do not continue (a healed
    // partition's other component, or a stale frame at a demoted member).
    // Ignore; merge detection happens on token frames, which are always
    // stamped with the live ring.
    return;
  }
  if (f.seq == 0) return;
  highest_seen_seq_ = std::max(highest_seen_seq_, f.seq);
  if (f.seq <= delivered_up_to_) return;  // already delivered
  if (DataFrame* held = store_.find(f.seq)) {
    // Duplicate — unless it exposes a stale entry: a retransmission from a
    // member that *delivered* this sequence number carries the agreed
    // message, so a differing copy we stored under a superseded lineage
    // (the merged ring reassigned that number while we were cut off) is
    // stale and must be replaced before delivery reaches it.
    if (f.retransmission && f.authoritative &&
        util::fnv1a(held->payload) != util::fnv1a(f.payload)) {
      ETERNAL_LOG(kWarn, kTag,
                  util::to_string(node_) << " replacing stale held frame at seq " << f.seq);
      stats_.stale_frames_replaced += 1;
      rec_.record(node_, obs::Layer::kTotem, "stale_replace", f.seq, {{"ring", f.ring_id}});
      *held = std::move(f);
    }
    return;
  }
  store_.insert(std::move(f));
  advance_delivery();

  // Recovery exchange: once the wave of sequence numbers we last asked for
  // has fully arrived, report again (ready, or the next wave of missing).
  if (state_ == State::kRecovery && commit_.has_value() && !requested_missing_check_.empty()) {
    bool wave_done = true;
    for (std::uint64_t s : requested_missing_check_) {
      if (s > delivered_up_to_ && !store_.contains(s)) {
        wave_done = false;
        break;
      }
    }
    if (wave_done) send_ready();
  }
}

void TotemNode::advance_delivery() {
  while (const DataFrame* next = store_.find(delivered_up_to_ + 1)) {
    delivered_up_to_ += 1;
    deliver_frame(*next);
  }
}

void TotemNode::deliver_frame(const DataFrame& f) {
  // Traced per frame (not per reassembled message) so the event stream is
  // gap-free in sequence numbers — the property the InvariantChecker
  // asserts per node and cross-checks across the ring. Guarded: the payload
  // digest is the one field that costs real work.
  if (rec_.tracing()) {
    rec_.record(node_, obs::Layer::kTotem, "deliver", f.seq,
                {{"ring", f.ring_id},
                 {"view", f.view.value},
                 {"origin", f.origin.value},
                 {"digest", util::fnv1a(f.payload)},
                 {"size", f.payload.size()},
                 obs::when(f.batch_count >= 2, {"batch", f.batch_count})});
  }
  // Deliveries are slices of the frame's shared buffer: a listener keeps
  // what it needs by copying the slice, never the bytes.
  if (f.batch_count >= 2) {
    // A batched frame: unpack back into the individual messages, delivered in
    // the origin's submission order under the frame's one sequence number —
    // so per-sender FIFO and the agreed total order both survive batching.
    const bool well_formed = unpack_batch(f.payload, f.batch_count, [&](util::BytesView m) {
      deliver(Delivery{f.origin, f.view, f.seq, f.payload.sub(m)});
    });
    if (!well_formed) {
      // The packed blob is the sequenced bytes themselves, so a malformed
      // batch decodes identically everywhere: every member drops it, like a
      // bad-FCS frame that somehow carried a valid header.
      ETERNAL_LOG(kWarn, kTag,
                  util::to_string(node_) << " malformed batch at seq " << f.seq);
    }
    return;
  }
  if (f.frag_count <= 1) {
    deliver(Delivery{f.origin, f.view, f.seq, f.payload});
    return;
  }
  // Fragments are collected as slices and joined once, into the one buffer
  // the reassembled message is delivered (and retained) from.
  const auto key = std::make_pair(f.origin.value, f.msg_id);
  std::vector<util::SharedSlice>& parts = partial_[key];
  parts.push_back(f.payload);
  if (f.frag_index + 1 == f.frag_count) {
    std::size_t size = 0;
    for (const util::SharedSlice& part : parts) size += part.size();
    util::SharedBytes whole = util::SharedBytes::build(size, [&](std::uint8_t* out) {
      for (const util::SharedSlice& part : parts) out = std::copy(part.begin(), part.end(), out);
    });
    partial_.erase(key);
    deliver(Delivery{f.origin, f.view, f.seq, util::SharedSlice(std::move(whole))});
  }
}

void TotemNode::deliver(const Delivery& d) {
  stats_.deliveries += 1;
  listener_->on_deliver(d);
}

// ---------------------------------------------------------------- token path

void TotemNode::handle_token(NodeId /*from*/, TokenFrame token) {
  if (state_ == State::kOperational && token.ring_id != view_.ring_id &&
      !known_ancestor(token.ring_id)) {
    // A live token from a ring we are not part of: a healed partition.
    ETERNAL_LOG(kDebug, kTag, util::to_string(node_) << " foreign ring token -> gather");
    enter_gather();
    return;
  }
  if (state_ != State::kOperational) return;
  if (token.view != view_.id) return;
  if (token.target != node_) return;  // token is logically point-to-point
  stats_.tokens_handled += 1;  // rotation volume is counted, never traced

  // Drain rate: messages this member delivered since its previous token
  // visit (one ring rotation), smoothed. Sizes the backpressure budget.
  // Fixed-point ×16, integer EWMA alpha = 1/4.
  {
    const std::uint64_t drained = delivered_up_to_ - last_visit_delivered_;
    last_visit_delivered_ = delivered_up_to_;
    drain_ewma16_ = drain_ewma16_ - drain_ewma16_ / 4 + drained * 4;
  }

  bool did_work = false;

  // 1. Serve retransmission requests we can satisfy.
  const std::size_t before_rtr = token.rtr.size();
  serve_retransmissions(token.rtr);
  did_work |= token.rtr.size() != before_rtr;

  // 2. Add our own missing sequence numbers.
  request_missing(token);

  // 2b. Flow control: impose or release an origination budget.
  apply_backpressure(token);

  // 3. Originate pending fragments, consuming sequence numbers.
  const std::uint64_t before_seq = token.next_seq;
  send_fragments(token);
  did_work |= token.next_seq != before_seq;

  // 4. All-received-up-to bookkeeping (drives garbage collection).
  update_aru(token);

  // 5. Pass to the successor. An idle visit while a local sole replier is
  // computing its reply keeps the token instead: the reply goes out on this
  // visit rather than one rotation later.
  const bool idle = !did_work && send_queue_.empty();
  if (idle && view_.members.size() > 1 && listener_->output_imminent()) {
    hold_for_output(std::move(token));
    return;
  }
  pass_token(std::move(token), idle);
}

void TotemNode::update_aru(TokenFrame& token) {
  if (delivered_up_to_ < token.aru) {
    token.aru = delivered_up_to_;
    token.aru_setter = node_;
  } else if (token.aru_setter == node_) {
    token.aru = delivered_up_to_;
  }
  if (token.aru > config_.gc_margin) store_.erase_below(token.aru - config_.gc_margin);
}

void TotemNode::hold_for_output(TokenFrame token) {
  stats_.output_holds += 1;
  held_token_ = std::move(token);
  hold_ = Hold::kHeld;
  pass_timer_ = sim_.schedule(kOutputHoldCap, [this] { release_hold(); });
}

void TotemNode::release_hold() {
  // Gather and crash cancel the timer and clear the hold together.
  if (hold_ == Hold::kNone) return;
  hold_ = Hold::kNone;
  TokenFrame token = std::move(*held_token_);
  held_token_.reset();
  // The rest of the visit the hold interrupted, under the same flow budget.
  send_fragments(token);
  update_aru(token);
  pass_token(std::move(token), /*idle=*/false);
}

template <typename Fill>
void TotemNode::originate(DataFrame f, std::size_t payload_size, Fill&& fill) {
  // One buffer for the frame: the wire, every member's store (receivers
  // reference it through the segment) and our own self-delivery entry.
  util::SharedBytes frame = encode_data_frame(node_, f, payload_size, fill);
  f.payload = util::SharedSlice(frame, frame.view().subspan(data_frame_overhead()));
  broadcast(std::move(frame));
  stats_.fragments_sent += 1;
  highest_seen_seq_ = std::max(highest_seen_seq_, f.seq);
  store_.insert(std::move(f));  // self-delivery
}

void TotemNode::send_fragments(TokenFrame& token) {
  // A foreign flow budget caps how many frames we may originate this visit
  // (we honour our own budget too: our sends feed the same backlog).
  std::size_t budget = config_.max_frags_per_token;
  const bool foreign_budget = token.flow_budget != 0 && token.flow_setter != node_;
  if (token.flow_budget != 0) budget = std::min(budget, std::size_t{token.flow_budget});

  std::size_t sent = 0;
  for (; !send_queue_.empty() && sent < budget; ++sent) send_next(token);
  if (foreign_budget && sent >= budget && !send_queue_.empty()) {
    stats_.backpressure_throttled += 1;
  }
  advance_delivery();
}

void TotemNode::send_next(TokenFrame& token) {
  const std::size_t cap = fragment_capacity();
  PendingMessage& front = send_queue_.front();
  DataFrame f;
  f.view = view_.id;
  f.ring_id = view_.ring_id;
  f.origin = node_;
  f.seq = token.next_seq++;
  f.msg_id = front.msg_id;

  // Multi-fragment messages always travel alone: reassembly keys on
  // (origin, msg_id), and a batch carries complete messages only. Each
  // fragment's frame is filled from its byte range of the queued message.
  if (front.frag_count > 1) {
    f.frag_index = front.next_frag;
    f.frag_count = front.frag_count;
    const std::size_t begin = std::size_t{f.frag_index} * cap;
    const std::size_t n = std::min(cap, front.message.size() - begin);
    const bool last_fragment = f.frag_index + 1 == f.frag_count;
    const std::uint64_t msg_id = f.msg_id;
    hist_batch_msgs_.observe(1);
    hist_batch_bytes_.observe(n);
    originate(std::move(f), n,
              [&](std::uint8_t* out) { front.message.copy(begin, n, out); });
    if (!last_fragment) {
      send_queue_.front().next_frag += 1;
      return;
    }
    send_queue_.pop_front();
    if (auto it = frag_spans_.find(msg_id); it != frag_spans_.end()) {
      if (obs::SpanStore* spans = rec_.spans()) spans->end(it->second, sim_.now());
      frag_spans_.erase(it);
    }
    return;
  }

  // Whole messages: greedily coalesce queued ones, FIFO, until the batching
  // window or the frame fills or a fragmented message blocks the queue.
  const std::size_t window = std::max<std::size_t>(1, config_.max_batch_msgs);
  std::size_t count = 0;
  std::size_t packed = 0;
  while (count < send_queue_.size() && count < window && send_queue_[count].frag_count <= 1) {
    const std::size_t grown = packed_batch_size(packed, send_queue_[count].message.size());
    if (count > 0 && grown > cap) break;
    packed = grown;
    ++count;
    // A lone message the wrapping would push past the limit travels as a
    // plain frame (no length prefix, so it still fits the MTU).
    if (packed > cap) break;
  }

  if (count == 1) {
    const std::size_t n = front.message.size();
    hist_batch_msgs_.observe(1);
    hist_batch_bytes_.observe(n);
    originate(std::move(f), n, [&](std::uint8_t* out) { front.message.copy(0, n, out); });
  } else {
    f.batch_count = static_cast<std::uint32_t>(count);
    stats_.batches_sent += 1;
    stats_.batched_messages += count;
    if (obs::SpanStore* spans = rec_.spans()) {
      // The batch span covers the coalescing window: oldest member's
      // submission until the whole batch is originated here.
      const std::uint64_t span =
          spans->begin(0, 0, node_, obs::Layer::kTotem, "batch", front.enqueued_at,
                       {{"msgs", count}, {"bytes", packed}});
      spans->end(span, sim_.now());
    }
    hist_batch_msgs_.observe(count);
    hist_batch_bytes_.observe(packed);
    originate(std::move(f), packed, [&](std::uint8_t* out) {
      std::size_t pos = 0;
      for (std::size_t i = 0; i < count; ++i) {
        const Outbound& m = send_queue_[i].message;
        pos = put_batch_prefix(out, pos, m.size());
        m.copy(0, m.size(), out + pos);
        pos += m.size();
      }
    });
  }
  for (std::size_t i = 0; i < count; ++i) send_queue_.pop_front();
}

void TotemNode::apply_backpressure(TokenFrame& token) {
  // Congested: the gap between the ring's assigned sequence numbers and what
  // we have delivered outgrew the window we can recover through rtr.
  const std::uint64_t assigned = token.next_seq - 1;
  const bool congested = assigned > delivered_up_to_ &&
                         assigned - delivered_up_to_ > config_.backpressure_gap;
  if (congested) {
    // Size the ring's per-member budget so total origination tracks our
    // drain rate minus a term that pays the excess gap down. A fixed on/off
    // step instead releases at full rate, re-congests us at once and saws
    // the throughput (EXPERIMENTS.md keeps its last numbers).
    const std::uint64_t excess = assigned - delivered_up_to_ - config_.backpressure_gap;
    const std::uint64_t drain_per_rotation = drain_ewma16_ / 16;
    const std::uint64_t paydown = excess / 16;
    const std::uint64_t sendable =
        drain_per_rotation > paydown ? drain_per_rotation - paydown : 0;
    const std::size_t members = view_.members.empty() ? 1 : view_.members.size();
    const auto budget = static_cast<std::uint32_t>(
        std::max<std::uint64_t>(kBackpressureMinBudget, sendable / members));
    // Lower-only, like aru: a budget may shrink mid-rotation, never grow.
    if (token.flow_budget == 0 || budget < token.flow_budget) {
      token.flow_budget = budget;
      token.flow_setter = node_;
      stats_.backpressure_sets += 1;
      rec_.record(node_, obs::Layer::kTotem, "backpressure", token.flow_budget,
                  {{"gap", assigned - delivered_up_to_}});
    }
  } else if (token.flow_setter == node_ && token.flow_budget != 0) {
    // Recovered: only the setter releases the ring.
    token.flow_budget = 0;
    token.flow_setter = NodeId{};
    rec_.record(node_, obs::Layer::kTotem, "backpressure_clear", 0,
                {{"delivered", delivered_up_to_}});
  }
}

void TotemNode::serve_retransmissions(std::vector<std::uint64_t>& rtr) {
  std::vector<std::uint64_t> still_missing;
  still_missing.reserve(rtr.size());
  for (std::uint64_t seq : rtr) {
    DataFrame* held = store_.find(seq);
    if (held == nullptr) {
      still_missing.push_back(seq);
      continue;
    }
    retransmit(*held, /*trace=*/"retransmit");
  }
  rtr = std::move(still_missing);
}

void TotemNode::retransmit(DataFrame& held, const char* trace) {
  // The stored copy's flags describe how it reached us, which nothing reads
  // again; stamp them for this send instead of copying the payload.
  held.retransmission = true;
  held.authoritative = held.seq <= delivered_up_to_;
  broadcast(encode_data_frame(node_, held, held.payload));
  stats_.retransmissions += 1;
  if (trace != nullptr)
    rec_.record(node_, obs::Layer::kTotem, trace, held.seq, {{"ring", held.ring_id}});
}

void TotemNode::request_missing(TokenFrame& token) {
  for (std::uint64_t seq = delivered_up_to_ + 1;
       seq < token.next_seq && token.rtr.size() < kMaxRtrPerToken; ++seq) {
    if (!store_.contains(seq) &&
        std::find(token.rtr.begin(), token.rtr.end(), seq) == token.rtr.end()) {
      token.rtr.push_back(seq);
    }
  }
}

NodeId TotemNode::successor_of(NodeId node) const {
  const auto& ring = view_.members;
  auto it = std::find(ring.begin(), ring.end(), node);
  if (it == ring.end() || std::next(it) == ring.end()) return ring.front();
  return *std::next(it);
}

void TotemNode::pass_token(TokenFrame token, bool idle) {
  token.round += 1;
  token.target = successor_of(node_);
  // Single-member ring: the token cannot traverse the medium back to us, so
  // it always waits the idle hold before we handle it again.
  const bool to_self = token.target == node_;
  const Duration delay = idle || to_self ? kIdlePassDelay : Duration::zero();
  const ViewId expected_view = view_.id;
  // The token waits in held_token_ (cleared by gather and crash, like the
  // timer) and is encoded when the timer fires, into the buffer of the
  // previous pass: the event carries no bytes, and a pass allocates nothing.
  held_token_ = std::move(token);
  pass_timer_ = sim_.schedule(delay, [this, expected_view] {
    if (state_ != State::kOperational || view_.id != expected_view || !held_token_) return;
    if (held_token_->target == node_) {
      TokenFrame parked = std::move(*held_token_);
      held_token_.reset();
      arm_token_timer();
      handle_token(node_, std::move(parked));
      return;
    }
    token_wire_ = encode_frame(node_, *held_token_, std::move(token_wire_));
    held_token_.reset();
    broadcast(token_wire_);
  });
}

void TotemNode::arm_token_timer() {
  sim_.cancel(token_timer_);
  token_timer_ = sim_.schedule(kTokenTimeout, [this] {
    if (state_ == State::kOperational) {
      ETERNAL_LOG(kDebug, kTag, util::to_string(node_) << " token timeout -> gather");
      enter_gather();
    }
  });
}

// ---------------------------------------------------------------- membership

void TotemNode::enter_gather() {
  if (state_ == State::kDown) return;
  state_ = State::kGather;
  stats_.gathers += 1;
  // Multi-ring: a nonzero ring index rides along so reformation activity is
  // attributable to one ring of a sharded system (absent = ring 0 / classic
  // single ring; the bystander-isolation chaos verdict keys on this).
  const obs::Field rix = obs::when(config_.ring_index != 0, {"rix", config_.ring_index});
  rec_.record(node_, obs::Layer::kTotem, "gather", view_.id.value,
              {{"ring", view_.ring_id}, rix});
  if (obs::SpanStore* spans = rec_.spans(); spans != nullptr && gather_span_ == 0) {
    // One reformation span per outage: re-entering gather (settle retries)
    // extends the open span rather than opening a new one.
    gather_span_ =
        spans->begin(0, 0, node_, obs::Layer::kTotem, "reformation", sim_.now(),
                     {{"ring", view_.ring_id}, rix});
  }
  sim_.cancel(token_timer_);
  sim_.cancel(pass_timer_);
  sim_.cancel(settle_timer_);
  sim_.cancel(rebroadcast_timer_);
  sim_.cancel(recovery_timer_);
  held_token_.reset();
  hold_ = Hold::kNone;
  commit_.reset();
  ready_members_.clear();
  requested_missing_check_.clear();
  gather_alive_ = {node_};
  gather_highest_seq_ = highest_seen_seq_;
  gather_highest_view_ = ever_installed_ ? view_.id.value : 0;
  broadcast_join();
  settle_timer_ = sim_.schedule(kJoinSettle, [this] { settle_elapsed(); });

  // Periodic re-gossip guards against lost Join frames.
  auto regossip = [this](auto&& self_fn) -> void {
    if (state_ != State::kGather) return;
    broadcast_join();
    rebroadcast_timer_ =
        sim_.schedule(kJoinRebroadcast, [this, self_fn] { self_fn(self_fn); });
  };
  rebroadcast_timer_ =
      sim_.schedule(kJoinRebroadcast, [this, regossip] { regossip(regossip); });
}

void TotemNode::broadcast_join() {
  JoinFrame f;
  f.alive = sorted(gather_alive_);
  f.highest_seq = gather_highest_seq_;
  f.highest_view = gather_highest_view_;
  f.ring_id = ever_installed_ ? view_.ring_id : 0;
  broadcast(encode_frame(node_, f));
}

void TotemNode::handle_join(NodeId from, const JoinFrame& f) {
  if (state_ == State::kOperational || state_ == State::kJoining ||
      state_ == State::kRecovery) {
    enter_gather();
  }
  if (state_ != State::kGather) return;

  bool grew = gather_alive_.insert(from).second;
  for (NodeId n : f.alive) grew |= gather_alive_.insert(n).second;
  if (ever_installed_ && f.ring_id == view_.ring_id) {
    gather_highest_seq_ = std::max(gather_highest_seq_, f.highest_seq);
  }
  gather_highest_view_ = std::max(gather_highest_view_, f.highest_view);
  if (grew) {
    broadcast_join();
    sim_.cancel(settle_timer_);
    settle_timer_ = sim_.schedule(kJoinSettle, [this] { settle_elapsed(); });
  }
}

void TotemNode::settle_elapsed() {
  if (state_ != State::kGather) return;
  const NodeId leader = *gather_alive_.begin();
  arm_recovery_timer();
  if (leader != node_) return;  // wait for the leader's Commit

  CommitFrame commit;
  commit.new_view = ViewId{std::max(gather_highest_view_, view_.id.value) + 1};
  commit.members = sorted(gather_alive_);
  commit.base_seq = std::max(gather_highest_seq_, highest_seen_seq_);
  commit.surviving_ring = ever_installed_ ? view_.ring_id : 0;
  commit.surviving_ancestors.assign(ancestor_rings_.begin(), ancestor_rings_.end());
  broadcast(encode_frame(node_, commit));
  handle_commit(node_, commit);
}

void TotemNode::handle_commit(NodeId /*from*/, const CommitFrame& f) {
  if (state_ == State::kDown) return;
  if (commit_.has_value() && commit_->new_view.value >= f.new_view.value) return;
  const bool included =
      std::find(f.members.begin(), f.members.end(), node_) != f.members.end();
  if (!included) {
    // Excluded from the ring: fall back to joining from scratch, carrying
    // our unsequenced messages with us.
    ETERNAL_LOG(kWarn, kTag, util::to_string(node_) << " excluded from commit; rejoining");
    auto unsent = std::move(send_queue_);
    crash();
    join();
    send_queue_ = std::move(unsent);
    return;
  }
  state_ = State::kRecovery;
  sim_.cancel(settle_timer_);
  sim_.cancel(rebroadcast_timer_);
  sim_.cancel(join_request_timer_);
  commit_ = f;
  ready_members_.clear();
  arm_recovery_timer();

  // Partition merge: only the leader's ring's history survives. A member
  // arriving from any other ring re-enters fresh (its sequence numbering is
  // incomparable); Eternal-level mechanisms rebuild its replicas' state.
  const bool same_lineage =
      f.surviving_ring == view_.ring_id || known_ancestor(f.surviving_ring) ||
      std::find(f.surviving_ancestors.begin(), f.surviving_ancestors.end(),
                view_.ring_id) != f.surviving_ancestors.end();
  if (ever_installed_ && !same_lineage) {
    ETERNAL_LOG(kInfo, kTag,
                util::to_string(node_) << " merging from ring " << view_.ring_id
                                       << " into foreign ring; demoting to fresh");
    fresh_member_ = true;
    store_.clear();
    partial_.clear();
    // send_queue_ survives: unsequenced messages belong to no ring and are
    // submitted to the merged ring.
    delivered_up_to_ = 0;
    highest_seen_seq_ = 0;
    ancestor_rings_.clear();
  } else if (ever_installed_ && f.surviving_ring != view_.ring_id) {
    // Rejoining a descendant of our own ring: the commit proved its
    // numbering continues ours, so adopt its lineage. Without this the
    // retransmissions that close our gap arrive stamped with the descendant
    // ring and handle_data would drop them — recovery could never finish.
    // The leader's list arrives oldest -> newest; replaying it in order and
    // appending the surviving ring last keeps our window recency-ordered.
    for (std::uint64_t ring : f.surviving_ancestors) remember_ancestor(ring);
    remember_ancestor(f.surviving_ring);
    // Store hygiene: anything we hold above the merged base was sequenced
    // by our pre-merge ring at numbers the descendant never counted (our
    // join reported them under the old ring id) and may reassign. Keeping
    // them would make handle_data drop the legitimate reassigned frames as
    // duplicates — the stale-store hazard.
    if (const std::uint64_t discarded = store_.erase_above(f.base_seq); discarded > 0) {
      ETERNAL_LOG(kInfo, kTag,
                  util::to_string(node_) << " discarding " << discarded
                                         << " stale held frames above base " << f.base_seq);
      stats_.stale_frames_discarded += discarded;
      rec_.record(node_, obs::Layer::kTotem, "stale_discard", f.base_seq,
                  {{"count", discarded}});
    }
  }
  // Divergence safety net: we delivered past the ring's agreed history.
  if (delivered_up_to_ > f.base_seq) {
    ETERNAL_LOG(kWarn, kTag,
                util::to_string(node_) << " diverged (delivered " << delivered_up_to_
                                       << " > base " << f.base_seq << "); demoting to fresh");
    fresh_member_ = true;
    store_.clear();
    partial_.clear();
  }
  send_ready();
}

std::vector<std::uint64_t> TotemNode::compute_missing(std::uint64_t up_to) const {
  std::vector<std::uint64_t> missing;
  if (fresh_member_) return missing;
  for (std::uint64_t seq = delivered_up_to_ + 1;
       seq <= up_to && missing.size() < kMaxRtrPerToken; ++seq) {
    if (!store_.contains(seq)) missing.push_back(seq);
  }
  return missing;
}

void TotemNode::send_ready() {
  if (!commit_.has_value()) return;
  ReadyFrame f;
  f.new_view = commit_->new_view;
  f.missing = compute_missing(commit_->base_seq);
  requested_missing_check_ = f.missing;
  // Advertise digests of the undelivered frames we already hold so members
  // that delivered those sequence numbers can validate them — a held frame
  // from a superseded lineage is detected and corrected by an authoritative
  // rebroadcast instead of silently shadowing the agreed message.
  if (!fresh_member_) {
    store_.for_each_in(delivered_up_to_ + 1, commit_->base_seq, [&](const DataFrame& held) {
      if (f.held_seqs.size() >= kMaxRtrPerToken) return false;
      f.held_seqs.push_back(held.seq);
      f.held_digests.push_back(util::fnv1a(held.payload));
      return true;
    });
  }
  broadcast(encode_frame(node_, f));
  if (f.missing.empty()) {
    ready_members_.insert(node_);
    maybe_install();
  }
}

void TotemNode::handle_ready(NodeId from, const ReadyFrame& f) {
  if (state_ != State::kRecovery || !commit_.has_value()) return;
  if (f.new_view != commit_->new_view) return;
  // Serve-side validation of the reporter's held frames: for any sequence
  // number we have *delivered*, our copy is the agreed message. A digest
  // mismatch means the reporter holds a stale frame (a superseded lineage's
  // assignment); rebroadcast the authoritative copy so its handle_data can
  // replace it before the view installs.
  for (std::size_t i = 0; i < f.held_seqs.size(); ++i) {
    const std::uint64_t seq = f.held_seqs[i];
    if (seq > delivered_up_to_) continue;  // not delivered here: no authority
    DataFrame* held = store_.find(seq);
    if (held == nullptr) continue;  // garbage-collected
    if (util::fnv1a(held->payload) == f.held_digests[i]) continue;
    retransmit(*held, /*trace=*/nullptr);  // authoritative: seq <= delivered_up_to_
    stats_.stale_rebroadcasts += 1;
    rec_.record(node_, obs::Layer::kTotem, "stale_rebroadcast", seq,
                {{"reporter", from.value}});
  }
  if (f.missing.empty()) {
    ready_members_.insert(from);
    maybe_install();
    return;
  }
  // Serve what we hold.
  for (std::uint64_t seq : f.missing) {
    if (DataFrame* held = store_.find(seq)) retransmit(*held, /*trace=*/"retransmit");
  }
}

void TotemNode::maybe_install() {
  if (state_ != State::kRecovery || !commit_.has_value()) return;
  if (*commit_->members.begin() != node_) return;  // only the leader installs
  for (NodeId m : commit_->members) {
    if (ready_members_.count(m) == 0) return;
  }
  InstallFrame f;
  f.new_view = commit_->new_view;
  f.members = commit_->members;
  f.next_seq = commit_->base_seq + 1;
  broadcast(encode_frame(node_, f));
  install_view(f);
}

void TotemNode::handle_install(NodeId /*from*/, const InstallFrame& f) {
  if (state_ == State::kDown) return;
  if (ever_installed_ && f.new_view.value <= view_.id.value) return;
  const bool included =
      std::find(f.members.begin(), f.members.end(), node_) != f.members.end();
  if (!included) {
    auto unsent = std::move(send_queue_);
    crash();
    join();
    send_queue_ = std::move(unsent);
    return;
  }
  install_view(f);
}

void TotemNode::install_view(const InstallFrame& f) {
  if (state_ == State::kOperational && ever_installed_ && f.new_view.value <= view_.id.value) {
    return;
  }

  View next;
  next.id = f.new_view;
  {
    util::CdrWriter idw;
    idw.put_u64(f.new_view.value);
    for (NodeId m : f.members) idw.put_u32(m.value);
    // Multi-ring: two rings of the same sharded system have the same
    // membership and march through the same view counters, so the identity
    // must be salted with the ring index or their frames would alias in any
    // cross-ring trace analysis. Conditional so single-ring identities (and
    // every recorded trace of a single-ring run) are unchanged.
    if (config_.ring_index != 0) idw.put_u32(config_.ring_index);
    next.ring_id = util::fnv1a(idw.bytes());
  }
  next.members = f.members;
  // Bootstrap is the system's very first view, not a history-losing rejoin.
  next.self_rejoined_fresh = fresh_member_ && !bootstrapping_;
  for (NodeId m : f.members) {
    if (std::find(view_.members.begin(), view_.members.end(), m) == view_.members.end()) {
      next.joined.push_back(m);
    }
  }
  for (NodeId m : view_.members) {
    if (std::find(f.members.begin(), f.members.end(), m) == f.members.end()) {
      next.departed.push_back(m);
    }
  }
  if (!ever_installed_) next.joined = f.members;

  if (delivered_up_to_ < f.next_seq - 1) {
    if (!fresh_member_) {
      ETERNAL_LOG(kWarn, kTag,
                  util::to_string(node_) << " installed view while missing messages");
    }
    delivered_up_to_ = f.next_seq - 1;
  }
  // Reassembly state from members that left or re-entered is stale.
  for (NodeId m : next.departed) {
    std::erase_if(partial_, [m](const auto& kv) { return kv.first.first == m.value; });
  }
  for (NodeId m : next.joined) {
    std::erase_if(partial_, [m](const auto& kv) { return kv.first.first == m.value; });
  }

  if (ever_installed_) remember_ancestor(view_.ring_id);
  view_ = next;
  ever_installed_ = true;
  fresh_member_ = false;
  // delivered_up_to_ may have jumped at install; don't count that as drain.
  last_visit_delivered_ = delivered_up_to_;
  recovery_stalls_ = 0;
  last_stall_missing_ = 0;
  state_ = State::kOperational;
  stats_.view_changes += 1;
  rec_.record(node_, obs::Layer::kTotem, "view_install", view_.id.value,
              {{"ring", view_.ring_id},
               {"members", view_.members.size()},
               {"joined", view_.joined.size()},
               {"departed", view_.departed.size()},
               obs::when(config_.ring_index != 0, {"rix", config_.ring_index})});
  if (gather_span_ != 0) {
    if (obs::SpanStore* spans = rec_.spans()) {
      spans->end(gather_span_, sim_.now(),
                 {{"view", view_.id.value}, {"members", view_.members.size()}});
    }
    gather_span_ = 0;
  }
  sim_.cancel(settle_timer_);
  sim_.cancel(rebroadcast_timer_);
  sim_.cancel(recovery_timer_);
  sim_.cancel(join_request_timer_);
  commit_.reset();
  ready_members_.clear();
  arm_token_timer();

  ETERNAL_LOG(kDebug, kTag,
              util::to_string(node_) << " installed view " << f.new_view.value << " with "
                                     << f.members.size() << " members");

  listener_->on_view_change(view_);

  // The leader regenerates the token for the new ring.
  if (view_.members.front() == node_) {
    TokenFrame token;
    token.view = view_.id;
    token.ring_id = view_.ring_id;
    token.target = node_;
    token.next_seq = f.next_seq;
    token.aru = f.next_seq - 1;
    token.aru_setter = node_;
    const ViewId expected = view_.id;
    sim_.schedule(Duration::zero(), [this, token, expected] {
      if (state_ == State::kOperational && view_.id == expected) handle_token(node_, token);
    });
  }
}

void TotemNode::arm_recovery_timer() {
  sim_.cancel(recovery_timer_);
  recovery_timer_ = sim_.schedule(kRecoveryTimeout, [this] {
    if (state_ != State::kGather && state_ != State::kRecovery) return;
    // Liveness guard: a member whose missing messages have no surviving
    // holder (the ring moved on without it and garbage-collected them)
    // would stall reformation forever — every re-gather recommits the same
    // base_seq and the same unservable missing set. After repeated rounds
    // with no progress it gives up stream continuity and rejoins fresh;
    // Eternal's state transfer rebuilds its replicas' state above Totem.
    if (state_ == State::kRecovery && commit_.has_value() && !fresh_member_) {
      const std::size_t missing = compute_missing(commit_->base_seq).size();
      if (missing > 0 && missing == last_stall_missing_ &&
          ++recovery_stalls_ >= kMaxRecoveryStalls) {
        ETERNAL_LOG(kWarn, kTag,
                    util::to_string(node_)
                        << " recovery stalled " << recovery_stalls_ << "x on "
                        << missing << " unservable messages; demoting to fresh");
        fresh_member_ = true;
        // Keep entries at or below the commit base for serving other
        // recovering members; anything above it belongs to a sequence range
        // the reformed ring may reassign and must not be replayed.
        store_.erase_above(commit_->base_seq);
        partial_.clear();
        stats_.forced_demotions += 1;
        recovery_stalls_ = 0;
        last_stall_missing_ = 0;
        rec_.record(node_, obs::Layer::kTotem, "forced_fresh", view_.id.value,
                    {{"missing", missing}});
      } else if (missing != last_stall_missing_) {
        recovery_stalls_ = missing > 0 ? 1 : 0;
        last_stall_missing_ = missing;
      }
    }
    ETERNAL_LOG(kDebug, kTag, util::to_string(node_) << " recovery timeout -> re-gather");
    enter_gather();
  });
}

void TotemNode::handle_join_request(NodeId from) {
  if (state_ == State::kOperational) {
    ETERNAL_LOG(kDebug, kTag,
                util::to_string(node_) << " join request from " << util::to_string(from));
    enter_gather();
  }
}

}  // namespace eternal::totem
