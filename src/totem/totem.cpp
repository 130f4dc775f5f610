#include "totem/totem.hpp"

#include <algorithm>
#include <cassert>
#include <iterator>
#include <stdexcept>

#include "obs/spans.hpp"

namespace eternal::totem {

namespace {
constexpr const char* kTag = "totem";

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
      ctr_tokens_(rec_.counter("totem.tokens_handled")),
      ctr_deliveries_(rec_.counter("totem.deliveries")),
      ctr_retransmissions_(rec_.counter("totem.retransmissions")),
      ctr_view_installs_(rec_.counter("totem.view_installs")),
      ctr_gathers_(rec_.counter("totem.gathers")),
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

void TotemNode::broadcast(util::Bytes frame) { ethernet_.broadcast(node_, std::move(frame)); }

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
    join_request_timer_ = sim_.schedule(config_.join_request_interval,
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
  // msg_ids restart at 1 after a crash, so pending span bookkeeping must not
  // survive into the next incarnation.
  if (obs::SpanStore* spans = rec_.spans()) {
    for (const auto& [msg, span] : frag_spans_)
      spans->end(span, sim_.now(), "crashed=1");
    if (gather_span_ != 0) spans->end(gather_span_, sim_.now(), "crashed=1");
  }
  frag_spans_.clear();
  gather_span_ = 0;
  next_msg_id_ = 1;
  highest_seen_seq_ = 0;
  adaptive_window_ = 1;
  queue_wait_ewma_ = 0;
  drain_ewma16_ = 0;
  last_visit_delivered_ = 0;
  recovery_stalls_ = 0;
  last_stall_missing_ = 0;
  held_token_.reset();
  gather_alive_.clear();
  gather_highest_seq_ = 0;
  gather_highest_view_ = 0;
  commit_.reset();
  ready_members_.clear();
  last_heard_.clear();
  ancestor_rings_.clear();
  fresh_member_ = true;
}

void TotemNode::multicast(util::Bytes payload) {
  if (state_ == State::kDown) throw std::logic_error("TotemNode: multicast() while down");
  const std::size_t cap = fragment_capacity();
  const std::uint64_t msg_id = next_msg_id_++;
  const std::size_t count = payload.empty() ? 1 : (payload.size() + cap - 1) / cap;
  for (std::size_t i = 0; i < count; ++i) {
    PendingFragment frag;
    frag.msg_id = msg_id;
    frag.frag_index = static_cast<std::uint32_t>(i);
    frag.frag_count = static_cast<std::uint32_t>(count);
    const std::size_t begin = i * cap;
    const std::size_t end = std::min(payload.size(), begin + cap);
    frag.payload.assign(payload.begin() + static_cast<std::ptrdiff_t>(begin),
                        payload.begin() + static_cast<std::ptrdiff_t>(end));
    frag.enqueued_at = sim_.now();
    send_queue_.push_back(std::move(frag));
  }
  stats_.multicasts += 1;
  if (obs::SpanStore* spans = rec_.spans(); spans != nullptr && count > 1) {
    // Track a fragmented message (a large state transfer, typically) from
    // submission until its last fragment is originated on the ring.
    frag_spans_[msg_id] =
        spans->begin(0, 0, node_, obs::Layer::kTotem, "fragmented-send", sim_.now(),
                     "msg=" + std::to_string(msg_id) +
                         " frags=" + std::to_string(count) +
                         " bytes=" + std::to_string(payload.size()));
  }
}

// ---------------------------------------------------------------- frame I/O

void TotemNode::on_frame(NodeId from, util::BytesView raw) {
  if (state_ == State::kDown) return;
  std::optional<Frame> frame = decode_frame(raw);
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
      if (rec_.tracing()) {
        rec_.record(node_, obs::Layer::kTotem, "stale_replace", f.seq,
                    "ring=" + std::to_string(f.ring_id));
      }
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
  // asserts per node and cross-checks across the ring.
  if (rec_.tracing()) {
    rec_.record(node_, obs::Layer::kTotem, "deliver", f.seq,
                "ring=" + std::to_string(f.ring_id) +
                    " view=" + std::to_string(f.view.value) +
                    " origin=" + std::to_string(f.origin.value) +
                    " digest=" + std::to_string(util::fnv1a(f.payload)) +
                    " size=" + std::to_string(f.payload.size()) +
                    (f.batch_count >= 2 ? " batch=" + std::to_string(f.batch_count) : ""));
  }
  // Deliveries lend the payload: `f` stays in the store (its slot never
  // moves) until garbage collection, which never runs inside a callback.
  if (f.batch_count >= 2) {
    // A batched frame: unpack back into the individual messages, delivered in
    // the origin's submission order under the frame's one sequence number —
    // so per-sender FIFO and the agreed total order both survive batching.
    std::optional<std::vector<util::BytesView>> msgs = unpack_batch(f.payload, f.batch_count);
    if (!msgs) {
      // The packed blob is the sequenced bytes themselves, so a malformed
      // batch decodes identically everywhere: every member drops it, like a
      // bad-FCS frame that somehow carried a valid header.
      ETERNAL_LOG(kWarn, kTag,
                  util::to_string(node_) << " malformed batch at seq " << f.seq);
      return;
    }
    for (util::BytesView m : *msgs) deliver(Delivery{f.origin, f.view, f.seq, m});
    return;
  }
  if (f.frag_count <= 1) {
    deliver(Delivery{f.origin, f.view, f.seq, f.payload});
    return;
  }
  const auto key = std::make_pair(f.origin.value, f.msg_id);
  util::Bytes& acc = partial_[key];
  util::append(acc, f.payload);
  if (f.frag_index + 1 == f.frag_count) {
    const util::Bytes whole = std::move(acc);
    partial_.erase(key);
    deliver(Delivery{f.origin, f.view, f.seq, whole});
  }
}

void TotemNode::deliver(const Delivery& d) {
  stats_.deliveries += 1;
  ctr_deliveries_.add();
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
  stats_.tokens_handled += 1;
  ctr_tokens_.add();  // rotation volume is metered, never traced

  // Drain rate: messages this member delivered since its previous token
  // visit (one ring rotation), smoothed. Feeds the proportional
  // backpressure controller. Fixed-point ×16, integer EWMA alpha = 1/4.
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
  if (delivered_up_to_ < token.aru) {
    token.aru = delivered_up_to_;
    token.aru_setter = node_;
  } else if (token.aru_setter == node_) {
    token.aru = delivered_up_to_;
  }
  if (token.aru > config_.gc_margin) store_.erase_below(token.aru - config_.gc_margin);

  // 5. Pass to the successor.
  pass_token(std::move(token), /*idle=*/!did_work && send_queue_.empty());
}

void TotemNode::send_fragments(TokenFrame& token) {
  if (config_.adaptive_batching) update_adaptive_window();

  // A foreign flow budget caps how many frames we may originate this visit
  // (we honour our own budget too: our sends feed the same backlog).
  std::size_t budget = config_.max_frags_per_token;
  const bool foreign_budget = token.flow_budget != 0 && token.flow_setter != node_;
  if (token.flow_budget != 0) budget = std::min(budget, std::size_t{token.flow_budget});

  const std::size_t window = batch_window();
  const std::size_t cap = fragment_capacity();
  const std::size_t byte_limit =
      config_.max_batch_bytes == 0 ? cap : std::min(config_.max_batch_bytes, cap);

  std::size_t sent = 0;
  while (!send_queue_.empty() && sent < budget) {
    // Multi-fragment messages always travel alone: reassembly keys on
    // (origin, msg_id), and a batch carries complete messages only.
    if (window <= 1 || send_queue_.front().frag_count > 1) {
      PendingFragment frag = std::move(send_queue_.front());
      send_queue_.pop_front();
      note_queue_wait(frag.enqueued_at);
      DataFrame f;
      f.view = view_.id;
      f.ring_id = view_.ring_id;
      f.origin = node_;
      f.seq = token.next_seq++;
      f.msg_id = frag.msg_id;
      f.frag_index = frag.frag_index;
      f.frag_count = frag.frag_count;
      f.payload = std::move(frag.payload);
      const bool last_fragment = f.frag_index + 1 == f.frag_count;
      const std::uint64_t msg_id = f.msg_id;
      hist_batch_msgs_.observe(1);
      hist_batch_bytes_.observe(f.payload.size());
      originate(std::move(f));
      if (last_fragment) {
        if (auto it = frag_spans_.find(msg_id); it != frag_spans_.end()) {
          if (obs::SpanStore* spans = rec_.spans())
            spans->end(it->second, sim_.now());
          frag_spans_.erase(it);
        }
      }
      ++sent;
      continue;
    }

    // Batch path: greedily coalesce queued complete messages, FIFO, until the
    // window or byte budget fills or a fragmented message blocks the queue.
    std::vector<util::Bytes> msgs;
    std::uint64_t first_msg_id = 0;
    TimePoint oldest{};
    std::size_t packed = 0;
    while (!send_queue_.empty() && msgs.size() < window &&
           send_queue_.front().frag_count <= 1) {
      const std::size_t grown = packed_batch_size(packed, send_queue_.front().payload.size());
      if (!msgs.empty() && grown > byte_limit) break;
      PendingFragment frag = std::move(send_queue_.front());
      send_queue_.pop_front();
      note_queue_wait(frag.enqueued_at);
      if (msgs.empty()) {
        first_msg_id = frag.msg_id;
        oldest = frag.enqueued_at;
      }
      packed = grown;
      msgs.push_back(std::move(frag.payload));
      // A lone message the wrapping would push past the limit travels as a
      // plain frame below (no length prefix, so it still fits the MTU).
      if (packed > byte_limit) break;
    }

    DataFrame f;
    f.view = view_.id;
    f.ring_id = view_.ring_id;
    f.origin = node_;
    f.seq = token.next_seq++;
    f.msg_id = first_msg_id;
    if (msgs.size() == 1) {
      f.payload = std::move(msgs.front());  // wire-identical to an unbatched send
    } else {
      f.batch_count = static_cast<std::uint32_t>(msgs.size());
      f.payload = pack_batch(msgs);
      stats_.batches_sent += 1;
      stats_.batched_messages += msgs.size();
      if (obs::SpanStore* spans = rec_.spans()) {
        // The batch span covers the coalescing window: oldest member's
        // submission until the whole batch is originated here.
        const std::uint64_t span = spans->begin(
            0, 0, node_, obs::Layer::kTotem, "batch", oldest,
            "msgs=" + std::to_string(msgs.size()) +
                " bytes=" + std::to_string(f.payload.size()));
        spans->end(span, sim_.now());
      }
    }
    hist_batch_msgs_.observe(msgs.size());
    hist_batch_bytes_.observe(f.payload.size());
    originate(std::move(f));
    ++sent;
  }
  if (foreign_budget && sent >= budget && !send_queue_.empty()) {
    stats_.backpressure_throttled += 1;
  }
  advance_delivery();
}

void TotemNode::originate(DataFrame f) {
  broadcast(encode_frame(node_, f));
  stats_.fragments_sent += 1;
  highest_seen_seq_ = std::max(highest_seen_seq_, f.seq);
  store_.insert(std::move(f));  // self-delivery
}

std::size_t TotemNode::batch_window() const noexcept {
  if (config_.max_batch_msgs <= 1) return 1;
  return config_.adaptive_batching ? adaptive_window_ : config_.max_batch_msgs;
}

void TotemNode::note_queue_wait(TimePoint enqueued_at) {
  if (!config_.adaptive_batching) return;
  const std::int64_t wait = (sim_.now() - enqueued_at).count();
  // Integer EWMA, alpha = 1/4: reacts within a few token rotations.
  queue_wait_ewma_ += (wait - queue_wait_ewma_) / 4;
}

void TotemNode::update_adaptive_window() {
  const std::int64_t target = config_.adaptive_wait_target.count();
  if (queue_wait_ewma_ > target || send_queue_.size() > adaptive_window_ * 2) {
    // Backlog: pack dense, so each token visit moves more messages.
    adaptive_window_ = std::min(adaptive_window_ * 2, config_.max_batch_msgs);
  } else if (queue_wait_ewma_ < target / 4 && send_queue_.size() <= adaptive_window_) {
    // Idle: drain fast, so a lone message never waits for company.
    adaptive_window_ = std::max<std::size_t>(adaptive_window_ / 2, 1);
  }
}

void TotemNode::apply_backpressure(TokenFrame& token) {
  // Congested: the gap between the ring's assigned sequence numbers and what
  // we have delivered outgrew the window we can recover through rtr.
  const std::uint64_t assigned = token.next_seq - 1;
  const bool congested = assigned > delivered_up_to_ &&
                         assigned - delivered_up_to_ > config_.backpressure_gap;
  std::uint32_t budget = static_cast<std::uint32_t>(config_.backpressure_budget);
  if (congested && config_.proportional_backpressure) {
    // Proportional controller: size the ring's per-member budget so total
    // origination tracks our drain rate minus a term that pays the excess
    // gap down — instead of the fixed on/off step, whose full-rate release
    // immediately re-congests us and causes a throughput sawtooth.
    const std::uint64_t excess = assigned - delivered_up_to_ - config_.backpressure_gap;
    const std::uint64_t drain_per_rotation = drain_ewma16_ / 16;
    const std::uint64_t paydown = excess / 16;
    const std::uint64_t sendable =
        drain_per_rotation > paydown ? drain_per_rotation - paydown : 0;
    const std::size_t members = view_.members.empty() ? 1 : view_.members.size();
    budget = static_cast<std::uint32_t>(
        std::max<std::uint64_t>(config_.backpressure_min_budget, sendable / members));
  }
  if (congested) {
    // Lower-only, like aru: a budget may shrink mid-rotation, never grow.
    if (token.flow_budget == 0 || budget < token.flow_budget) {
      token.flow_budget = budget;
      token.flow_setter = node_;
      stats_.backpressure_sets += 1;
      if (rec_.tracing()) {
        rec_.record(node_, obs::Layer::kTotem, "backpressure", token.flow_budget,
                    "gap=" + std::to_string(assigned - delivered_up_to_));
      }
    }
  } else if (token.flow_setter == node_ && token.flow_budget != 0) {
    // Recovered: only the setter releases the ring.
    token.flow_budget = 0;
    token.flow_setter = NodeId{};
    if (rec_.tracing()) {
      rec_.record(node_, obs::Layer::kTotem, "backpressure_clear", 0,
                  "delivered=" + std::to_string(delivered_up_to_));
    }
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
  broadcast(encode_frame(node_, held));
  stats_.retransmissions += 1;
  ctr_retransmissions_.add();
  if (rec_.tracing() && trace != nullptr) {
    rec_.record(node_, obs::Layer::kTotem, trace, held.seq,
                "ring=" + std::to_string(held.ring_id));
  }
}

void TotemNode::request_missing(TokenFrame& token) {
  for (std::uint64_t seq = delivered_up_to_ + 1;
       seq < token.next_seq && token.rtr.size() < config_.max_rtr_per_token; ++seq) {
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
  const Duration delay = idle ? config_.idle_pass_delay : Duration::zero();
  const ViewId expected_view = view_.id;
  if (token.target == node_) {
    // Single-member ring: the token cannot traverse the medium back to us, so
    // it waits in held_token_ (cleared by gather and crash, like the timer).
    held_token_ = std::move(token);
    pass_timer_ = sim_.schedule(std::max(delay, config_.idle_pass_delay), [this, expected_view] {
      if (state_ == State::kOperational && view_.id == expected_view && held_token_) {
        TokenFrame parked = std::move(*held_token_);
        held_token_.reset();
        arm_token_timer();
        handle_token(node_, std::move(parked));
      }
    });
    return;
  }
  // Encoded now, sent when the timer fires: the event then carries only the
  // wire bytes. The token cannot change in between, so the bytes are the same.
  pass_timer_ = sim_.schedule(delay, [this, wire = encode_frame(node_, token),
                                      expected_view]() mutable {
    if (state_ == State::kOperational && view_.id == expected_view) broadcast(std::move(wire));
  });
}

void TotemNode::arm_token_timer() {
  sim_.cancel(token_timer_);
  token_timer_ = sim_.schedule(config_.token_timeout, [this] {
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
  ctr_gathers_.add();
  // Multi-ring: a nonzero ring index rides along so reformation activity is
  // attributable to one ring of a sharded system (absent = ring 0 / classic
  // single ring; the bystander-isolation chaos verdict keys on this).
  const std::string rix =
      config_.ring_index != 0 ? " rix=" + std::to_string(config_.ring_index) : "";
  if (rec_.tracing()) {
    rec_.record(node_, obs::Layer::kTotem, "gather", view_.id.value,
                "ring=" + std::to_string(view_.ring_id) + rix);
  }
  if (obs::SpanStore* spans = rec_.spans(); spans != nullptr && gather_span_ == 0) {
    // One reformation span per outage: re-entering gather (settle retries)
    // extends the open span rather than opening a new one.
    gather_span_ =
        spans->begin(0, 0, node_, obs::Layer::kTotem, "reformation", sim_.now(),
                     "ring=" + std::to_string(view_.ring_id) + rix);
  }
  sim_.cancel(token_timer_);
  sim_.cancel(pass_timer_);
  sim_.cancel(settle_timer_);
  sim_.cancel(rebroadcast_timer_);
  sim_.cancel(recovery_timer_);
  held_token_.reset();
  commit_.reset();
  ready_members_.clear();
  requested_missing_check_.clear();
  gather_alive_ = {node_};
  gather_highest_seq_ = highest_seen_seq_;
  gather_highest_view_ = ever_installed_ ? view_.id.value : 0;
  broadcast_join();
  settle_timer_ = sim_.schedule(config_.join_settle, [this] { settle_elapsed(); });

  // Periodic re-gossip guards against lost Join frames.
  auto regossip = [this](auto&& self_fn) -> void {
    if (state_ != State::kGather) return;
    broadcast_join();
    rebroadcast_timer_ =
        sim_.schedule(config_.join_rebroadcast, [this, self_fn] { self_fn(self_fn); });
  };
  rebroadcast_timer_ =
      sim_.schedule(config_.join_rebroadcast, [this, regossip] { regossip(regossip); });
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
    settle_timer_ = sim_.schedule(config_.join_settle, [this] { settle_elapsed(); });
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
      if (rec_.tracing()) {
        rec_.record(node_, obs::Layer::kTotem, "stale_discard", f.base_seq,
                    "count=" + std::to_string(discarded));
      }
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
       seq <= up_to && missing.size() < config_.max_rtr_per_token; ++seq) {
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
      if (f.held_seqs.size() >= config_.max_rtr_per_token) return false;
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
    if (rec_.tracing()) {
      rec_.record(node_, obs::Layer::kTotem, "stale_rebroadcast", seq,
                  "reporter=" + std::to_string(from.value));
    }
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
  ctr_view_installs_.add();
  if (rec_.tracing()) {
    rec_.record(node_, obs::Layer::kTotem, "view_install", view_.id.value,
                "ring=" + std::to_string(view_.ring_id) +
                    " members=" + std::to_string(view_.members.size()) +
                    " joined=" + std::to_string(view_.joined.size()) +
                    " departed=" + std::to_string(view_.departed.size()) +
                    (config_.ring_index != 0
                         ? " rix=" + std::to_string(config_.ring_index)
                         : ""));
  }
  if (gather_span_ != 0) {
    if (obs::SpanStore* spans = rec_.spans()) {
      spans->end(gather_span_, sim_.now(),
                 "view=" + std::to_string(view_.id.value) +
                     " members=" + std::to_string(view_.members.size()));
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
  recovery_timer_ = sim_.schedule(config_.recovery_timeout, [this] {
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
          ++recovery_stalls_ >= config_.max_recovery_stalls) {
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
        if (rec_.tracing()) {
          rec_.record(node_, obs::Layer::kTotem, "forced_fresh", view_.id.value,
                      "missing=" + std::to_string(missing));
        }
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
