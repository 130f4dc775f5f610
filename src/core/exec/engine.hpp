// Per-replica locality scheduler for FOMs: admission slots, the position
// allocator, the in-order reply sequencer, and the state-op barrier.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "core/exec/fom.hpp"
#include "util/bytes.hpp"

namespace eternal::core::exec {

/// A servant reply handed to the sequencer: what the emitter needs to put
/// it on the ring once every earlier position has emitted.
struct Reply {
  util::GroupId client_group{};
  std::uint64_t op_seq = 0;
  std::uint64_t trace = 0;      ///< causal trace id (0 = untraced)
  std::uint64_t park_span = 0;  ///< open "reply-park" span, closed at emission
  util::Bytes payload;
};

/// Drains one replica's run queue through the FOM phase table.
///
/// Admission: at most `concurrency` FOMs are in flight; positions are
/// assigned at admission, so position order equals run-queue (total-order)
/// order and is gap-free across every admitted FOM. At concurrency 1 this
/// is the paper's synchronous upcall: one request executes at a time.
///
/// Retirement: `finish` frees the slot immediately (later requests may start
/// executing) but emits the reply only when every earlier position has
/// emitted. A reply whose position is next is emitted inline; out-of-order
/// completions park, and the completion of the blocking position flushes
/// them in order. The bookkeeping reuses vector capacity, so admitting and
/// retiring in order allocates nothing once warm.
///
/// Quiescence (§5): a fabricated state operation runs as a barrier, admitted
/// only when idle — no FOM executing (oneways in their grace period
/// included), no reply parked. It takes no position, emits nothing and is
/// not counted in Stats.
class ReplicaEngine {
 public:
  struct Stats {
    std::uint64_t admitted = 0;
    std::uint64_t retired = 0;
    std::uint64_t replies_parked = 0;  ///< completed out of order, held for position
    std::size_t max_inflight = 0;
    std::size_t max_parked = 0;
    // Cumulative per-phase residency across every finished FOM, from the
    // phase-entry instants stamped on the Fom (critical-path attribution).
    util::Duration decode_time{};   ///< kDecode → kExecute
    util::Duration execute_time{};  ///< kExecute → kLog (oneways: → retirement)
    util::Duration log_time{};      ///< kLog → kReply
    util::Duration park_time{};     ///< kReply → in-order emission
  };

  explicit ReplicaEngine(std::size_t concurrency)
      : concurrency_(concurrency == 0 ? 1 : concurrency) {}

  ReplicaEngine(const ReplicaEngine&) = delete;
  ReplicaEngine& operator=(const ReplicaEngine&) = delete;

  std::size_t concurrency() const noexcept { return concurrency_; }
  /// Requests in flight (a barrier is not one).
  std::size_t inflight() const noexcept { return inflight_.size(); }
  std::size_t parked() const noexcept { return parked_.size(); }
  /// A two-way request is executing: its reply is still to come. A oneway
  /// holding its slot through the grace period produces none.
  bool awaiting_reply() const noexcept {
    for (const Fom& fom : inflight_) {
      if (fom.response_expected) return true;
    }
    return false;
  }
  /// Nothing executing and no reply parked: the replica is quiescent.
  bool idle() const noexcept { return !barrier_ && inflight_.empty() && parked_.empty(); }
  /// Whether a FOM of `kind` may start now: a request needs a free slot, a
  /// state op (barrier) needs idle(); nothing starts beside a barrier.
  bool can_admit(FomKind kind = FomKind::kRequest) const noexcept {
    return kind == FomKind::kRequest ? !barrier_ && inflight_.size() < concurrency_ : idle();
  }
  const Stats& stats() const noexcept { return stats_; }

  /// Admits the next run-queue item as a FOM at `at` (its kDecode entry
  /// instant). Pre: can_admit(). The reference is valid until the next
  /// admit, finish or reset — copy what must outlive a call that can
  /// re-enter the engine.
  Fom& admit(util::GroupId client_group, std::uint64_t op_seq,
             const orb::Endpoint& reply_to, bool response_expected,
             util::TimePoint at);

  /// Admits `barrier`, a state-op FOM. Pre: idle().
  void admit_barrier(const Fom& barrier) { barrier_ = barrier; }
  /// Retires the barrier in flight and returns it.
  Fom finish_barrier() { return *std::exchange(barrier_, std::nullopt); }

  /// The in-flight FOM (request or barrier) a captured reply belongs to, by
  /// the ORB-visible (reply endpoint, request id) pair; nullptr when none
  /// matches.
  Fom* match(const orb::Endpoint& reply_to, std::uint64_t op_seq);

  /// The in-flight FOM at `position` (oneway grace retirement), or nullptr.
  Fom* find(std::uint64_t position);

  /// Removes `position` from the in-flight set at `at` and sequences its
  /// reply: `emit(Reply&)` runs now if every earlier position already
  /// emitted, otherwise the reply parks. Every parked reply that becomes
  /// next is then emitted in position order. The FOM's per-phase residencies
  /// fold into Stats here; a parked reply accrues Stats::park_time until the
  /// blocking position's finish flushes it.
  template <class Emit>
  void finish(std::uint64_t position, util::TimePoint at, Reply reply, Emit&& emit) {
    retire(position, at, std::optional<Reply>(std::move(reply)), emit);
  }

  /// Retires `position` without a reply (oneways, discarded items) but still
  /// advances the cursor, emitting any parked replies it was holding back.
  template <class Emit>
  void retire_immediate(std::uint64_t position, util::TimePoint at, Emit&& emit) {
    retire(position, at, std::nullopt, emit);
  }

  /// The replica process died: drops every in-flight FOM, the barrier and
  /// every parked reply.
  void reset();

 private:
  struct Parked {
    std::uint64_t position = 0;
    util::TimePoint since{};  ///< kReply entry: when the reply was handed over
    std::optional<Reply> reply;
  };

  template <class Emit>
  void retire(std::uint64_t position, util::TimePoint at, std::optional<Reply> reply,
              Emit& emit) {
    if (!settle(position, at, reply)) return;
    if (reply) emit(*reply);
    while (!parked_.empty() && parked_.front().position == next_retire_) {
      std::optional<Reply> next = std::move(parked_.front().reply);
      stats_.park_time += at - parked_.front().since;
      parked_.erase(parked_.begin());
      next_retire_ += 1;
      stats_.retired += 1;
      if (next) emit(*next);
    }
  }

  /// Takes `position` out of the in-flight set. Returns true when it is
  /// next in order (retired now; the caller emits); otherwise moves `reply`
  /// into the parking area, kept sorted by position, and returns false.
  bool settle(std::uint64_t position, util::TimePoint at, std::optional<Reply>& reply);
  void account(const Fom& fom, util::TimePoint at);

  std::size_t concurrency_;
  std::uint64_t next_position_ = 0;  ///< assigned at admission
  std::uint64_t next_retire_ = 0;    ///< lowest position not yet emitted
  std::vector<Fom> inflight_;        ///< admission order
  std::vector<Parked> parked_;       ///< ascending position
  std::optional<Fom> barrier_;       ///< the state op in flight
  Stats stats_;
};

}  // namespace eternal::core::exec
