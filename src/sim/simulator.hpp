// Deterministic discrete-event simulation core.
//
// Everything above the physical layer — Totem token rotation, ORB dispatch,
// replica execution, fault injection, recovery — runs as events on this one
// queue, in virtual time. Two runs with the same seed execute the identical
// event sequence, which is what makes the recovery experiments replayable.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <queue>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/trace.hpp"
#include "util/ids.hpp"
#include "util/time.hpp"

namespace eternal::sim {

using util::Duration;
using util::TimePoint;

/// Handle to a scheduled event, usable to cancel it (e.g. a fault-detector
/// timeout that is superseded by a heartbeat). The low 32 bits name a slab
/// slot (1-based), the high 32 bits the slot's generation when the event was
/// scheduled, so a stale handle never matches the slot's next occupant.
/// 0 names no event.
struct EventId {
  std::uint64_t value = 0;
  auto operator<=>(const EventId&) const = default;
};

/// Move-only `void()` callable with small-buffer storage. A callable up to
/// kInlineBytes (and no more aligned than max_align_t, nothrow-movable)
/// lives inside the object; anything larger is moved into one heap block.
/// Every event the hot path schedules — frame arrivals, token passes,
/// timers — captures a few pointers and ids, so scheduling one allocates
/// nothing.
class EventFn {
 public:
  static constexpr std::size_t kInlineBytes = 48;

  EventFn() noexcept = default;

  template <typename F>
    requires(!std::is_same_v<std::decay_t<F>, EventFn> &&
             std::is_invocable_r_v<void, std::decay_t<F>&>)
  EventFn(F&& f) {  // NOLINT: implicit, so call sites pass lambdas directly
    using Fn = std::decay_t<F>;
    if constexpr (fits_inline<Fn>()) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      ops_ = &kInlineOps<Fn>;
    } else {
      ::new (static_cast<void*>(buf_)) Fn*(new Fn(std::forward<F>(f)));
      ops_ = &kHeapOps<Fn>;
    }
  }

  EventFn(EventFn&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) {
      ops_->relocate(buf_, other.buf_);
      other.ops_ = nullptr;
    }
  }

  EventFn& operator=(EventFn&& other) noexcept {
    if (this != &other) {
      reset();
      if (other.ops_ != nullptr) {
        other.ops_->relocate(buf_, other.buf_);
        ops_ = std::exchange(other.ops_, nullptr);
      }
    }
    return *this;
  }

  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;
  ~EventFn() { reset(); }

  void operator()() { ops_->invoke(buf_); }

 private:
  /// True when a callable of type F is stored inline.
  template <typename F>
  static constexpr bool fits_inline() noexcept {
    return sizeof(F) <= kInlineBytes && alignof(F) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<F>;
  }

  /// Destroys the held callable (and frees its heap block, if any).
  void reset() noexcept {
    if (ops_ != nullptr) std::exchange(ops_, nullptr)->destroy(buf_);
  }

  struct Ops {
    void (*invoke)(void* self);
    /// Move-constructs into `dst` from `src`, then destroys `src`.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void* self) noexcept;
  };

  template <typename Fn>
  static constexpr Ops kInlineOps{
      [](void* self) { (*static_cast<Fn*>(self))(); },
      [](void* dst, void* src) noexcept {
        ::new (dst) Fn(std::move(*static_cast<Fn*>(src)));
        static_cast<Fn*>(src)->~Fn();
      },
      [](void* self) noexcept { static_cast<Fn*>(self)->~Fn(); }};

  template <typename Fn>
  static constexpr Ops kHeapOps{
      [](void* self) { (**static_cast<Fn**>(self))(); },
      [](void* dst, void* src) noexcept { ::new (dst) Fn*(*static_cast<Fn**>(src)); },
      [](void* self) noexcept { delete *static_cast<Fn**>(self); }};

  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

/// The event queue and virtual clock.
///
/// Events scheduled for the same instant fire in scheduling order (FIFO),
/// which keeps runs deterministic without relying on container tie-breaks.
class Simulator {
 public:
  Simulator() { recorder_.bind_clock(&now_); }
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current virtual time.
  TimePoint now() const noexcept { return now_; }

  /// Observability handle shared by every layer running on this simulator.
  /// Detached (and near-free) until a System attaches metrics/trace/span
  /// sinks. Span timestamps come from this virtual clock, so same-seed runs
  /// produce identical span trees (see obs/spans.hpp).
  obs::Recorder& recorder() noexcept { return recorder_; }
  const obs::Recorder& recorder() const noexcept { return recorder_; }

  /// Schedules `fn` to run `delay` from now. Negative delays clamp to zero.
  EventId schedule(Duration delay, EventFn fn);

  /// Schedules `fn` at an absolute instant (clamped to `now()`).
  EventId schedule_at(TimePoint when, EventFn fn);

  /// Schedules `fn` at the current instant, after every event already queued
  /// for now() (the FIFO tie-break). The deterministic yield point the
  /// execution engine uses to drain a backlog of parked work one event at a
  /// time instead of recursing through it.
  EventId defer(EventFn fn) {
    return schedule(Duration(0), std::move(fn));
  }

  /// Cancels a pending event; cancelling an already-fired or unknown event
  /// is a harmless no-op (the common race with timeouts).
  void cancel(EventId id);

  /// Runs the next event, if any. Returns false when the queue is empty.
  bool step();

  /// Runs events until the queue empties or `limit` events have fired.
  /// Returns the number of events executed.
  std::size_t run(std::size_t limit = kDefaultEventLimit);

  /// Runs events with timestamps <= `deadline`, then sets now() = deadline.
  void run_until(TimePoint deadline);

  /// Runs for `d` of virtual time from now.
  void run_for(Duration d) { run_until(now_ + d); }

  /// Number of events executed so far (diagnostic).
  std::uint64_t events_executed() const noexcept { return executed_; }

  /// True when no events are pending (cancelled ones do not count).
  bool idle() const noexcept { return pending_ == 0; }

  static constexpr std::size_t kDefaultEventLimit = 50'000'000;

 private:
  /// Queue entry. `slot`/`gen` name the slab slot; an entry whose
  /// generation no longer matches its slot was cancelled and is skipped.
  struct Entry {
    TimePoint when;
    std::uint64_t seq;  // FIFO tie-break
    std::uint32_t slot;
    std::uint32_t gen;
  };
  /// One slab slot. `gen` advances every time the slot's event fires or is
  /// cancelled, which retires every handle and queue entry naming it.
  struct Slot {
    EventFn fn;
    std::uint32_t gen = 0;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const noexcept {
      return a.when != b.when ? a.when > b.when : a.seq > b.seq;
    }
  };

  bool fire_next();
  /// Pops cancelled entries off the top; true when a live entry remains.
  bool skip_cancelled();
  bool live(const Entry& e) const noexcept { return slots_[e.slot].gen == e.gen; }

  TimePoint now_{};
  obs::Recorder recorder_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::size_t pending_ = 0;  ///< scheduled, not yet fired or cancelled
  std::priority_queue<Entry, std::vector<Entry>, Later> queue_;
  std::vector<Slot> slots_;            ///< grows on demand, then reused
  std::vector<std::uint32_t> free_;    ///< indices of unoccupied slots
};

}  // namespace eternal::sim
