#include "sim/simulator.hpp"

namespace eternal::sim {

EventId Simulator::schedule(Duration delay, EventFn fn) {
  if (delay < Duration::zero()) delay = Duration::zero();
  return schedule_at(now_ + delay, std::move(fn));
}

EventId Simulator::schedule_at(TimePoint when, EventFn fn) {
  if (when < now_) when = now_;
  std::uint32_t slot;
  if (free_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_.back();
    free_.pop_back();
  }
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  queue_.push(Entry{when, next_seq_++, slot, s.gen});
  pending_ += 1;
  return EventId{(std::uint64_t{s.gen} << 32) | (std::uint64_t{slot} + 1)};
}

void Simulator::cancel(EventId id) {
  const std::uint64_t slot_plus_one = id.value & 0xFFFFFFFFu;
  if (slot_plus_one == 0 || slot_plus_one > slots_.size()) return;
  const auto slot = static_cast<std::uint32_t>(slot_plus_one - 1);
  Slot& s = slots_[slot];
  if (s.gen != static_cast<std::uint32_t>(id.value >> 32)) return;  // fired or stale
  // Retire the slot now; its queue entry stays behind until popped, where
  // the generation mismatch marks it cancelled. The handler is destroyed
  // last, once the slab is consistent: its captures' destructors may
  // schedule or cancel.
  const EventFn dropped = std::move(s.fn);
  s.gen += 1;
  free_.push_back(slot);
  pending_ -= 1;
}

bool Simulator::skip_cancelled() {
  while (!queue_.empty() && !live(queue_.top())) queue_.pop();
  return !queue_.empty();
}

bool Simulator::fire_next() {
  if (!skip_cancelled()) return false;
  const Entry top = queue_.top();
  queue_.pop();
  // Move the handler out and free its slot before running it: the handler
  // may schedule (growing the slab) or cancel its own, now stale, id.
  Slot& s = slots_[top.slot];
  EventFn fn = std::move(s.fn);
  s.gen += 1;
  free_.push_back(top.slot);
  pending_ -= 1;
  now_ = top.when;
  ++executed_;
  fn();
  return true;
}

bool Simulator::step() { return fire_next(); }

std::size_t Simulator::run(std::size_t limit) {
  std::size_t n = 0;
  while (n < limit && fire_next()) ++n;
  return n;
}

void Simulator::run_until(TimePoint deadline) {
  while (skip_cancelled() && queue_.top().when <= deadline) fire_next();
  if (now_ < deadline) now_ = deadline;
}

}  // namespace eternal::sim
