// Discrete-event core: ordering, cancellation, determinism.
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <utility>
#include <vector>

#include "sim/simulator.hpp"

namespace eternal::sim {
namespace {

using util::Duration;
using util::TimePoint;

TEST(Simulator, EventsFireInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(Duration(300), [&] { order.push_back(3); });
  sim.schedule(Duration(100), [&] { order.push_back(1); });
  sim.schedule(Duration(200), [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), TimePoint(300));
}

TEST(Simulator, SameInstantIsFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule(Duration(50), [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  const EventId id = sim.schedule(Duration(10), [&] { fired = true; });
  sim.cancel(id);
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(Simulator, CancelUnknownOrFiredIsNoop) {
  Simulator sim;
  bool fired = false;
  const EventId id = sim.schedule(Duration(10), [&] { fired = true; });
  sim.run();
  EXPECT_TRUE(fired);
  sim.cancel(id);              // already fired
  sim.cancel(EventId{99999});  // never existed
}

TEST(Simulator, NestedSchedulingDuringEvent) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(Duration(10), [&] {
    order.push_back(1);
    sim.schedule(Duration(5), [&] { order.push_back(2); });
    sim.schedule(Duration::zero(), [&] { order.push_back(3); });
  });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
  EXPECT_EQ(sim.now(), TimePoint(15));
}

TEST(Simulator, RunUntilStopsAtDeadlineAndAdvancesClock) {
  Simulator sim;
  int count = 0;
  sim.schedule(Duration(100), [&] { ++count; });
  sim.schedule(Duration(200), [&] { ++count; });
  sim.run_until(TimePoint(150));
  EXPECT_EQ(count, 1);
  EXPECT_EQ(sim.now(), TimePoint(150));
  sim.run_until(TimePoint(250));
  EXPECT_EQ(count, 2);
}

TEST(Simulator, RunForIsRelative) {
  Simulator sim;
  sim.run_until(TimePoint(1000));
  int count = 0;
  sim.schedule(Duration(100), [&] { ++count; });
  sim.run_for(Duration(50));
  EXPECT_EQ(count, 0);
  sim.run_for(Duration(50));
  EXPECT_EQ(count, 1);
}

TEST(Simulator, NegativeDelayClampsToNow) {
  Simulator sim;
  sim.run_until(TimePoint(500));
  TimePoint fired_at{};
  sim.schedule(Duration(-100), [&] { fired_at = sim.now(); });
  sim.run();
  EXPECT_EQ(fired_at, TimePoint(500));
}

TEST(Simulator, RunHonorsEventLimit) {
  Simulator sim;
  std::function<void()> reschedule = [&] { sim.schedule(Duration(1), reschedule); };
  sim.schedule(Duration(1), reschedule);
  const std::size_t executed = sim.run(1000);
  EXPECT_EQ(executed, 1000u);
}

TEST(Simulator, IdleReflectsPendingWork) {
  Simulator sim;
  EXPECT_TRUE(sim.idle());
  const EventId id = sim.schedule(Duration(5), [] {});
  EXPECT_FALSE(sim.idle());
  sim.cancel(id);
  EXPECT_TRUE(sim.idle());
}

TEST(Simulator, StepExecutesExactlyOne) {
  Simulator sim;
  int count = 0;
  sim.schedule(Duration(1), [&] { ++count; });
  sim.schedule(Duration(2), [&] { ++count; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
  EXPECT_EQ(count, 2);
}

TEST(Simulator, StaleIdDoesNotCancelSlotReuser) {
  Simulator sim;
  int first = 0;
  int second = 0;
  const EventId stale = sim.schedule(Duration(1), [&] { ++first; });
  sim.run();  // frees the slot
  const EventId fresh = sim.schedule(Duration(1), [&] { ++second; });
  EXPECT_NE(stale, fresh);  // same slot, new generation
  sim.cancel(stale);
  sim.run();
  EXPECT_EQ(first, 1);
  EXPECT_EQ(second, 1);

  // Cancelled, then reused: the cancelled handle stays dead too.
  const EventId cancelled = sim.schedule(Duration(1), [&] { ++first; });
  sim.cancel(cancelled);
  sim.schedule(Duration(1), [&] { ++second; });
  sim.cancel(cancelled);
  sim.run();
  EXPECT_EQ(first, 1);
  EXPECT_EQ(second, 2);
}

TEST(Simulator, HandlerCancellingItselfIsNoop) {
  Simulator sim;
  int fired = 0;
  int other = 0;
  EventId self{};
  self = sim.schedule(Duration(5), [&] {
    ++fired;
    sim.cancel(self);  // already running: no effect, frees nothing twice
  });
  sim.schedule(Duration(6), [&] { ++other; });
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(other, 1);
  EXPECT_TRUE(sim.idle());
}

TEST(Simulator, HandlerCancelsLaterEventAtSameInstant) {
  Simulator sim;
  std::vector<int> order;
  EventId victim{};
  sim.schedule(Duration(10), [&] {
    order.push_back(1);
    sim.cancel(victim);
  });
  victim = sim.schedule(Duration(10), [&] { order.push_back(2); });
  sim.schedule(Duration(10), [&] { order.push_back(3); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(Simulator, SameInstantEventsFromHandlerStayFifo) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(Duration(10), [&] {
    order.push_back(0);
    for (int i = 1; i <= 3; ++i) sim.defer([&order, i] { order.push_back(10 + i); });
  });
  // Already queued for the same instant: runs before the deferred ones.
  sim.schedule(Duration(10), [&] { order.push_back(1); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 11, 12, 13}));
}

TEST(Simulator, LargeAndMoveOnlyCapturesWork) {
  Simulator sim;
  std::array<std::uint64_t, 16> big{};  // 128 B: over the inline buffer
  for (std::size_t i = 0; i < big.size(); ++i) big[i] = i + 1;
  static_assert(sizeof(big) > EventFn::kInlineBytes);
  std::uint64_t sum = 0;
  sim.schedule(Duration(1), [&sum, big] {
    for (std::uint64_t v : big) sum += v;
  });
  auto owned = std::make_unique<int>(41);
  int seen = 0;
  sim.schedule(Duration(2), [&seen, p = std::move(owned)] { seen = *p + 1; });
  // A large capture that is cancelled must be destroyed, not leaked (ASan).
  const EventId dropped = sim.schedule(Duration(3), [big, p = std::make_unique<int>(7)] {
    (void)big;
    (void)p;
  });
  sim.cancel(dropped);
  sim.run();
  EXPECT_EQ(sum, 136u);
  EXPECT_EQ(seen, 42);
}

TEST(Simulator, CaptureDestructorMaySchedule) {
  // A capture whose destructor schedules: cancelling or firing its event
  // must leave the slab consistent before the capture dies, even when the
  // new event grows the slab.
  struct Rearm {
    Simulator* sim;
    int* fired;
    Rearm(Simulator* s, int* f) : sim(s), fired(f) {}
    Rearm(Rearm&& o) noexcept : sim(std::exchange(o.sim, nullptr)), fired(o.fired) {}
    ~Rearm() {
      if (sim == nullptr) return;
      for (int i = 0; i < 64; ++i) sim->schedule(Duration(1), [f = fired] { ++*f; });
    }
  };
  Simulator sim;
  int fired = 0;
  const EventId doomed = sim.schedule(Duration(5), [r = Rearm(&sim, &fired)] {});
  sim.schedule(Duration(5), [r = Rearm(&sim, &fired)] {});
  sim.cancel(doomed);
  sim.run();
  EXPECT_EQ(fired, 128);
  EXPECT_TRUE(sim.idle());
}

TEST(Simulator, IdleWhenOnlyCancelledEventsPending) {
  Simulator sim;
  const EventId a = sim.schedule(Duration(5), [] {});
  const EventId b = sim.schedule(Duration(7), [] {});
  sim.cancel(a);
  EXPECT_FALSE(sim.idle());
  sim.cancel(b);
  EXPECT_TRUE(sim.idle());
  EXPECT_FALSE(sim.step());  // only stale entries were queued
  EXPECT_EQ(sim.events_executed(), 0u);
}

}  // namespace
}  // namespace eternal::sim
