// ChaosScript built-in fault actions (src/sim/chaos.hpp): each built-in must
// actually reconfigure the Ethernet segment at its scheduled offset, and the
// script must account for itself — planned()/fired() counters, one kSim
// "chaos" trace event per fired action, and per-scenario metrics counters.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/chaos.hpp"
#include "sim/ethernet.hpp"
#include "sim/simulator.hpp"

namespace eternal::sim {
namespace {

using util::Duration;
using util::NodeId;

constexpr Duration kMs{1'000'000};

/// Counts frames delivered to one attached station.
struct CountingStation : Station {
  std::uint64_t frames = 0;
  void on_frame(NodeId, util::BytesView) override { ++frames; }
};

struct Rig {
  Simulator sim;
  Ethernet net{sim, EthernetConfig{}};
  CountingStation s1, s2, s3;

  Rig() {
    net.attach(NodeId{1}, &s1);
    net.attach(NodeId{2}, &s2);
    net.attach(NodeId{3}, &s3);
  }

  /// One broadcast from node 1 at `at`, payload sized well under one frame.
  void send_at(Duration at) {
    sim.schedule_at(util::TimePoint{} + at,
                    [this] { net.broadcast(NodeId{1}, util::Bytes(64, 0x5A)); });
  }
};

TEST(ChaosScript, PartitionAndHealBuiltinsSplitThenRestoreDelivery) {
  Rig rig;
  ChaosScript chaos(rig.sim, "partition_heal");
  chaos.partition_at(1 * kMs, rig.net, {NodeId{3}}, 1);
  chaos.heal_at(3 * kMs, rig.net);
  chaos.arm();

  rig.send_at(Duration(500'000));  // before the partition: 2 and 3 receive
  rig.send_at(2 * kMs);            // during: only 2 (3 is in component 1)
  rig.send_at(4 * kMs);            // after heal: 2 and 3 again
  rig.sim.run();

  EXPECT_EQ(rig.s2.frames, 3u);
  EXPECT_EQ(rig.s3.frames, 2u);
  EXPECT_EQ(chaos.planned(), 2u);
  EXPECT_EQ(chaos.fired(), 2u);
}

TEST(ChaosScript, LossBurstDropsOnlyInsideTheWindow) {
  Rig rig;
  ChaosScript chaos(rig.sim, "loss_burst");
  chaos.loss_burst(1 * kMs, 2 * kMs, rig.net, 1.0);  // certain loss 1ms..3ms
  chaos.arm();

  rig.send_at(Duration(500'000));
  rig.send_at(2 * kMs);
  rig.send_at(4 * kMs);
  rig.sim.run();

  // The in-window frame is dropped at both receivers; the off/on boundary
  // restored the segment-wide probability to exactly 0.
  EXPECT_EQ(rig.s2.frames, 2u);
  EXPECT_EQ(rig.s3.frames, 2u);
  EXPECT_EQ(rig.net.stats().frames_dropped, 2u);
  EXPECT_EQ(rig.net.config().loss_probability, 0.0);
  EXPECT_EQ(chaos.fired(), 2u);  // loss-on + loss-off
}

TEST(ChaosScript, ReceiverLossBurstTargetsOneFlakyNic) {
  Rig rig;
  ChaosScript chaos(rig.sim, "flaky_nic");
  chaos.receiver_loss_burst(1 * kMs, 2 * kMs, rig.net, NodeId{3}, 1.0);
  chaos.arm();

  rig.send_at(Duration(500'000));
  rig.send_at(2 * kMs);  // node 3 drops this one; node 2 keeps receiving
  rig.send_at(4 * kMs);
  rig.sim.run();

  EXPECT_EQ(rig.s2.frames, 3u);
  EXPECT_EQ(rig.s3.frames, 2u);
  EXPECT_EQ(rig.net.stats().frames_dropped, 1u);
  EXPECT_EQ(chaos.fired(), 2u);
}

TEST(ChaosScript, FiredActionsAreTracedAndCounted) {
  Rig rig;
  obs::TraceBuffer trace(256);
  obs::MetricsRegistry metrics;
  rig.sim.recorder().attach_trace(&trace);
  rig.sim.recorder().attach_metrics(&metrics);

  ChaosScript chaos(rig.sim, "accounting");
  int custom_fired = 0;
  chaos.at(1 * kMs, "custom", [&] { ++custom_fired; });
  chaos.repeat(2 * kMs, 1 * kMs, 3, "tick", [] {});
  EXPECT_EQ(chaos.planned(), 4u);
  EXPECT_EQ(chaos.fired(), 0u);
  chaos.arm();
  rig.sim.run();

  EXPECT_EQ(custom_fired, 1);
  EXPECT_EQ(chaos.fired(), 4u);

  // One kSim/"chaos" trace event per fired action, naming the scenario.
  std::size_t chaos_events = 0;
  for (const obs::TraceEvent& ev : trace.snapshot()) {
    if (ev.layer != obs::Layer::kSim || ev.kind != "chaos") continue;
    ++chaos_events;
    EXPECT_EQ(ev.fields.text("scenario"), "accounting");
  }
  EXPECT_EQ(chaos_events, 4u);

  // Per-scenario and per-action metrics counters.
  EXPECT_EQ(metrics.counter("chaos.accounting.actions").value(), 4u);
  EXPECT_EQ(metrics.counter("chaos.action.custom").value(), 1u);
  EXPECT_EQ(metrics.counter("chaos.action.tick#0").value(), 1u);
  EXPECT_EQ(metrics.counter("chaos.action.tick#2").value(), 1u);
}

TEST(ChaosScript, TraceOutlivesTheScriptThatNamedItsEvents) {
  // Scenario and action names are run-time strings owned by the script; the
  // trace interns them, so exporting after the script is gone reads no freed
  // memory (the sanitizer stage runs this).
  Rig rig;
  obs::TraceBuffer trace(64);
  rig.sim.recorder().attach_trace(&trace);
  {
    ChaosScript chaos(rig.sim, std::string("a-scenario-name-past-the-small-buffer"));
    chaos.repeat(1 * kMs, 1 * kMs, 2, std::string("an-action-name-past-the-small-buffer"),
                 [] {});
    chaos.arm();
    rig.sim.run();
  }
  EXPECT_FALSE(trace.to_json().empty());
  const std::vector<obs::TraceEvent> events = trace.snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[1].fields.text("scenario"), "a-scenario-name-past-the-small-buffer");
  EXPECT_EQ(events[1].fields.text("action"), "an-action-name-past-the-small-buffer#1");
}

TEST(ChaosScript, ArmingTwiceOrLateRegistrationThrows) {
  Rig rig;
  ChaosScript chaos(rig.sim, "strict");
  chaos.at(1 * kMs, "noop", [] {});
  chaos.arm();
  EXPECT_THROW(chaos.arm(), std::logic_error);
  EXPECT_THROW(chaos.at(2 * kMs, "late", [] {}), std::logic_error);
}

}  // namespace
}  // namespace eternal::sim
