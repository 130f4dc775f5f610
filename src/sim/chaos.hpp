// Composable chaos layer: scenario scripts of timed fault actions.
//
// A ChaosScript is a named sequence of (offset, action) pairs armed against
// the simulator clock. Actions are arbitrary callbacks — kill a replica,
// partition the segment, tear a disk write — so the same engine drives
// physical-layer faults (built-in Ethernet helpers below) and core-level
// faults (bound by the caller as lambdas, keeping this layer free of any
// dependency on core). Every fired action is recorded as a trace event
// (layer kSim, kind "chaos") so fault injections are visible in the same
// stream the InvariantChecker replays, and counted by the script, in total
// and per action name.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "sim/bulk_lane.hpp"
#include "sim/ethernet.hpp"
#include "sim/simulator.hpp"

namespace eternal::sim {

class ChaosScript {
 public:
  /// `scenario` names the script in trace events.
  ChaosScript(Simulator& sim, std::string scenario);

  const std::string& scenario() const noexcept { return scenario_; }

  /// Schedules `fn` to fire `offset` after arm(). Actions sharing an offset
  /// fire in registration order.
  ChaosScript& at(Duration offset, std::string name, std::function<void()> fn);

  /// Schedules `fn` at `start`, then again every `period`, `times` in total.
  ChaosScript& repeat(Duration start, Duration period, std::size_t times,
                      const std::string& name, const std::function<void()>& fn);

  // ---- built-in physical-layer faults ----

  /// Splits `side` into partition component `component` at `offset`.
  ChaosScript& partition_at(Duration offset, Ethernet& net,
                            std::vector<NodeId> side, int component);

  /// Heals all partitions at `offset`.
  ChaosScript& heal_at(Duration offset, Ethernet& net);

  /// Segment-wide loss probability `p` from `start` for `duration`.
  ChaosScript& loss_burst(Duration start, Duration duration, Ethernet& net, double p);

  /// Per-receiver loss `p` at `node` from `start` for `duration` (a flaky
  /// NIC — the flapping-member primitive).
  ChaosScript& receiver_loss_burst(Duration start, Duration duration, Ethernet& net,
                                   NodeId node, double p);

  // ---- out-of-band bulk-lane faults (independent of the ring's Ethernet) ----

  /// Bulk-lane message loss `p` from `start` for `duration`.
  ChaosScript& lane_loss_burst(Duration start, Duration duration, BulkLane& lane,
                               double p);

  /// Whole-fabric bulk-lane outage from `start` for `duration`: every send
  /// in the window is dropped (the ring keeps running — transfers must ride
  /// out the outage via retries or fall back in-band).
  ChaosScript& lane_outage(Duration start, Duration duration, BulkLane& lane);

  /// Arms every registered action relative to the simulator's current time.
  /// Call once, after the scenario's system is deployed.
  void arm();

  /// Actions fired so far.
  std::uint64_t fired() const noexcept { return fired_; }
  /// Actions named `action` fired so far.
  std::uint64_t fired(const std::string& action) const {
    auto it = fired_by_name_.find(action);
    return it == fired_by_name_.end() ? 0 : it->second;
  }
  std::size_t planned() const noexcept { return actions_.size(); }

 private:
  struct Action {
    Duration offset;
    std::string name;
    std::function<void()> fn;
  };

  void fire(const Action& action);

  Simulator& sim_;
  std::string scenario_;
  std::vector<Action> actions_;
  bool armed_ = false;
  std::uint64_t fired_ = 0;
  std::map<std::string, std::uint64_t> fired_by_name_;
};

}  // namespace eternal::sim
