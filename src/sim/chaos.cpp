#include "sim/chaos.hpp"

#include <stdexcept>

#include "util/log.hpp"

namespace eternal::sim {

namespace {
constexpr const char* kTag = "chaos";
}

ChaosScript::ChaosScript(Simulator& sim, std::string scenario)
    : sim_(sim), scenario_(std::move(scenario)) {}

ChaosScript& ChaosScript::at(Duration offset, std::string name,
                             std::function<void()> fn) {
  if (armed_) throw std::logic_error("ChaosScript: already armed");
  actions_.push_back(Action{offset, std::move(name), std::move(fn)});
  return *this;
}

ChaosScript& ChaosScript::repeat(Duration start, Duration period, std::size_t times,
                                 const std::string& name,
                                 const std::function<void()>& fn) {
  for (std::size_t i = 0; i < times; ++i) {
    at(start + period * static_cast<std::int64_t>(i),
       name + "#" + std::to_string(i), fn);
  }
  return *this;
}

ChaosScript& ChaosScript::partition_at(Duration offset, Ethernet& net,
                                       std::vector<NodeId> side, int component) {
  return at(offset, "partition", [&net, side = std::move(side), component] {
    net.set_partition(side, component);
  });
}

ChaosScript& ChaosScript::heal_at(Duration offset, Ethernet& net) {
  return at(offset, "heal", [&net] { net.heal_partition(); });
}

ChaosScript& ChaosScript::loss_burst(Duration start, Duration duration, Ethernet& net,
                                     double p) {
  at(start, "loss-on", [&net, p] { net.set_loss_probability(p); });
  return at(start + duration, "loss-off", [&net] { net.set_loss_probability(0.0); });
}

ChaosScript& ChaosScript::receiver_loss_burst(Duration start, Duration duration,
                                              Ethernet& net, NodeId node, double p) {
  at(start, "rx-loss-on", [&net, node, p] { net.set_receiver_loss(node, p); });
  return at(start + duration, "rx-loss-off",
            [&net, node] { net.set_receiver_loss(node, 0.0); });
}

ChaosScript& ChaosScript::lane_loss_burst(Duration start, Duration duration,
                                          BulkLane& lane, double p) {
  at(start, "lane-loss-on", [&lane, p] { lane.set_loss_probability(p); });
  return at(start + duration, "lane-loss-off",
            [&lane] { lane.set_loss_probability(0.0); });
}

ChaosScript& ChaosScript::lane_outage(Duration start, Duration duration,
                                      BulkLane& lane) {
  at(start, "lane-down", [&lane] { lane.set_enabled(false); });
  return at(start + duration, "lane-up", [&lane] { lane.set_enabled(true); });
}

void ChaosScript::arm() {
  if (armed_) throw std::logic_error("ChaosScript: already armed");
  armed_ = true;
  // Sorting is not needed: the simulator orders by timestamp with FIFO
  // tie-break, so same-offset actions fire in registration order.
  for (std::size_t i = 0; i < actions_.size(); ++i) {
    sim_.schedule(actions_[i].offset, [this, i] { fire(actions_[i]); });
  }
}

void ChaosScript::fire(const Action& action) {
  fired_ += 1;
  ETERNAL_LOG(kDebug, kTag, "scenario " << scenario_ << ": " << action.name);
  obs::Recorder& rec = sim_.recorder();
  rec.record(util::NodeId{0}, obs::Layer::kSim, "chaos", fired_,
             {obs::Field::text_field("scenario", rec.intern(scenario_)),
              obs::Field::text_field("action", rec.intern(action.name))});
  fired_by_name_[action.name] += 1;
  action.fn();
}

}  // namespace eternal::sim
