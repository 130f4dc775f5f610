// Groups that share processors (ROADMAP direction 1).
//
// Each node runs one ORB for every replica it hosts. Eternal injects a
// client group's requests for a server group from an endpoint that names
// both groups, so that ORB keeps one connection per (client group, server
// group) pair: its own request ids, its own short keys, its own reset on a
// replica's death. These cases pin the three faults that appeared when all
// of a client group's connections to co-hosted server groups collapsed into
// one:
//   - replies routed to another group's invocation (mixed values);
//   - short keys numbered differently on two replicas of one group, so one
//     replica discards every short-key request;
//   - one replica's death wiping a co-hosted group's connections, so that
//     group's replica on the same node stops executing.
#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/deployment.hpp"
#include "orb/orb.hpp"
#include "support/counter_servant.hpp"

namespace eternal {
namespace {

using core::FtProperties;
using core::ReplicationStyle;
using core::System;
using core::SystemConfig;
using test_support::CounterServant;
using util::Duration;
using util::GroupId;
using util::NodeId;

/// Servants of one group, by hosting node.
using Servants = std::array<std::shared_ptr<CounterServant>, 5>;

GroupId deploy_counter(System& sys, const std::string& name, ReplicationStyle style,
                       const std::vector<NodeId>& placement, Servants& servants) {
  FtProperties props;
  props.style = style;
  props.initial_replicas = placement.size();
  props.minimum_replicas = 1;
  props.fault_monitoring_interval = Duration(5'000'000);
  props.checkpoint_interval = Duration(20'000'000);
  const std::vector<NodeId> backups =
      style == ReplicationStyle::kActive ? std::vector<NodeId>{} : placement;
  return sys.deploy(
      name, "IDL:Counter:1.0", props, placement,
      [&sys, &servants](NodeId n) {
        auto s = std::make_shared<CounterServant>(sys.sim());
        servants[n.value] = s;
        return s;
      },
      backups);
}

/// Closed-loop "inc" caller: issues the next call when the previous reply
/// arrives, and keeps every reply's value.
struct IncLoop {
  IncLoop() = default;
  IncLoop(orb::ObjectRef r, std::int32_t d, std::size_t n) : ref(std::move(r)), delta(d), calls(n) {}

  orb::ObjectRef ref;
  std::int32_t delta = 1;
  std::size_t calls = 0;
  std::vector<std::int32_t> values;
  /// Runs after each reply (before the next call goes out).
  std::function<void(std::size_t replies)> on_reply;

  void start() { issue(); }
  bool done() const { return values.size() == calls; }

 private:
  void issue() {
    ref.invoke("inc", CounterServant::encode_i32(delta), [this](const orb::ReplyOutcome& r) {
      values.push_back(r.status == giop::ReplyStatus::kNoException
                           ? CounterServant::decode_i32(r.body)
                           : -1);
      if (on_reply) on_reply(values.size());
      if (values.size() < calls) issue();
    });
  }
};

std::uint64_t unknown_key_discards(System& sys) {
  std::uint64_t total = 0;
  for (NodeId n : sys.all_nodes()) total += sys.orb(n).stats().requests_discarded_unknown_key;
  return total;
}

// One client group drives four 2-way active groups that share nodes 1 and
// 2. Each group's request ids start at 0, so the four groups' requests carry
// equal ids; each reply must still reach its own group's invocation. The
// deltas differ per group, so a reply routed to another group's invocation
// shows as a wrong value.
TEST(Colocation, OneClientDrivingFourCoHostedGroupsGetsEachGroupsOwnReplies) {
  SystemConfig cfg;
  cfg.nodes = 4;
  System sys(cfg);
  constexpr std::size_t kGroups = 4;
  constexpr std::size_t kCalls = 40;
  std::array<Servants, kGroups> servants{};
  std::vector<GroupId> groups;
  for (std::size_t g = 0; g < kGroups; ++g) {
    groups.push_back(deploy_counter(sys, "counter-" + std::to_string(g),
                                    ReplicationStyle::kActive, {NodeId{1}, NodeId{2}},
                                    servants[g]));
  }
  sys.deploy_client("driver", NodeId{4}, groups);

  std::array<IncLoop, kGroups> loops;
  for (std::size_t g = 0; g < kGroups; ++g) {
    loops[g].ref = sys.client(NodeId{4}, groups[g]);
    loops[g].delta = static_cast<std::int32_t>(g + 1);
    loops[g].calls = kCalls;
    loops[g].start();
  }
  ASSERT_TRUE(sys.run_until(
      [&] {
        for (const IncLoop& l : loops)
          if (!l.done()) return false;
        return true;
      },
      Duration(2'000'000'000)));

  std::size_t foreign = 0;
  for (std::size_t g = 0; g < kGroups; ++g) {
    for (std::size_t k = 0; k < kCalls; ++k) {
      const std::int32_t expected = static_cast<std::int32_t>(k + 1) * loops[g].delta;
      if (loops[g].values[k] != expected) {
        foreign += 1;
        ADD_FAILURE() << "group " << g << " reply " << k + 1 << " reads "
                      << loops[g].values[k] << ", expected " << expected;
      }
    }
    for (NodeId n : {NodeId{1}, NodeId{2}}) {
      EXPECT_EQ(servants[g][n.value]->value(),
                static_cast<std::int32_t>(kCalls) * loops[g].delta)
          << "group " << g << " on node " << n.value;
    }
  }
  EXPECT_EQ(foreign, 0u) << "of " << kGroups * kCalls << " replies";
  EXPECT_EQ(unknown_key_discards(sys), 0u);
}

// An active group on nodes 1-2 and a warm-passive group on nodes 2-3, both
// invoked by one client group. Node 2 serves both groups' handshakes, node 1
// only the active group's, yet each replica of the active group must name
// the client's short key alike and execute every request.
TEST(Colocation, ActiveAndPassiveGroupsSharingANodeKeepOneShortKeyPerGroup) {
  SystemConfig cfg;
  cfg.nodes = 4;
  System sys(cfg);
  Servants active{}, passive{};
  const GroupId passive_group =
      deploy_counter(sys, "passive", ReplicationStyle::kWarmPassive, {NodeId{2}, NodeId{3}},
                     passive);
  const GroupId active_group =
      deploy_counter(sys, "active", ReplicationStyle::kActive, {NodeId{1}, NodeId{2}}, active);
  sys.deploy_client("driver", NodeId{4}, {passive_group, active_group});

  IncLoop to_passive{sys.client(NodeId{4}, passive_group), 1, 1};
  to_passive.start();
  ASSERT_TRUE(sys.run_until([&] { return to_passive.done(); }, Duration(300'000'000)));

  constexpr std::size_t kCalls = 42;
  IncLoop to_active{sys.client(NodeId{4}, active_group), 1, kCalls};
  to_active.start();
  ASSERT_TRUE(sys.run_until([&] { return to_active.done(); }, Duration(2'000'000'000)));

  EXPECT_EQ(to_active.values.back(), static_cast<std::int32_t>(kCalls));
  EXPECT_EQ(active[1]->value(), static_cast<std::int32_t>(kCalls))
      << "node 1's active replica executed " << active[1]->ops_served() << " of " << kCalls;
  EXPECT_EQ(active[2]->value(), static_cast<std::int32_t>(kCalls));
  EXPECT_EQ(passive[2]->value(), 1);
  EXPECT_EQ(unknown_key_discards(sys), 0u);
}

// Two 2-way active groups on nodes 1-2, each with its own client group.
// Killing group A's replica on node 1 must leave group B's replica there
// executing: the dead process's connections go, the bystander's stay.
TEST(Colocation, KillingOneReplicaLeavesACoHostedGroupExecuting) {
  SystemConfig cfg;
  cfg.nodes = 4;
  System sys(cfg);
  Servants a{}, b{};
  const GroupId group_a =
      deploy_counter(sys, "a", ReplicationStyle::kActive, {NodeId{1}, NodeId{2}}, a);
  const GroupId group_b =
      deploy_counter(sys, "b", ReplicationStyle::kActive, {NodeId{1}, NodeId{2}}, b);
  sys.deploy_client("client-a", NodeId{3}, {group_a});
  sys.deploy_client("client-b", NodeId{4}, {group_b});

  IncLoop to_a{sys.client(NodeId{3}, group_a), 1, 5};
  to_a.start();
  ASSERT_TRUE(sys.run_until([&] { return to_a.done(); }, Duration(300'000'000)));

  constexpr std::size_t kCalls = 60;
  IncLoop to_b{sys.client(NodeId{4}, group_b), 1, kCalls};
  to_b.on_reply = [&](std::size_t replies) {
    if (replies == 10) sys.kill_replica(NodeId{1}, group_a);
  };
  to_b.start();
  ASSERT_TRUE(sys.run_until([&] { return to_b.done(); }, Duration(2'000'000'000)));

  EXPECT_EQ(to_b.values.back(), static_cast<std::int32_t>(kCalls));
  EXPECT_EQ(b[2]->value(), static_cast<std::int32_t>(kCalls));
  EXPECT_EQ(b[1]->value(), static_cast<std::int32_t>(kCalls))
      << "group B's node-1 replica stopped while node 2 answered";
  EXPECT_EQ(sys.orb(NodeId{1}).stats().requests_discarded_unknown_key, 0u);
}

}  // namespace
}  // namespace eternal
