// Recovery edge cases: recovery onto a brand-new node, state-source death
// mid-transfer (including the one source of a large state), NoStateAvailable,
// killing a replica while it recovers.
#include <gtest/gtest.h>

#include "core/deployment.hpp"
#include "support/counter_servant.hpp"
#include "support/invariant_helpers.hpp"

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

struct EdgeRig {
  /// `pad` bytes of servant state; past one Totem fragment, only the group's
  /// primary publishes it.
  explicit EdgeRig(std::size_t pad = 256) {
    SystemConfig cfg;
    cfg.nodes = 5;
    cfg.trace_capacity = 1u << 20;  // whole-run trace for the invariant check
    sys = std::make_unique<System>(cfg);
    FtProperties props;
    props.style = ReplicationStyle::kActive;
    props.initial_replicas = 2;
    props.minimum_replicas = 1;
    props.fault_monitoring_interval = Duration(5'000'000);
    group = sys->deploy("svc", "IDL:Svc:1.0", props, {NodeId{1}, NodeId{2}},
                        [this, pad](NodeId n) {
                          auto s = std::make_shared<CounterServant>(sys->sim(), pad,
                                                                    Duration(200'000));
                          servants[n.value] = s;
                          return s;
                        });
    sys->deploy_client("app", NodeId{5}, {group});
    ref = sys->client(NodeId{5}, group);
  }

  bool invoke(std::int32_t delta) {
    bool done = false;
    ref.invoke("inc", CounterServant::encode_i32(delta),
               [&done](const orb::ReplyOutcome&) { done = true; });
    return sys->run_until([&] { return done; }, Duration(1'000'000'000));
  }

  bool wait_members(std::size_t n) {
    return sys->run_until(
        [&] {
          const auto* e = sys->mech(NodeId{1}).groups().find(group);
          return e != nullptr && e->members.size() == n;
        },
        Duration(1'000'000'000));
  }

  std::unique_ptr<System> sys;
  GroupId group;
  orb::ObjectRef ref;
  std::array<std::shared_ptr<CounterServant>, 6> servants{};
};

TEST(RecoveryEdge, RecoveryOntoBrandNewNode) {
  // The replacement runs on a node that never hosted the group: all three
  // kinds of state (including the client handshake and the duplicate
  // filters) must arrive via the piggybacked transfer, not local residue.
  EdgeRig rig;
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(rig.invoke(1));

  rig.sys->kill_replica(NodeId{2}, rig.group);
  ASSERT_TRUE(rig.wait_members(1));

  rig.sys->mech(NodeId{3}).register_factory(rig.group, [&] {
    auto s = std::make_shared<CounterServant>(rig.sys->sim(), 256, Duration(200'000));
    rig.servants[3] = s;
    return s;
  });
  rig.sys->mech(NodeId{3}).launch_replica(rig.group);
  ASSERT_TRUE(rig.sys->run_until(
      [&] { return rig.sys->mech(NodeId{3}).hosts_operational(rig.group); },
      Duration(2'000'000'000)));
  EXPECT_EQ(rig.servants[3]->value(), 4);
  EXPECT_GE(rig.sys->mech(NodeId{3}).stats().handshakes_injected, 1u);

  for (int i = 0; i < 2; ++i) ASSERT_TRUE(rig.invoke(1));
  EXPECT_EQ(rig.servants[3]->value(), 6);
  EXPECT_EQ(rig.servants[1]->value(), 6);
  EXPECT_EQ(rig.sys->orb(NodeId{3}).stats().requests_discarded_unknown_key, 0u);
  EXPECT_EQ(rig.sys->orb(NodeId{5}).stats().replies_discarded_request_id, 0u);
  test_support::expect_invariants_hold(*rig.sys);
}

TEST(RecoveryEdge, StateSourceKilledMidTransferIsRetried) {
  // Slow state operations widen the window; the only state source is killed
  // right after recovery starts. Once the fault detector removes it, the
  // coordinator re-issues the get_state against the *other* replica.
  EdgeRig rig;
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(rig.invoke(1));

  rig.sys->kill_replica(NodeId{2}, rig.group);
  ASSERT_TRUE(rig.wait_members(1));
  // Bring node 2 back first so the group has two sources again.
  rig.sys->relaunch_replica(NodeId{2}, rig.group);
  ASSERT_TRUE(rig.sys->run_until(
      [&] { return rig.sys->mech(NodeId{2}).hosts_operational(rig.group); },
      Duration(2'000'000'000)));

  // Start a third replica on node 3; kill the coordinator-side source
  // (node 1, the lowest operational node) immediately.
  rig.sys->mech(NodeId{3}).register_factory(rig.group, [&] {
    auto s = std::make_shared<CounterServant>(rig.sys->sim(), 256, Duration(200'000));
    rig.servants[3] = s;
    return s;
  });
  rig.sys->mech(NodeId{3}).launch_replica(rig.group);
  rig.sys->kill_replica(NodeId{1}, rig.group);

  ASSERT_TRUE(rig.sys->run_until(
      [&] { return rig.sys->mech(NodeId{3}).hosts_operational(rig.group); },
      Duration(3'000'000'000)));
  EXPECT_EQ(rig.servants[3]->value(), 3);
  ASSERT_TRUE(rig.invoke(1));
  EXPECT_EQ(rig.servants[3]->value(), 4);
  test_support::expect_invariants_hold(*rig.sys);
}

TEST(RecoveryEdge, LargeStateSourceKilledAfterGetStateIsReissued) {
  // A state larger than one Totem fragment has one source, the group's
  // primary: the other replica runs the same get_state but publishes
  // nothing. Kill the primary while its get_state runs (no invocation is in
  // flight, so its engine is busy with that barrier alone), so the retrieval
  // dies with it; the fault detector's removal makes the coordinator
  // re-issue it, and the surviving replica serves the new epoch.
  constexpr std::size_t kPad = 20'000;
  EdgeRig rig(kPad);
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(rig.invoke(1));
  const auto* entry = rig.sys->mech(NodeId{1}).groups().find(rig.group);
  ASSERT_NE(entry, nullptr);
  ASSERT_NE(entry->primary(), nullptr);
  const NodeId source = entry->primary()->node;
  const NodeId survivor{source == NodeId{1} ? 2u : 1u};

  rig.sys->mech(NodeId{3}).register_factory(rig.group, [&] {
    auto s = std::make_shared<CounterServant>(rig.sys->sim(), kPad, Duration(200'000));
    rig.servants[3] = s;
    return s;
  });
  rig.sys->mech(NodeId{3}).launch_replica(rig.group);
  const core::exec::ReplicaEngine* engine = rig.sys->mech(source).engine_of(rig.group);
  ASSERT_NE(engine, nullptr);
  ASSERT_TRUE(rig.sys->run_until([&] { return !engine->idle(); }, Duration(1'000'000'000),
                                 Duration(1'000)));
  const util::TimePoint killed_at = rig.sys->sim().now();
  rig.sys->kill_replica(source, rig.group);

  ASSERT_TRUE(rig.sys->run_until(
      [&] { return rig.sys->mech(NodeId{3}).hosts_operational(rig.group); },
      Duration(3'000'000'000)));
  // The state the recoverer applied was retrieved after the kill: the first
  // epoch never reached the ring, from either replica.
  ASSERT_EQ(rig.sys->mech(NodeId{3}).recoveries().size(), 1u);
  EXPECT_GT(rig.sys->mech(NodeId{3}).recoveries().front().get_state_delivered, killed_at);
  EXPECT_GE(rig.sys->mech(survivor).stats().set_states_withdrawn, 1u);
  EXPECT_EQ(rig.servants[3]->value(), 3);
  ASSERT_TRUE(rig.invoke(1));
  EXPECT_EQ(rig.servants[3]->value(), 4);
  EXPECT_EQ(rig.servants[survivor.value]->value(), 4);
  test_support::expect_invariants_hold(*rig.sys);
}

TEST(RecoveryEdge, KilledWhileRecoveringIsSimplyRemoved) {
  EdgeRig rig;
  ASSERT_TRUE(rig.invoke(1));
  rig.sys->kill_replica(NodeId{2}, rig.group);
  ASSERT_TRUE(rig.wait_members(1));

  rig.sys->relaunch_replica(NodeId{2}, rig.group);
  rig.sys->kill_replica(NodeId{2}, rig.group);  // dies again mid-recovery

  // The system keeps serving; eventually the dead recruit is removed.
  ASSERT_TRUE(rig.invoke(1));
  ASSERT_TRUE(rig.wait_members(1));
  ASSERT_TRUE(rig.invoke(1));
  EXPECT_EQ(rig.servants[1]->value(), 3);

  // And a third attempt succeeds.
  rig.sys->relaunch_replica(NodeId{2}, rig.group);
  ASSERT_TRUE(rig.sys->run_until(
      [&] { return rig.sys->mech(NodeId{2}).hosts_operational(rig.group); },
      Duration(2'000'000'000)));
  EXPECT_EQ(rig.servants[2]->value(), 3);
  test_support::expect_invariants_hold(*rig.sys);
}

/// Servant whose state is temporarily unavailable (NoStateAvailable).
class MoodyServant : public CounterServant {
 public:
  using CounterServant::CounterServant;
  bool available = true;
  util::Any get_state() override {
    if (!available) throw orb::UserException{core::kNoStateAvailableId};
    return CounterServant::get_state();
  }
};

TEST(RecoveryEdge, NoStateAvailableCountsAsTransferFailure) {
  SystemConfig cfg;
  cfg.nodes = 4;
  System sys(cfg);
  FtProperties props;
  props.style = ReplicationStyle::kActive;
  props.initial_replicas = 1;
  props.minimum_replicas = 1;
  props.fault_monitoring_interval = Duration(5'000'000);
  std::shared_ptr<MoodyServant> source;
  const GroupId group = sys.deploy("svc", "IDL:Svc:1.0", props, {NodeId{1}},
                                   [&](NodeId) {
                                     source = std::make_shared<MoodyServant>(sys.sim());
                                     return source;
                                   });
  sys.deploy_client("app", NodeId{4}, {group});

  source->available = false;
  sys.mech(NodeId{2}).register_factory(group, [&] {
    return std::make_shared<CounterServant>(sys.sim());
  });
  sys.mech(NodeId{2}).launch_replica(group);
  sys.run_for(Duration(100'000'000));

  EXPECT_GE(sys.mech(NodeId{1}).stats().state_transfer_failures, 1u);
  EXPECT_FALSE(sys.mech(NodeId{2}).hosts_operational(group));

  // The existing replica keeps serving normally (failure is contained).
  orb::ObjectRef ref = sys.client(NodeId{4}, group);
  bool done = false;
  ref.invoke("inc", CounterServant::encode_i32(1),
             [&done](const orb::ReplyOutcome&) { done = true; });
  EXPECT_TRUE(sys.run_until([&] { return done; }, Duration(1'000'000'000)));
}

}  // namespace
}  // namespace eternal
