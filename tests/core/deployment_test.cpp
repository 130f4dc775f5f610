// The System façade itself, plus network-partition behaviour at the
// Eternal level (paper §2: Eternal sustains operation in the components of
// a partitioned system; Totem reforms rings per component).
#include <gtest/gtest.h>

#include "core/deployment.hpp"
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

TEST(Deployment, RejectsBadConfigurations) {
  EXPECT_THROW(System(SystemConfig{.nodes = 0}), std::invalid_argument);
  System sys(SystemConfig{.nodes = 2});
  EXPECT_THROW(sys.orb(NodeId{9}), std::out_of_range);
  EXPECT_THROW(sys.ior_of(GroupId{42}), std::out_of_range);
  FtProperties props;
  EXPECT_THROW(sys.deploy("x", "IDL:X:1.0", props, {},
                          [](NodeId) { return nullptr; }),
               std::invalid_argument);
}

TEST(Deployment, GroupIorIsResolvableAndStringifiable) {
  System sys(SystemConfig{.nodes = 3});
  FtProperties props;
  props.style = ReplicationStyle::kActive;
  props.initial_replicas = 1;
  props.minimum_replicas = 1;
  const GroupId g = sys.deploy("obj", "IDL:My/Obj:1.0", props, {NodeId{1}}, [&](NodeId) {
    return std::make_shared<CounterServant>(sys.sim());
  });
  const giop::Ior ior = sys.ior_of(g);
  EXPECT_EQ(ior.type_id, "IDL:My/Obj:1.0");
  EXPECT_TRUE(orb::is_group_endpoint(orb::Endpoint{ior.host, ior.port}));
  // The stringified IOR round-trips like any CORBA object reference.
  auto parsed = giop::from_string(giop::to_string(ior));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, ior);
}

TEST(Deployment, MultipleGroupsCoexist) {
  System sys(SystemConfig{.nodes = 4});
  FtProperties props;
  props.style = ReplicationStyle::kActive;
  props.initial_replicas = 1;
  props.minimum_replicas = 1;
  std::shared_ptr<CounterServant> s1, s2;
  const GroupId g1 = sys.deploy("one", "IDL:One:1.0", props, {NodeId{1}}, [&](NodeId) {
    s1 = std::make_shared<CounterServant>(sys.sim());
    return s1;
  });
  const GroupId g2 = sys.deploy("two", "IDL:Two:1.0", props, {NodeId{2}}, [&](NodeId) {
    s2 = std::make_shared<CounterServant>(sys.sim());
    return s2;
  });
  sys.deploy_client("app", NodeId{4}, {g1, g2});

  int done = 0;
  sys.client(NodeId{4}, g1).invoke("inc", CounterServant::encode_i32(1),
                                   [&](const orb::ReplyOutcome&) { ++done; });
  sys.client(NodeId{4}, g2).invoke("inc", CounterServant::encode_i32(2),
                                   [&](const orb::ReplyOutcome&) { ++done; });
  ASSERT_TRUE(sys.run_until([&] { return done == 2; }, Duration(1'000'000'000)));
  EXPECT_EQ(s1->value(), 1);
  EXPECT_EQ(s2->value(), 2);
}

TEST(Deployment, PartitionedClientSideReconnects) {
  // Partition a client-only node away; the server side keeps running; on
  // heal, the client node rejoins the ring and service resumes.
  System sys(SystemConfig{.nodes = 4});
  FtProperties props;
  props.style = ReplicationStyle::kActive;
  props.initial_replicas = 2;
  props.minimum_replicas = 1;
  std::array<std::shared_ptr<CounterServant>, 5> servants{};
  const GroupId g = sys.deploy("obj", "IDL:Obj:1.0", props, {NodeId{1}, NodeId{2}},
                               [&](NodeId n) {
                                 auto s = std::make_shared<CounterServant>(sys.sim());
                                 servants[n.value] = s;
                                 return s;
                               });
  sys.deploy_client("app", NodeId{4}, {g});
  orb::ObjectRef ref = sys.client(NodeId{4}, g);

  int done = 0;
  ref.invoke("inc", CounterServant::encode_i32(1), [&](const orb::ReplyOutcome&) { ++done; });
  ASSERT_TRUE(sys.run_until([&] { return done == 1; }, Duration(1'000'000'000)));

  sys.ethernet().set_partition({NodeId{4}}, 1);
  // Both sides reform; the majority side keeps the server group.
  ASSERT_TRUE(sys.run_until(
      [&] {
        return sys.totem(NodeId{1}).operational() &&
               sys.totem(NodeId{1}).view().members.size() == 3;
      },
      Duration(2'000'000'000)));

  sys.ethernet().heal_partition();
  ASSERT_TRUE(sys.run_until(
      [&] {
        return sys.totem(NodeId{4}).operational() &&
               sys.totem(NodeId{4}).view().members.size() == 4;
      },
      Duration(5'000'000'000)));

  // The minority node rejoined fresh: its client group (which existed only
  // on its side of the partition) is gone; the application re-registers it —
  // exactly what a restarted processor would do — and service resumes
  // against the server group whose state persisted on the majority side.
  const GroupId fresh_client = sys.deploy_client("app2", NodeId{4}, {g});
  (void)fresh_client;
  ref = sys.client(NodeId{4}, g);
  ref.invoke("inc", CounterServant::encode_i32(1), [&](const orb::ReplyOutcome&) { ++done; });
  ASSERT_TRUE(sys.run_until([&] { return done == 2; }, Duration(2'000'000'000)));
  EXPECT_EQ(servants[1]->value(), 2);
  EXPECT_EQ(servants[2]->value(), 2);
}

TEST(Deployment, PartitionedServerReplicaIsResetOnFreshRejoin) {
  // A server replica on the minority node keeps serving its side of the
  // partition alone; on heal that node rejoins the ring fresh, and the reset
  // drops every group it held: the replica is gone (its phase=dead is on
  // record) and the group has left that node's table, while the majority's
  // replicas serve on.
  SystemConfig cfg;
  cfg.nodes = 4;
  cfg.trace_capacity = 1u << 16;
  System sys(cfg);
  FtProperties props;
  props.style = ReplicationStyle::kActive;
  props.initial_replicas = 3;
  props.minimum_replicas = 1;
  std::array<std::shared_ptr<CounterServant>, 5> servants{};
  const GroupId g = sys.deploy("obj", "IDL:Obj:1.0", props,
                               {NodeId{1}, NodeId{2}, NodeId{4}}, [&](NodeId n) {
                                 auto s = std::make_shared<CounterServant>(sys.sim());
                                 servants[n.value] = s;
                                 return s;
                               });
  sys.deploy_client("app", NodeId{3}, {g});
  orb::ObjectRef ref = sys.client(NodeId{3}, g);

  int done = 0;
  ref.invoke("inc", CounterServant::encode_i32(1), [&](const orb::ReplyOutcome&) { ++done; });
  ASSERT_TRUE(sys.run_until([&] { return done == 1; }, Duration(1'000'000'000)));
  ASSERT_TRUE(sys.mech(NodeId{4}).hosts_operational(g));
  std::uint64_t minority_replica = 0;
  for (const core::ReplicaInfo& m : sys.mech(NodeId{4}).groups().find(g)->members)
    if (m.node == NodeId{4}) minority_replica = m.id.value;
  ASSERT_NE(minority_replica, 0u);

  sys.ethernet().set_partition({NodeId{4}}, 1);
  ASSERT_TRUE(sys.run_until(
      [&] {
        return sys.totem(NodeId{1}).operational() &&
               sys.totem(NodeId{1}).view().members.size() == 3;
      },
      Duration(2'000'000'000)));
  EXPECT_TRUE(sys.mech(NodeId{4}).hosts_operational(g))
      << "the minority replica keeps its side of the partition";

  const util::TimePoint healed_at = sys.sim().now();
  sys.ethernet().heal_partition();
  ASSERT_TRUE(sys.run_until(
      [&] {
        return sys.totem(NodeId{4}).operational() &&
               sys.totem(NodeId{4}).view().members.size() == 4;
      },
      Duration(5'000'000'000)));

  EXPECT_FALSE(sys.mech(NodeId{4}).hosts_operational(g));
  EXPECT_EQ(sys.mech(NodeId{4}).groups().find(g), nullptr);
  bool dead_recorded = false;
  for (const obs::TraceEvent& ev : sys.trace()->snapshot()) {
    if (ev.sim_time < healed_at || ev.node != NodeId{4} || ev.kind != "phase") continue;
    dead_recorded |= ev.fields.num("replica") == minority_replica &&
                     ev.fields.text("phase") == "dead";
  }
  EXPECT_TRUE(dead_recorded) << "the reset replica's phase=dead event is missing";

  ref.invoke("inc", CounterServant::encode_i32(1), [&](const orb::ReplyOutcome&) { ++done; });
  ASSERT_TRUE(sys.run_until([&] { return done == 2; }, Duration(2'000'000'000)));
  EXPECT_EQ(servants[1]->value(), 2);
  EXPECT_EQ(servants[2]->value(), 2);
}

TEST(Deployment, RunUntilTimesOutHonestly) {
  System sys(SystemConfig{.nodes = 2});
  const util::TimePoint before = sys.sim().now();
  EXPECT_FALSE(sys.run_until([] { return false; }, Duration(5'000'000)));
  EXPECT_GE(sys.sim().now() - before, Duration(5'000'000));
}

}  // namespace
}  // namespace eternal
