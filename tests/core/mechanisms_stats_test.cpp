// Observable mechanisms behaviour: duplicate-suppression accounting, oneway
// conveyance, reply caching bounds, and misuse errors.
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

TEST(MechanismsStats, DuplicateSuppressionCountsForReplicatedClient) {
  SystemConfig cfg;
  cfg.nodes = 4;
  System sys(cfg);
  FtProperties sprops;
  sprops.style = ReplicationStyle::kActive;
  sprops.initial_replicas = 1;
  sprops.minimum_replicas = 1;
  std::shared_ptr<CounterServant> servant;
  const GroupId server = sys.deploy("b", "IDL:B:1.0", sprops, {NodeId{3}}, [&](NodeId) {
    servant = std::make_shared<CounterServant>(sys.sim());
    return servant;
  });
  FtProperties cprops;
  cprops.style = ReplicationStyle::kActive;
  cprops.initial_replicas = 2;
  cprops.minimum_replicas = 1;
  const GroupId client = sys.deploy("c", "IDL:C:1.0", cprops, {NodeId{1}, NodeId{2}},
                                    [](NodeId) { return std::make_shared<core::NullServant>(); });
  sys.bind_client(NodeId{1}, client, server);
  sys.bind_client(NodeId{2}, client, server);
  orb::ObjectRef r1 = sys.client(NodeId{1}, server);
  orb::ObjectRef r2 = sys.client(NodeId{2}, server);

  for (int i = 0; i < 5; ++i) {
    bool done = false;
    r1.invoke("inc", CounterServant::encode_i32(1),
              [&done](const orb::ReplyOutcome&) { done = true; });
    r2.invoke("inc", CounterServant::encode_i32(1), [](const orb::ReplyOutcome&) {});
    ASSERT_TRUE(sys.run_until([&] { return done; }, Duration(1'000'000'000)));
  }
  sys.run_for(Duration(50'000'000));

  // Each logical operation was executed once (6 ops: handshake + 5
  // increments). Each op's twin copy is redundant: either kept off the ring
  // by a client node (the other copy delivered first) or sent and then
  // suppressed at the server's node.
  EXPECT_EQ(servant->value(), 5);
  const std::uint64_t withdrawn = sys.mech(NodeId{1}).stats().requests_withdrawn +
                                  sys.mech(NodeId{2}).stats().requests_withdrawn;
  EXPECT_EQ(withdrawn + sys.mech(NodeId{3}).stats().duplicate_requests_suppressed, 6u);
  EXPECT_GT(withdrawn, 0u) << "every twin request reached the ring";
  // Replies: there is one server replica, so each reply is multicast once
  // and both client nodes deliver that one copy; nothing to suppress.
  EXPECT_EQ(sys.mech(NodeId{1}).stats().duplicate_replies_suppressed, 0u);
  EXPECT_EQ(sys.mech(NodeId{3}).stats().replies_withdrawn, 0u);
}

TEST(MechanismsStats, DuplicateReplySuppressionForReplicatedServer) {
  SystemConfig cfg;
  cfg.nodes = 4;
  System sys(cfg);
  FtProperties props;
  props.style = ReplicationStyle::kActive;
  props.initial_replicas = 3;
  props.minimum_replicas = 1;
  const GroupId server =
      sys.deploy("b", "IDL:B:1.0", props, {NodeId{1}, NodeId{2}, NodeId{3}},
                 [&](NodeId) { return std::make_shared<CounterServant>(sys.sim()); });
  sys.deploy_client("app", NodeId{4}, {server});
  orb::ObjectRef ref = sys.client(NodeId{4}, server);

  for (int i = 0; i < 4; ++i) {
    bool done = false;
    ref.invoke("inc", CounterServant::encode_i32(1),
               [&done](const orb::ReplyOutcome&) { done = true; });
    ASSERT_TRUE(sys.run_until([&] { return done; }, Duration(1'000'000'000)));
  }
  sys.run_for(Duration(50'000'000));

  // Three replicas each answer every operation (5 ops: handshake + 4
  // increments); the first copy in the total order wins. Each of the two
  // redundant copies per op is either kept off the ring by its server node
  // or multicast and suppressed at the client's node.
  std::uint64_t withdrawn = 0;
  for (std::uint32_t n = 1; n <= 3; ++n) withdrawn += sys.mech(NodeId{n}).stats().replies_withdrawn;
  EXPECT_EQ(withdrawn + sys.mech(NodeId{4}).stats().duplicate_replies_suppressed, 2u * 5u);
  EXPECT_GT(withdrawn, 0u) << "every redundant reply reached the ring";
  EXPECT_EQ(sys.orb(NodeId{4}).stats().replies_discarded_request_id, 0u);
}

TEST(MechanismsStats, OnewaysReachEveryActiveReplica) {
  SystemConfig cfg;
  cfg.nodes = 4;
  System sys(cfg);
  FtProperties props;
  props.style = ReplicationStyle::kActive;
  props.initial_replicas = 2;
  props.minimum_replicas = 1;
  std::array<std::shared_ptr<CounterServant>, 5> servants{};
  const GroupId server = sys.deploy("b", "IDL:B:1.0", props, {NodeId{1}, NodeId{2}},
                                    [&](NodeId n) {
                                      auto s = std::make_shared<CounterServant>(sys.sim());
                                      servants[n.value] = s;
                                      return s;
                                    });
  sys.deploy_client("app", NodeId{4}, {server});
  orb::ObjectRef ref = sys.client(NodeId{4}, server);

  for (int i = 0; i < 3; ++i) ref.oneway("note", CounterServant::encode_i32(0));
  ASSERT_TRUE(sys.run_until(
      [&] { return servants[1]->notes() == 3 && servants[2]->notes() == 3; },
      Duration(1'000'000'000)));
  EXPECT_EQ(sys.orb(NodeId{4}).outstanding_requests(), 0u);
}

TEST(MechanismsStats, LaunchWithoutFactoryThrows) {
  SystemConfig cfg;
  cfg.nodes = 3;
  System sys(cfg);
  FtProperties props;
  props.style = ReplicationStyle::kActive;
  props.initial_replicas = 1;
  props.minimum_replicas = 1;
  const GroupId g = sys.deploy("b", "IDL:B:1.0", props, {NodeId{1}},
                               [&](NodeId) { return std::make_shared<CounterServant>(sys.sim()); },
                               {NodeId{1}});
  EXPECT_THROW(sys.mech(NodeId{3}).launch_replica(g), std::logic_error);
  EXPECT_THROW(sys.mech(NodeId{1}).launch_replica(GroupId{99}), std::logic_error);
  // Node 1 already hosts a live replica.
  EXPECT_THROW(sys.mech(NodeId{1}).launch_replica(g), std::logic_error);
}

TEST(MechanismsStats, GroupIorOfUnknownGroupThrows) {
  SystemConfig cfg;
  cfg.nodes = 2;
  System sys(cfg);
  EXPECT_THROW(sys.mech(NodeId{1}).group_ior(GroupId{7}), std::logic_error);
}

TEST(MechanismsStats, InterceptionCountersAdvance) {
  SystemConfig cfg;
  cfg.nodes = 3;
  System sys(cfg);
  FtProperties props;
  props.style = ReplicationStyle::kActive;
  props.initial_replicas = 1;
  props.minimum_replicas = 1;
  const GroupId g = sys.deploy("b", "IDL:B:1.0", props, {NodeId{1}}, [&](NodeId) {
    return std::make_shared<CounterServant>(sys.sim());
  });
  sys.deploy_client("app", NodeId{3}, {g});
  orb::ObjectRef ref = sys.client(NodeId{3}, g);
  bool done = false;
  ref.invoke("inc", CounterServant::encode_i32(1),
             [&done](const orb::ReplyOutcome&) { done = true; });
  ASSERT_TRUE(sys.run_until([&] { return done; }, Duration(1'000'000'000)));

  EXPECT_GE(sys.tap(NodeId{3}).stats().captured, 2u);  // handshake + request
  EXPECT_GE(sys.tap(NodeId{3}).stats().injected, 2u);  // handshake reply + reply
  EXPECT_GE(sys.tap(NodeId{1}).stats().injected, 2u);  // into the server ORB
  EXPECT_GE(sys.mech(NodeId{3}).stats().multicasts, 2u);
}

}  // namespace
}  // namespace eternal
