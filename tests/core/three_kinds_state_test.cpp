// The paper's central thesis (§4): recovering application-level state alone
// is NOT enough — the ORB/POA-level and infrastructure-level state must be
// retrieved, transferred and assigned with it, atomically. These tests turn
// each piggyback off and observe the specific breakage, then verify the
// atomic transfer cures it — on a brand-new node, where no local residue
// can mask a missing transfer.
#include <gtest/gtest.h>

#include "core/checkpointable.hpp"
#include "core/deployment.hpp"
#include "core/state_snapshots.hpp"
#include "support/counter_servant.hpp"
#include "util/any.hpp"

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

struct StateRig {
  explicit StateRig(bool transfer_orb, bool transfer_infra) {
    SystemConfig cfg;
    cfg.nodes = 5;
    cfg.mechanisms.transfer_orb_state = transfer_orb;
    cfg.mechanisms.transfer_infra_state = transfer_infra;
    sys = std::make_unique<System>(cfg);

    FtProperties props;
    props.style = ReplicationStyle::kActive;
    props.initial_replicas = 2;
    props.minimum_replicas = 1;
    props.fault_monitoring_interval = Duration(5'000'000);
    // Backup list excludes node 3 on purpose: the recovery target is a node
    // with no stake in the group, so every piece of ORB-level knowledge it
    // has can only come from the piggybacked transfer.
    group = sys->deploy("svc", "IDL:Svc:1.0", props, {NodeId{1}, NodeId{2}},
                        [this](NodeId n) {
                          auto s = std::make_shared<CounterServant>(sys->sim());
                          servants[n.value] = s;
                          return s;
                        },
                        {NodeId{1}, NodeId{2}});
    sys->deploy_client("app", NodeId{5}, {group});
    ref = sys->client(NodeId{5}, group);
  }

  bool invoke(std::int32_t delta) {
    bool done = false;
    ref.invoke("inc", CounterServant::encode_i32(delta),
               [&done](const orb::ReplyOutcome&) { done = true; });
    return sys->run_until([&] { return done; }, Duration(1'000'000'000));
  }

  /// Kills the replica on node 2 and recovers a replacement on the fresh
  /// node 3 (never hosted the group → no local state to fall back on).
  void replace_on_fresh_node() {
    sys->kill_replica(NodeId{2}, group);
    ASSERT_TRUE(sys->run_until(
        [&] {
          const auto* e = sys->mech(NodeId{1}).groups().find(group);
          return e != nullptr && e->members.size() == 1;
        },
        Duration(1'000'000'000)));
    sys->mech(NodeId{3}).register_factory(group, [this] {
      auto s = std::make_shared<CounterServant>(sys->sim());
      servants[3] = s;
      return s;
    });
    sys->mech(NodeId{3}).launch_replica(group);
    ASSERT_TRUE(sys->run_until(
        [&] { return sys->mech(NodeId{3}).hosts_operational(group); },
        Duration(2'000'000'000)));
  }

  std::unique_ptr<System> sys;
  GroupId group;
  orb::ObjectRef ref;
  std::array<std::shared_ptr<CounterServant>, 6> servants{};
};

TEST(ThreeKindsOfState, FullTransferIsExactOnceOnFreshNode) {
  StateRig rig(/*orb=*/true, /*infra=*/true);
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(rig.invoke(1));
  rig.replace_on_fresh_node();

  // Application-level state arrived...
  EXPECT_EQ(rig.servants[3]->value(), 4);
  // ...and the ORB-level handshake was re-enacted on the fresh node...
  EXPECT_GE(rig.sys->mech(NodeId{3}).stats().handshakes_injected, 1u);

  for (int i = 0; i < 3; ++i) ASSERT_TRUE(rig.invoke(1));
  rig.sys->run_for(Duration(50'000'000));
  EXPECT_EQ(rig.servants[3]->value(), 7);
  EXPECT_EQ(rig.servants[1]->value(), 7);
  EXPECT_EQ(rig.sys->orb(NodeId{3}).stats().requests_discarded_unknown_key, 0u);
}

TEST(ThreeKindsOfState, WithoutOrbStateFreshNodeDiscardsNegotiatedRequests) {
  // The paper's claim against application-state-only systems: the new
  // replica's application state is correct, yet it cannot serve, because
  // the ORB-level handshake results never reached its node.
  StateRig rig(/*orb=*/false, /*infra=*/true);
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(rig.invoke(1));
  rig.replace_on_fresh_node();

  EXPECT_EQ(rig.servants[3]->value(), 4) << "application-level state transferred fine";
  EXPECT_EQ(rig.sys->mech(NodeId{3}).stats().handshakes_injected, 0u);

  for (int i = 0; i < 3; ++i) ASSERT_TRUE(rig.invoke(1));
  rig.sys->run_for(Duration(50'000'000));
  EXPECT_EQ(rig.servants[1]->value(), 7) << "the surviving replica serves";
  EXPECT_LT(rig.servants[3]->value(), 7) << "the new replica silently diverges (§4.2.2)";
  EXPECT_GE(rig.sys->orb(NodeId{3}).stats().requests_discarded_unknown_key, 1u);
}

TEST(ThreeKindsOfState, AssignmentIsAtomicWithTraffic) {
  // Invocations pour in during the whole transfer; the three kinds of state
  // apply at one logical point: the replica processes exactly the suffix of
  // the stream past its get_state, never a message covered by the state.
  StateRig rig(/*orb=*/true, /*infra=*/true);
  int replies = 0;
  bool running = true;
  std::function<void()> loop = [&] {
    if (!running) return;
    rig.ref.invoke("inc", CounterServant::encode_i32(1), [&](const orb::ReplyOutcome&) {
      ++replies;
      loop();
    });
  };
  loop();
  ASSERT_TRUE(rig.sys->run_until([&] { return replies >= 5; }, Duration(1'000'000'000)));

  rig.replace_on_fresh_node();
  ASSERT_TRUE(rig.sys->run_until([&] { return replies >= 15; }, Duration(2'000'000'000)));
  running = false;
  rig.sys->run_for(Duration(20'000'000));

  EXPECT_EQ(rig.servants[1]->value(), replies);
  EXPECT_EQ(rig.servants[3]->value(), replies)
      << "double-applied or missed messages around the state-transfer point";
}

/// A middle tier that forwards each invocation to `second`, then to
/// `first`, and answers with the first one's reply; its application state
/// is the number of invocations.
class FanOutServant : public orb::Servant {
 public:
  FanOutServant(orb::ObjectRef first, orb::ObjectRef second)
      : first_(std::move(first)), second_(std::move(second)) {}

  void invoke(orb::ServerRequestPtr request) override {
    if (request->operation() == core::kGetStateOp) {
      request->reply(util::Any::of_ulonglong(calls_).to_bytes());
      return;
    }
    if (request->operation() == core::kSetStateOp) {
      calls_ = util::Any::from_bytes(request->args()).as_ulonglong();
      request->reply(util::Bytes{});
      return;
    }
    ++calls_;
    util::Bytes args(request->args().begin(), request->args().end());
    second_.invoke("inc", args, [this, request, args](const orb::ReplyOutcome&) {
      first_.invoke("inc", args,
                    [request](const orb::ReplyOutcome& out) { request->reply(out.body); });
    });
  }

 private:
  orb::ObjectRef first_, second_;
  std::uint64_t calls_ = 0;
};

TEST(ThreeKindsOfState, CheckpointSnapshotsListEachPairOnceInGroupOrder) {
  // A warm-passive group W serves two client groups and is the client of two
  // server groups. Its checkpoint's ORB/POA-level and infrastructure-level
  // snapshots name exactly W's own connections — as the client of B1 and B2
  // and as the server of C1 and C2 — each once, in group-id order, whatever
  // order they were first used in (C2 and B2 first here). The node that
  // takes it only served C1 and C2: they carry no client connection, and the
  // duplicate filters the node keeps for C1's and C2's own client role, or
  // for B1's and B2's server role, are not W's state.
  SystemConfig cfg;
  cfg.nodes = 5;
  System sys(cfg);
  FtProperties backend;
  backend.initial_replicas = 1;
  backend.minimum_replicas = 1;
  const auto counter = [&sys](NodeId) { return std::make_shared<CounterServant>(sys.sim()); };
  const GroupId b1 = sys.deploy("b1", "IDL:B:1.0", backend, {NodeId{3}}, counter);
  const GroupId b2 = sys.deploy("b2", "IDL:B:1.0", backend, {NodeId{3}}, counter);
  FtProperties warm;
  warm.style = ReplicationStyle::kWarmPassive;
  warm.minimum_replicas = 1;
  warm.checkpoint_interval = Duration(20'000'000);
  const GroupId w =
      sys.deploy("w", "IDL:W:1.0", warm, {NodeId{1}, NodeId{2}}, [&](NodeId n) {
        return std::make_shared<FanOutServant>(sys.client(n, b1), sys.client(n, b2));
      });
  for (NodeId n : {NodeId{1}, NodeId{2}}) {
    sys.bind_client(n, w, b1);
    sys.bind_client(n, w, b2);
  }
  const GroupId c1 = sys.deploy_client("c1", NodeId{4}, {w});
  const GroupId c2 = sys.deploy_client("c2", NodeId{5}, {w});
  ASSERT_LT(b1.value, b2.value);
  ASSERT_LT(c1.value, c2.value);

  for (NodeId n : {NodeId{5}, NodeId{4}, NodeId{5}}) {
    bool done = false;
    sys.client(n, w).invoke("forward", CounterServant::encode_i32(1),
                            [&done](const orb::ReplyOutcome&) { done = true; });
    ASSERT_TRUE(sys.run_until([&] { return done; }, Duration(500'000'000)));
  }
  sys.run_for(Duration(50'000'000));  // a checkpoint after the last call

  const core::MessageLog* log = sys.mech(NodeId{1}).log_of(w);
  ASSERT_NE(log, nullptr);
  ASSERT_TRUE(log->checkpoint().has_value());
  const std::optional<core::OrbLevelState> orb =
      core::decode_orb_state(log->checkpoint()->orb_state);
  const std::optional<core::InfraLevelState> infra =
      core::decode_infra_state(log->checkpoint()->infra_state);
  ASSERT_TRUE(orb.has_value());
  ASSERT_TRUE(infra.has_value());

  // Client connections: one per server group W called, each negotiated and
  // numbered past its handshake and three calls.
  ASSERT_EQ(orb->client_conns.size(), 2u);
  EXPECT_EQ(orb->client_conns[0].server_group, b1);
  EXPECT_EQ(orb->client_conns[1].server_group, b2);
  for (const core::ClientConnState& cs : orb->client_conns) {
    EXPECT_TRUE(cs.handshake_done);
    EXPECT_EQ(cs.next_group_request_id, 4u);
    EXPECT_FALSE(cs.handshake_request.empty());
    EXPECT_FALSE(cs.handshake_reply.empty());
  }
  // Server handshakes: one per client group, named by its group endpoint.
  ASSERT_EQ(orb->server_conns.size(), 2u);
  EXPECT_EQ(orb->server_conns[0].client, orb::group_endpoint(c1));
  EXPECT_EQ(orb->server_conns[1].client, orb::group_endpoint(c2));
  for (const core::ServerConnState& ss : orb->server_conns) {
    EXPECT_FALSE(ss.handshake_request.empty());
  }

  // Filters: requests W received, by client; replies W received, by server.
  ASSERT_EQ(infra->requests_seen.size(), 2u);
  EXPECT_EQ(infra->requests_seen[0].client_group, c1);
  EXPECT_EQ(infra->requests_seen[1].client_group, c2);
  EXPECT_TRUE(infra->requests_seen[0].seen.seen(1));   // c1's one call
  EXPECT_FALSE(infra->requests_seen[0].seen.seen(2));
  EXPECT_TRUE(infra->requests_seen[1].seen.seen(2));   // c2's two calls
  ASSERT_EQ(infra->replies_seen.size(), 2u);
  EXPECT_EQ(infra->replies_seen[0].server_group, b1);
  EXPECT_EQ(infra->replies_seen[1].server_group, b2);
  for (const auto& rf : infra->replies_seen) EXPECT_TRUE(rf.seen.seen(3));
}

}  // namespace
}  // namespace eternal
