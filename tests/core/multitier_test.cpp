// Multi-tier scenarios (paper footnote 2: middle tiers play both the client
// and the server role; replicating them replicates both sides).
#include <gtest/gtest.h>

#include "core/deployment.hpp"
#include "support/counter_servant.hpp"
#include "support/forwarder_servant.hpp"

namespace eternal {
namespace {

using core::FtProperties;
using core::ReplicationStyle;
using core::System;
using core::SystemConfig;
using test_support::CounterServant;
using test_support::ForwarderServant;
using util::Duration;
using util::GroupId;
using util::NodeId;

struct TierRig {
  explicit TierRig(ReplicationStyle middle_style) {
    SystemConfig cfg;
    cfg.nodes = 4;
    sys = std::make_unique<System>(cfg);

    FtProperties backend_props;
    backend_props.style = ReplicationStyle::kActive;
    backend_props.initial_replicas = 1;
    backend_props.minimum_replicas = 1;
    backend = sys->deploy("backend", "IDL:Backend:1.0", backend_props, {NodeId{3}},
                          [this](NodeId) {
                            backend_servant = std::make_shared<CounterServant>(sys->sim());
                            return backend_servant;
                          });

    FtProperties middle_props;
    middle_props.style = middle_style;
    middle_props.initial_replicas = 2;
    middle_props.minimum_replicas = 1;
    middle_props.checkpoint_interval = Duration(20'000'000);
    middle_props.fault_monitoring_interval = Duration(5'000'000);
    middle = sys->deploy("middle", "IDL:Middle:1.0", middle_props, {NodeId{1}, NodeId{2}},
                         [this](NodeId n) {
                           auto s = std::make_shared<ForwarderServant>(
                               sys->client(n, backend), "inc");
                           middle_servants[n.value] = s;
                           return s;
                         });
    sys->bind_client(NodeId{1}, middle, backend);
    sys->bind_client(NodeId{2}, middle, backend);
    sys->deploy_client("app", NodeId{4}, {middle});
    ref = sys->client(NodeId{4}, middle);
  }

  bool invoke(std::int32_t delta, std::int32_t* out = nullptr) {
    bool done = false;
    ref.invoke("forward", CounterServant::encode_i32(delta),
               [&done, out](const orb::ReplyOutcome& reply) {
                 if (out != nullptr && reply.status == giop::ReplyStatus::kNoException) {
                   *out = CounterServant::decode_i32(reply.body);
                 }
                 done = true;
               });
    return sys->run_until([&] { return done; }, Duration(500'000'000));
  }

  std::unique_ptr<System> sys;
  GroupId backend, middle;
  std::shared_ptr<CounterServant> backend_servant;
  std::array<std::shared_ptr<ForwarderServant>, 5> middle_servants{};
  orb::ObjectRef ref;
};

TEST(MultiTier, ActiveMiddleTierForwardsExactlyOnce) {
  TierRig rig(ReplicationStyle::kActive);
  std::int32_t result = 0;
  ASSERT_TRUE(rig.invoke(7, &result));
  EXPECT_EQ(result, 7);
  // Both middle replicas forwarded, the backend executed once.
  EXPECT_EQ(rig.middle_servants[1]->forwarded(), 1u);
  EXPECT_EQ(rig.middle_servants[2]->forwarded(), 1u);
  EXPECT_EQ(rig.backend_servant->value(), 7);

  for (int i = 0; i < 4; ++i) ASSERT_TRUE(rig.invoke(1));
  EXPECT_EQ(rig.backend_servant->value(), 11);
}

/// A middle tier that answers each invocation at once with its forward
/// count and issues the nested call `lag` later — the first one without
/// lag, so both replicas' ORBs negotiate the connection together. A replica
/// with a long lag then issues each nested call after a sibling's copy of it
/// has already been answered.
class LaggingForwarder : public orb::Servant {
 public:
  LaggingForwarder(sim::Simulator& sim, orb::ObjectRef backend, Duration lag)
      : sim_(sim), backend_(std::move(backend)), lag_(lag) {}

  void invoke(orb::ServerRequestPtr request) override {
    const Duration lag = forwarded_++ == 0 ? Duration(0) : lag_;
    sim_.schedule(lag, [this, args = util::Bytes(request->args().begin(),
                                                  request->args().end())]() mutable {
      backend_.invoke("inc", std::move(args),
                      [this](const orb::ReplyOutcome&) { answered_ += 1; });
    });
    request->reply(CounterServant::encode_i32(static_cast<std::int32_t>(forwarded_)));
  }

  /// Nested calls whose reply reached this replica's ORB.
  std::uint64_t answered() const { return answered_; }

 private:
  sim::Simulator& sim_;
  orb::ObjectRef backend_;
  Duration lag_;
  std::uint64_t forwarded_ = 0;
  std::uint64_t answered_ = 0;
};

TEST(MultiTier, SlowActiveSiblingCapturingAfterTheReplyKeepsNoTranslation) {
  // The middle tier is active on nodes 1 and 2; after the first call, node
  // 2's replica issues its nested calls 20 ms late, long after node 1's
  // copies were executed by the backend and their replies delivered on
  // node 2. Node 2's late copy stays off the ring and is answered from the
  // reply cache. It must keep no request-id translation either: nothing
  // would ever retire it, so every slow capture would grow the connection's
  // bookkeeping for good.
  SystemConfig cfg;
  cfg.nodes = 4;
  System sys(cfg);
  FtProperties backend_props;
  backend_props.style = ReplicationStyle::kActive;
  backend_props.initial_replicas = 1;
  backend_props.minimum_replicas = 1;
  std::shared_ptr<CounterServant> backend_servant;
  const GroupId backend = sys.deploy("backend", "IDL:Backend:1.0", backend_props, {NodeId{3}},
                                     [&](NodeId) {
                                       backend_servant =
                                           std::make_shared<CounterServant>(sys.sim());
                                       return backend_servant;
                                     });
  FtProperties middle_props;
  middle_props.style = ReplicationStyle::kActive;
  middle_props.initial_replicas = 2;
  middle_props.minimum_replicas = 1;
  std::array<std::shared_ptr<LaggingForwarder>, 3> forwarders{};
  const GroupId middle =
      sys.deploy("middle", "IDL:Middle:1.0", middle_props, {NodeId{1}, NodeId{2}},
                 [&](NodeId n) {
                   const Duration lag = n == NodeId{2} ? Duration(20'000'000) : Duration(0);
                   forwarders[n.value] = std::make_shared<LaggingForwarder>(
                       sys.sim(), sys.client(n, backend), lag);
                   return forwarders[n.value];
                 });
  sys.bind_client(NodeId{1}, middle, backend);
  sys.bind_client(NodeId{2}, middle, backend);
  sys.deploy_client("app", NodeId{4}, {middle});
  orb::ObjectRef ref = sys.client(NodeId{4}, middle);

  constexpr int kCalls = 6;
  for (int i = 0; i < kCalls; ++i) {
    bool done = false;
    ref.invoke("forward", CounterServant::encode_i32(1),
               [&done](const orb::ReplyOutcome&) { done = true; });
    ASSERT_TRUE(sys.run_until([&] { return done; }, Duration(500'000'000)));
  }
  sys.sim().run_for(Duration(100'000'000));  // every late capture has happened

  EXPECT_EQ(backend_servant->value(), kCalls);  // executed once per call
  EXPECT_GE(sys.mech(NodeId{2}).stats().requests_withdrawn,
            static_cast<std::uint64_t>(kCalls - 1));
  EXPECT_EQ(sys.mech(NodeId{1}).pending_translations(middle, backend), 0u);
  EXPECT_EQ(sys.mech(NodeId{2}).pending_translations(middle, backend), 0u);
  // Both replicas' ORBs got every nested reply, the slow one's late copies
  // from the reply cache, and neither waits for one.
  EXPECT_EQ(forwarders[1]->answered(), static_cast<std::uint64_t>(kCalls));
  EXPECT_EQ(forwarders[2]->answered(), static_cast<std::uint64_t>(kCalls));
  EXPECT_GE(sys.mech(NodeId{2}).stats().replies_answered_from_cache,
            static_cast<std::uint64_t>(kCalls - 1));
  EXPECT_EQ(sys.orb(NodeId{1}).outstanding_requests(), 0u);
  EXPECT_EQ(sys.orb(NodeId{2}).outstanding_requests(), 0u);
}

TEST(MultiTier, MiddleTierActiveReplicaFailureMasked) {
  TierRig rig(ReplicationStyle::kActive);
  ASSERT_TRUE(rig.invoke(1));
  rig.sys->kill_replica(NodeId{1}, rig.middle);
  std::int32_t result = 0;
  ASSERT_TRUE(rig.invoke(1, &result));
  EXPECT_EQ(result, 2);
  EXPECT_EQ(rig.backend_servant->value(), 2);
}

TEST(MultiTier, WarmPassivePromotionReplaysWithoutReexecutingBackend) {
  TierRig rig(ReplicationStyle::kWarmPassive);
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(rig.invoke(1));
  ASSERT_EQ(rig.backend_servant->value(), 3);
  // Only the primary forwarded; the backup logged.
  EXPECT_EQ(rig.middle_servants[1]->forwarded(), 3u);
  EXPECT_EQ(rig.middle_servants[2]->forwarded(), 0u);

  rig.sys->kill_replica(NodeId{1}, rig.middle);

  std::int32_t result = 0;
  ASSERT_TRUE(rig.invoke(1, &result));
  EXPECT_EQ(result, 4);
  // The promoted backup replayed the logged requests, but the re-issued
  // nested invocations were answered from the reply cache: the backend must
  // NOT have executed them twice.
  EXPECT_EQ(rig.backend_servant->value(), 4);
  EXPECT_GE(rig.sys->mech(NodeId{2}).stats().replies_answered_from_cache, 1u);
}

TEST(MultiTier, RecoveredMiddleReplicaRejoinsBothRoles) {
  TierRig rig(ReplicationStyle::kActive);
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(rig.invoke(1));

  rig.sys->kill_replica(NodeId{2}, rig.middle);
  ASSERT_TRUE(rig.sys->run_until(
      [&] {
        const auto* e = rig.sys->mech(NodeId{1}).groups().find(rig.middle);
        return e != nullptr && e->members.size() == 1;
      },
      Duration(300'000'000)));

  // The middle servant is recreated with a fresh reference (fresh process).
  rig.sys->relaunch_replica(NodeId{2}, rig.middle);
  ASSERT_TRUE(rig.sys->run_until(
      [&] { return rig.sys->mech(NodeId{2}).hosts_operational(rig.middle); },
      Duration(500'000'000)));
  // Application-level state (the forward counter) was transferred.
  EXPECT_EQ(rig.middle_servants[2]->forwarded(), 3u);

  std::int32_t result = 0;
  ASSERT_TRUE(rig.invoke(1, &result));
  EXPECT_EQ(result, 4);
  EXPECT_EQ(rig.backend_servant->value(), 4);
  EXPECT_EQ(rig.middle_servants[2]->forwarded(), 4u);
  // Neither client-side ORB of the middle tier is stuck (request_ids were
  // synchronized for the recovered replica's connection to the backend).
  ASSERT_TRUE(rig.sys->run_until(
      [&] {
        return rig.sys->orb(NodeId{1}).outstanding_requests() == 0 &&
               rig.sys->orb(NodeId{2}).outstanding_requests() == 0;
      },
      Duration(300'000'000)));
}

TEST(MultiTier, RecoveredClientReplicaHandshakeIsAnsweredLocally) {
  // §4.2.2, client side: the relaunched middle replica's fresh ORB opens its
  // connection to the backend again, handshake first. The group already
  // negotiated it, so the Mechanisms answer the handshake from the stored
  // reply instead of sending it to the backend, and the replica's first
  // nested call after recovery goes through on the restored connection.
  TierRig rig(ReplicationStyle::kActive);
  for (int i = 0; i < 2; ++i) ASSERT_TRUE(rig.invoke(1));
  const core::Mechanisms& node2 = rig.sys->mech(NodeId{2});
  EXPECT_EQ(node2.stats().handshakes_answered_locally, 0u);
  const std::uint64_t served = rig.sys->orb(NodeId{3}).stats().handshakes_served;

  rig.sys->kill_replica(NodeId{2}, rig.middle);
  ASSERT_TRUE(rig.sys->run_until(
      [&] {
        const auto* e = rig.sys->mech(NodeId{1}).groups().find(rig.middle);
        return e != nullptr && e->members.size() == 1;
      },
      Duration(300'000'000)));
  rig.sys->relaunch_replica(NodeId{2}, rig.middle);
  ASSERT_TRUE(rig.sys->run_until([&] { return node2.hosts_operational(rig.middle); },
                                 Duration(500'000'000)));
  ASSERT_EQ(rig.middle_servants[2]->answered(), 0u);  // the fresh servant

  std::int32_t result = 0;
  ASSERT_TRUE(rig.invoke(1, &result));
  EXPECT_EQ(result, 3);
  ASSERT_TRUE(rig.sys->run_until([&] { return rig.middle_servants[2]->answered() == 1; },
                                 Duration(300'000'000)));
  EXPECT_GE(node2.stats().handshakes_answered_locally, 1u);
  EXPECT_EQ(rig.sys->orb(NodeId{3}).stats().handshakes_served, served)
      << "the backend never saw the re-negotiation";
  EXPECT_EQ(rig.backend_servant->value(), 3);
  EXPECT_EQ(rig.sys->orb(NodeId{2}).outstanding_requests(), 0u);
}

}  // namespace
}  // namespace eternal
