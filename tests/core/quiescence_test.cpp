// Quiescence-gated delivery (paper §5): get_state() is delivered only when
// the object is quiescent; messages arriving during state retrieval are
// enqueued at both the existing and the new replica and delivered in order
// afterwards (Figure 5 steps i-vi); oneways extend non-quiescence.
#include <gtest/gtest.h>

#include "core/checkpointable.hpp"
#include "core/deployment.hpp"
#include "obs/spans.hpp"
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

struct SlowRig {
  explicit SlowRig(Duration op_time) {
    SystemConfig cfg;
    cfg.nodes = 4;
    sys = std::make_unique<System>(cfg);
    FtProperties props;
    props.style = ReplicationStyle::kActive;
    props.initial_replicas = 2;
    props.minimum_replicas = 1;
    props.fault_monitoring_interval = Duration(5'000'000);
    group = sys->deploy("slow", "IDL:Slow:1.0", props, {NodeId{1}, NodeId{2}},
                        [this, op_time](NodeId n) {
                          auto s = std::make_shared<CounterServant>(sys->sim(), 64, op_time);
                          servants[n.value] = s;
                          return s;
                        });
    sys->deploy_client("app", NodeId{4}, {group});
    ref = sys->client(NodeId{4}, group);
  }

  std::unique_ptr<System> sys;
  GroupId group;
  orb::ObjectRef ref;
  std::array<std::shared_ptr<CounterServant>, 5> servants{};
};

TEST(Quiescence, InvocationsDuringStateRetrievalAreEnqueuedAndReplayed) {
  // Long-running operations (2 ms) so the recovery's get_state lands while
  // traffic is in flight.
  SlowRig rig(Duration(2'000'000));
  int replies = 0;
  auto fire = [&] {
    rig.ref.invoke("inc", CounterServant::encode_i32(1),
                   [&](const orb::ReplyOutcome&) { ++replies; });
  };
  fire();
  ASSERT_TRUE(rig.sys->run_until([&] { return replies == 1; }, Duration(500'000'000)));

  rig.sys->kill_replica(NodeId{2}, rig.group);
  ASSERT_TRUE(rig.sys->run_until(
      [&] {
        const auto* e = rig.sys->mech(NodeId{1}).groups().find(rig.group);
        return e != nullptr && e->members.size() == 1;
      },
      Duration(500'000'000)));

  // Launch recovery and immediately pour invocations X, Y, Z into the group
  // — they must be enqueued at the recovering replica and delivered after
  // its set_state (Fig. 5), ending exactly once everywhere.
  rig.sys->relaunch_replica(NodeId{2}, rig.group);
  for (int i = 0; i < 3; ++i) fire();
  ASSERT_TRUE(rig.sys->run_until([&] { return replies == 4; }, Duration(2'000'000'000)));
  ASSERT_TRUE(rig.sys->run_until(
      [&] { return rig.sys->mech(NodeId{2}).hosts_operational(rig.group); },
      Duration(2'000'000'000)));
  ASSERT_TRUE(rig.sys->run_until([&] { return rig.servants[2]->value() == 4; },
                                 Duration(2'000'000'000)));

  EXPECT_EQ(rig.servants[1]->value(), 4);
  EXPECT_EQ(rig.servants[2]->value(), 4);
  EXPECT_GE(rig.sys->mech(NodeId{2}).stats().enqueued_during_recovery, 1u);
}

TEST(Quiescence, SetStateDiscardedAtExistingReplicaInQueueOrder) {
  SlowRig rig(Duration(500'000));
  int replies = 0;
  rig.ref.invoke("inc", CounterServant::encode_i32(1),
                 [&](const orb::ReplyOutcome&) { ++replies; });
  ASSERT_TRUE(rig.sys->run_until([&] { return replies == 1; }, Duration(500'000'000)));

  rig.sys->kill_replica(NodeId{2}, rig.group);
  ASSERT_TRUE(rig.sys->run_until(
      [&] {
        const auto* e = rig.sys->mech(NodeId{1}).groups().find(rig.group);
        return e != nullptr && e->members.size() == 1;
      },
      Duration(500'000'000)));
  rig.sys->relaunch_replica(NodeId{2}, rig.group);
  ASSERT_TRUE(rig.sys->run_until(
      [&] { return rig.sys->mech(NodeId{2}).hosts_operational(rig.group); },
      Duration(2'000'000'000)));

  // Paper §5.1(vi): the set_state reached the existing replica's queue and
  // was discarded there.
  EXPECT_GE(rig.sys->mech(NodeId{1}).stats().set_state_discarded_at_existing, 1u);
}

TEST(Quiescence, OnewaysExtendNonQuiescence) {
  SlowRig rig(Duration(100'000));
  // A oneway makes the object busy for the configured grace period; a
  // following two-way is delivered only afterwards, in order.
  rig.ref.oneway("note", CounterServant::encode_i32(0));
  int replies = 0;
  rig.ref.invoke("inc", CounterServant::encode_i32(1),
                 [&](const orb::ReplyOutcome&) { ++replies; });
  ASSERT_TRUE(rig.sys->run_until([&] { return replies == 1; }, Duration(500'000'000)));
  EXPECT_EQ(rig.servants[1]->notes(), 1u);
  EXPECT_EQ(rig.servants[1]->value(), 1);
  EXPECT_EQ(rig.servants[2]->notes(), 1u);
}

TEST(Quiescence, StreamContinuesDuringRecovery) {
  // The system never pauses: the existing replica serves the stream while
  // the new replica is being recovered concurrently (paper abstract, §3.3).
  SlowRig rig(Duration(300'000));
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
  ASSERT_TRUE(rig.sys->run_until([&] { return replies >= 3; }, Duration(500'000'000)));

  rig.sys->kill_replica(NodeId{2}, rig.group);
  ASSERT_TRUE(rig.sys->run_until(
      [&] {
        const auto* e = rig.sys->mech(NodeId{1}).groups().find(rig.group);
        return e != nullptr && e->members.size() == 1;
      },
      Duration(500'000'000)));
  const int before = replies;
  rig.sys->relaunch_replica(NodeId{2}, rig.group);
  ASSERT_TRUE(rig.sys->run_until(
      [&] { return rig.sys->mech(NodeId{2}).hosts_operational(rig.group); },
      Duration(2'000'000'000)));
  EXPECT_GT(replies, before) << "the stream must keep flowing during recovery";
  running = false;
  rig.sys->run_for(Duration(10'000'000));

  ASSERT_TRUE(rig.sys->run_until(
      [&] { return rig.servants[2]->value() == rig.servants[1]->value(); },
      Duration(2'000'000'000)));
}

/// A counter that replies without the POA's execution gate, so a fast "inc"
/// overtakes a "slow" op admitted before it and its reply parks in the
/// engine's in-order sequencer. `on_get_state` runs when a fabricated
/// get_state reaches the servant.
class UngatedServant : public orb::Servant {
 public:
  explicit UngatedServant(sim::Simulator& sim) : sim_(sim) {}

  void invoke(orb::ServerRequestPtr request) override {
    const std::string& op = request->operation();
    if (op == core::kGetStateOp && on_get_state) on_get_state();
    const bool state_op = op == core::kGetStateOp || op == core::kSetStateOp;
    const Duration delay = state_op        ? Duration(20'000)
                           : op == "slow" ? Duration(3'000'000)
                                          : Duration(100'000);
    sim_.schedule(delay, [this, request] {
      const std::string& op = request->operation();
      if (op == core::kGetStateOp) {
        request->reply(util::Any::of_long(value_).to_bytes());
      } else if (op == core::kSetStateOp) {
        value_ = util::Any::from_bytes(request->args()).as_long();
        request->reply({});
      } else {
        request->reply(CounterServant::encode_i32(++value_));
      }
    });
  }

  std::int32_t value() const noexcept { return value_; }
  std::function<void()> on_get_state;

 private:
  sim::Simulator& sim_;
  std::int32_t value_ = 0;
};

TEST(Quiescence, GetStateWaitsForEveryInflightFomAtConcurrencyFour) {
  SystemConfig cfg;
  cfg.nodes = 4;
  cfg.orb.poa_max_inflight = 4;
  cfg.trace_capacity = 1u << 16;
  cfg.span_capacity = 1u << 14;
  System sys(cfg);
  FtProperties props;
  props.style = ReplicationStyle::kActive;
  props.initial_replicas = 2;
  props.minimum_replicas = 1;
  props.fault_monitoring_interval = Duration(5'000'000);
  std::array<std::shared_ptr<UngatedServant>, 5> servants{};
  const GroupId group = sys.deploy("ungated", "IDL:Ungated:1.0", props,
                                   {NodeId{1}, NodeId{2}}, [&](NodeId n) {
                                     auto s = std::make_shared<UngatedServant>(sys.sim());
                                     servants[n.value] = s;
                                     return s;
                                   });
  sys.deploy_client("app", NodeId{4}, {group});
  orb::ObjectRef ref = sys.client(NodeId{4}, group);
  int replies = 0;
  auto fire = [&](const char* op) {
    ref.invoke(op, {}, [&](const orb::ReplyOutcome&) { ++replies; });
  };

  sys.kill_replica(NodeId{2}, group);
  ASSERT_TRUE(sys.run_until(
      [&] { return sys.mech(NodeId{1}).groups().find(group)->members.size() == 1; },
      Duration(500'000'000)));

  // slow, inc, slow, slow, slow: the inc overtakes the first slow op and
  // parks; the fifth item takes its slot. Four FOMs in flight, one reply
  // parked, for the ~3 ms the slow ops run.
  const core::exec::ReplicaEngine& engine = *sys.mech(NodeId{1}).engine_of(group);
  for (const char* op : {"slow", "inc", "slow", "slow", "slow"}) fire(op);
  ASSERT_TRUE(sys.run_until(
      [&] { return engine.inflight() == 4 && engine.parked() == 1; }, Duration(50'000'000),
      Duration(1'000)));

  struct AtGetState {
    bool seen = false;
    std::size_t inflight = 0, parked = 0;
    std::uint64_t admitted = 0, retired = 0;
  } at_get_state;
  servants[1]->on_get_state = [&] {
    at_get_state = {true, engine.inflight(), engine.parked(), engine.stats().admitted,
                    engine.stats().retired};
  };

  // The recovery's get_state reaches the front of node 1's run queue while
  // that window is open.
  sys.relaunch_replica(NodeId{2}, group);
  ASSERT_TRUE(sys.run_until([&] { return sys.mech(NodeId{1}).queued_messages(group) > 0; },
                            Duration(50'000'000), Duration(1'000)));
  EXPECT_EQ(engine.inflight(), 4u);
  EXPECT_EQ(engine.parked(), 1u);
  // Requests ordered behind the get_state must wait for its set_state.
  for (int i = 0; i < 3; ++i) fire("inc");

  ASSERT_TRUE(sys.run_until([&] { return sys.mech(NodeId{2}).hosts_operational(group); },
                            Duration(2'000'000'000)));
  ASSERT_TRUE(sys.run_until([&] { return replies == 8; }, Duration(2'000'000'000)));

  // Injected only once every earlier FOM retired and its reply flushed.
  ASSERT_TRUE(at_get_state.seen);
  EXPECT_EQ(at_get_state.inflight, 0u);
  EXPECT_EQ(at_get_state.parked, 0u);
  EXPECT_EQ(at_get_state.admitted, 5u);
  EXPECT_EQ(at_get_state.retired, 5u);

  // Nothing is injected between the get_state and its published set_state.
  const auto& done = sys.spans()->recovery().completed();
  ASSERT_EQ(done.size(), 1u);
  const util::TimePoint quiescent =
      done[0].launched_at + done[0].fault_detection + done[0].quiesce;
  const util::TimePoint captured = quiescent + done[0].get_state;
  EXPECT_GT(captured, quiescent);
  std::size_t injected_after = 0;
  for (const obs::TraceEvent& ev : sys.trace()->snapshot()) {
    if (ev.node != NodeId{1} || ev.kind != "request_inject") continue;
    if (ev.fields.num("group") != group.value) continue;
    EXPECT_FALSE(ev.sim_time >= quiescent && ev.sim_time < captured)
        << "request injected inside the get_state barrier";
    if (ev.sim_time >= captured) ++injected_after;
  }
  EXPECT_EQ(injected_after, 3u);

  // The recoverer converges.
  ASSERT_TRUE(sys.run_until([&] { return servants[2]->value() == servants[1]->value(); },
                            Duration(500'000'000)));
  EXPECT_EQ(servants[1]->value(), 8);
}

}  // namespace
}  // namespace eternal
