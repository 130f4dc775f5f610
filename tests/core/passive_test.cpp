// Passive replication: periodic checkpointing, message logging, warm
// promotion with log replay, cold restart from the log (paper §3.2, §3.3).
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

struct PassiveRig {
  explicit PassiveRig(ReplicationStyle style, Duration checkpoint_interval = Duration(20'000'000)) {
    SystemConfig cfg;
    cfg.nodes = 4;
    sys = std::make_unique<System>(cfg);

    FtProperties props;
    props.style = style;
    props.checkpoint_interval = checkpoint_interval;
    props.fault_monitoring_interval = Duration(5'000'000);
    props.initial_replicas = style == ReplicationStyle::kColdPassive ? 1 : 2;
    props.minimum_replicas = 1;

    std::vector<NodeId> placement =
        style == ReplicationStyle::kColdPassive
            ? std::vector<NodeId>{NodeId{1}}
            : std::vector<NodeId>{NodeId{1}, NodeId{2}};
    group = sys->deploy(
        "account", "IDL:Account:1.0", props, placement,
        [this](NodeId n) {
          auto s = std::make_shared<CounterServant>(sys->sim());
          servants[n.value] = s;
          return s;
        },
        {NodeId{2}, NodeId{3}});
    sys->deploy_client("driver", NodeId{4}, {group});
    ref = sys->client(NodeId{4}, group);
  }

  bool invoke_and_wait(std::int32_t delta, std::int32_t* out = nullptr) {
    bool done = false;
    ref.invoke("inc", CounterServant::encode_i32(delta),
               [&done, out](const orb::ReplyOutcome& reply) {
                 if (out != nullptr && reply.status == giop::ReplyStatus::kNoException) {
                   *out = CounterServant::decode_i32(reply.body);
                 }
                 done = true;
               });
    return sys->run_until([&done] { return done; }, Duration(300'000'000));
  }

  std::unique_ptr<System> sys;
  GroupId group;
  orb::ObjectRef ref;
  std::array<std::shared_ptr<CounterServant>, 5> servants{};
};

TEST(WarmPassive, OnlyPrimaryExecutes) {
  PassiveRig rig(ReplicationStyle::kWarmPassive);
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(rig.invoke_and_wait(1));
  EXPECT_EQ(rig.servants[1]->value(), 3);       // primary executed
  EXPECT_EQ(rig.servants[2]->ops_served(), 0u); // backup executed nothing
}

TEST(WarmPassive, CheckpointSynchronizesBackup) {
  PassiveRig rig(ReplicationStyle::kWarmPassive);
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(rig.invoke_and_wait(5));
  ASSERT_EQ(rig.servants[1]->value(), 20);

  // After a checkpoint interval the backup's state matches the primary's.
  ASSERT_TRUE(rig.sys->run_until(
      [&] { return rig.servants[2]->value() == 20; }, Duration(200'000'000)));
  EXPECT_GE(rig.servants[2]->set_state_calls(), 1u);
  EXPECT_EQ(rig.servants[2]->ops_served(), 0u);

  const core::MessageLog* log = rig.sys->mech(NodeId{2}).log_of(rig.group);
  ASSERT_NE(log, nullptr);
  EXPECT_GE(log->checkpoints_taken(), 1u);
}

TEST(WarmPassive, PrimaryFailurepromotesBackupWithLogReplay) {
  PassiveRig rig(ReplicationStyle::kWarmPassive);
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(rig.invoke_and_wait(1));
  // Wait for at least one checkpoint so promotion exercises checkpoint+log.
  ASSERT_TRUE(rig.sys->run_until(
      [&] { return rig.servants[2]->set_state_calls() >= 1; }, Duration(200'000'000)));
  // More work after the checkpoint: these live only in the log.
  for (int i = 0; i < 2; ++i) ASSERT_TRUE(rig.invoke_and_wait(1));
  ASSERT_EQ(rig.servants[1]->value(), 5);

  rig.sys->kill_replica(NodeId{1}, rig.group);

  // The backup is promoted, replays the logged messages, and serves on.
  std::int32_t result = 0;
  ASSERT_TRUE(rig.invoke_and_wait(1, &result));
  EXPECT_EQ(result, 6);
  EXPECT_EQ(rig.servants[2]->value(), 6);
  EXPECT_GE(rig.sys->mech(NodeId{2}).stats().promotions, 1u);
  EXPECT_GE(rig.sys->mech(NodeId{2}).stats().log_replayed_messages, 1u);
}

TEST(ColdPassive, RestartFromLogAfterPrimaryFailure) {
  PassiveRig rig(ReplicationStyle::kColdPassive);
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(rig.invoke_and_wait(2));
  ASSERT_EQ(rig.servants[1]->value(), 10);

  // The backup nodes keep the checkpoint+message log without any servant.
  EXPECT_EQ(rig.servants[2], nullptr);
  const core::MessageLog* log = rig.sys->mech(NodeId{2}).log_of(rig.group);
  ASSERT_NE(log, nullptr);
  EXPECT_GE(log->messages().size() + (log->checkpoint() ? 1 : 0), 1u);

  rig.sys->kill_replica(NodeId{1}, rig.group);

  // First live backup node launches a new primary from its log.
  std::int32_t result = 0;
  ASSERT_TRUE(rig.invoke_and_wait(1, &result));
  EXPECT_EQ(result, 11);
  ASSERT_NE(rig.servants[2], nullptr);
  EXPECT_EQ(rig.servants[2]->value(), 11);
  EXPECT_GE(rig.sys->mech(NodeId{2}).stats().promotions, 1u);
}

TEST(WarmPassive, RecoveredBackupPromotesWithoutReplayingCoveredMessages) {
  // Regression: a backup that joined via recovery state transfer must not,
  // when later promoted, replay log entries already covered by the
  // transferred state (that double-applies operations).
  PassiveRig rig(ReplicationStyle::kWarmPassive, Duration(500'000'000) /* no checkpoints */);
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(rig.invoke_and_wait(1));

  // Replace the backup: kill it and recover a fresh one on the same node.
  rig.sys->kill_replica(NodeId{2}, rig.group);
  ASSERT_TRUE(rig.sys->run_until(
      [&] {
        const auto* e = rig.sys->mech(NodeId{1}).groups().find(rig.group);
        return e != nullptr && e->members.size() == 1;
      },
      Duration(300'000'000)));
  rig.sys->relaunch_replica(NodeId{2}, rig.group);
  ASSERT_TRUE(rig.sys->run_until(
      [&] { return rig.sys->mech(NodeId{2}).hosts_operational(rig.group); },
      Duration(2'000'000'000)));

  // More traffic after the backup recovered (these land in its log).
  for (int i = 0; i < 2; ++i) ASSERT_TRUE(rig.invoke_and_wait(1));

  // Now fail the primary: the recovered backup is promoted.
  rig.sys->kill_replica(NodeId{1}, rig.group);
  std::int32_t result = 0;
  ASSERT_TRUE(rig.invoke_and_wait(1, &result));
  EXPECT_EQ(result, 6) << "operations must be applied exactly once";
  EXPECT_EQ(rig.servants[2]->value(), 6);
}

TEST(WarmPassive, BackToBackCheckpointsAllApplyAtBackup) {
  // Checkpoints every 200 us: the backup is now and then delivered the next
  // checkpoint while it is still applying the previous one. The later one
  // must wait its turn, not replace the one in flight (whose reply would
  // then match nothing and be dropped).
  PassiveRig rig(ReplicationStyle::kWarmPassive, Duration(200'000));
  ASSERT_TRUE(rig.invoke_and_wait(1));
  rig.sys->run_for(Duration(20'000'000));

  const core::MechanismsStats& backup = rig.sys->mech(NodeId{2}).stats();
  ASSERT_GT(rig.servants[2]->set_state_calls(), 0u);
  EXPECT_EQ(backup.checkpoints_applied, rig.servants[2]->set_state_calls());
  EXPECT_EQ(backup.replies_unmatched_dropped, 0u);
}

TEST(ColdPassive, CheckpointTruncatesLog) {
  PassiveRig rig(ReplicationStyle::kColdPassive, Duration(10'000'000));
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(rig.invoke_and_wait(1));
  const core::MessageLog* log = rig.sys->mech(NodeId{3}).log_of(rig.group);
  ASSERT_NE(log, nullptr);

  // Run past a checkpoint with no traffic: the log must shrink to just the
  // checkpoint (messages truncated).
  ASSERT_TRUE(rig.sys->run_until(
      [&] { return log->checkpoint().has_value() && log->messages().empty(); },
      Duration(200'000'000)));
  EXPECT_GE(log->checkpoints_taken(), 1u);
}

}  // namespace
}  // namespace eternal
