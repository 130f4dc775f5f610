// Fast-path state transfer: delta checkpoints chained over a full base,
// chunked pipelined set_state, and their equivalence with the monolithic
// full-state seed behaviour (delta_chain_cap = 0, state_chunk_bytes = 0).
#include <gtest/gtest.h>

#include <filesystem>
#include <stdexcept>
#include <map>
#include <unistd.h>

#include "core/deployment.hpp"
#include "support/counter_servant.hpp"
#include "support/invariant_helpers.hpp"

namespace eternal {
namespace {

using core::FtProperties;
using core::MechanismsConfig;
using core::ReplicationStyle;
using core::System;
using core::SystemConfig;
using test_support::CounterServant;
using util::Duration;
using util::GroupId;
using util::NodeId;

// Warm-passive rig with a tunable MechanismsConfig: primary on node 1,
// backup on node 2, spare factory on node 3, client on node 4.
struct Rig {
  explicit Rig(const MechanismsConfig& mechanisms, std::size_t pad_bytes = 0,
               ReplicationStyle style = ReplicationStyle::kWarmPassive,
               std::size_t trace_capacity = 0) {
    SystemConfig cfg;
    cfg.nodes = 4;
    cfg.mechanisms = mechanisms;
    cfg.trace_capacity = trace_capacity;
    sys = std::make_unique<System>(cfg);

    FtProperties props;
    props.style = style;
    props.checkpoint_interval = Duration(20'000'000);
    props.fault_monitoring_interval = Duration(5'000'000);
    props.initial_replicas = 2;
    props.minimum_replicas = 1;

    group = sys->deploy(
        "account", "IDL:Account:1.0", props, {NodeId{1}, NodeId{2}},
        [this, pad_bytes](NodeId n) {
          auto s = std::make_shared<CounterServant>(sys->sim(), pad_bytes);
          servants[n.value] = s;
          return s;
        },
        {NodeId{3}});
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
    return sys->run_until([&done] { return done; }, Duration(500'000'000));
  }

  bool wait_operational(NodeId node) {
    return sys->run_until([&] { return sys->mech(node).hosts_operational(group); },
                          Duration(3'000'000'000));
  }

  std::unique_ptr<System> sys;
  GroupId group;
  orb::ObjectRef ref;
  std::array<std::shared_ptr<CounterServant>, 5> servants{};
};

MechanismsConfig delta_config(std::size_t cap = 4) {
  MechanismsConfig m;
  m.delta_chain_cap = cap;
  return m;
}

// ---- delta checkpoints --------------------------------------------------

TEST(DeltaCheckpoints, PeriodicCheckpointsBecomeDeltasAndBackupApplies) {
  Rig rig(delta_config());
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(rig.invoke_and_wait(1));

  // First checkpoint is necessarily full (no base yet); once a base exists
  // the periodic get_state turns into _get_delta and the published
  // checkpoint chains at the log-keeping nodes.
  ASSERT_TRUE(rig.sys->run_until(
      [&] { return rig.servants[2]->set_state_calls() >= 1; }, Duration(300'000'000)));
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(rig.invoke_and_wait(1));
  ASSERT_TRUE(rig.sys->run_until(
      [&] { return rig.sys->mech(NodeId{1}).stats().delta_states_published >= 1; },
      Duration(300'000'000)));

  // The warm backup applied the delta live (apply_delta, not set_state).
  ASSERT_TRUE(rig.sys->run_until([&] { return rig.servants[2]->apply_delta_calls() >= 1; },
                                 Duration(300'000'000)));
  EXPECT_EQ(rig.servants[2]->value(), rig.servants[1]->value());

  // The log-keeping spare (node 3, never hosted a servant) chained it too.
  const core::MessageLog* log = rig.sys->mech(NodeId{3}).log_of(rig.group);
  ASSERT_NE(log, nullptr);
  EXPECT_GE(rig.sys->mech(NodeId{3}).stats().delta_checkpoints_applied, 1u);
}

TEST(DeltaCheckpoints, ChainCapForcesFullCheckpoint) {
  Rig rig(delta_config(/*cap=*/2));
  auto published_full = [&] {
    // First full + a later cap-forced full = at least 2 non-delta publishes
    // once enough checkpoint intervals passed.
    const auto& s = rig.sys->mech(NodeId{1}).stats();
    return s.checkpoints_taken >= 5;
  };
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(rig.invoke_and_wait(1));
  ASSERT_TRUE(rig.sys->run_until(published_full, Duration(2'000'000'000)));

  // cap = 2 bounds the chain everywhere the log is kept.
  const core::MessageLog* log = rig.sys->mech(NodeId{2}).log_of(rig.group);
  ASSERT_NE(log, nullptr);
  EXPECT_LE(log->chain_length(), 2u);
  // With 5+ checkpoints and a cap of 2, at least one later checkpoint was
  // forced full again (the chain reset at least once).
  EXPECT_GE(rig.sys->mech(NodeId{1}).stats().delta_states_published, 1u);
}

TEST(DeltaRecovery, SameNodeRelaunchRecoversOverLocalBase) {
  Rig rig(delta_config(), /*pad_bytes=*/8192);
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(rig.invoke_and_wait(1));
  ASSERT_TRUE(rig.sys->run_until(
      [&] { return rig.servants[2]->set_state_calls() >= 1; }, Duration(300'000'000)));
  for (int i = 0; i < 2; ++i) ASSERT_TRUE(rig.invoke_and_wait(1));

  // Kill the backup; its node keeps the checkpoint+delta log. The relaunch
  // advertises the log tip, so the source answers with _get_delta instead
  // of a full _get_state.
  rig.sys->kill_replica(NodeId{2}, rig.group);
  ASSERT_TRUE(rig.sys->run_until(
      [&] {
        const auto* e = rig.sys->mech(NodeId{1}).groups().find(rig.group);
        return e != nullptr && e->members.size() == 1;
      },
      Duration(300'000'000)));
  const std::uint64_t full_before = rig.sys->mech(NodeId{1}).stats().delta_fallback_full;
  rig.sys->relaunch_replica(NodeId{2}, rig.group);
  ASSERT_TRUE(rig.wait_operational(NodeId{2}));

  auto revived = rig.servants[2];
  ASSERT_NE(revived, nullptr);
  EXPECT_EQ(revived->value(), rig.servants[1]->value());
  // The fresh servant restored from the local base: exactly one full
  // set_state (the base checkpoint), the rest arrived as deltas.
  EXPECT_EQ(revived->set_state_calls(), 1u);
  EXPECT_GE(revived->apply_delta_calls(), 1u);
  EXPECT_GE(rig.sys->mech(NodeId{1}).stats().delta_states_published, 1u);
  EXPECT_EQ(rig.sys->mech(NodeId{1}).stats().delta_fallback_full, full_before);

  // The recovered backup still promotes correctly.
  rig.sys->kill_replica(NodeId{1}, rig.group);
  std::int32_t result = 0;
  ASSERT_TRUE(rig.invoke_and_wait(1, &result));
  EXPECT_EQ(result, 6);
  EXPECT_EQ(revived->value(), 6);
}

TEST(DeltaRecovery, FallsBackFullWhenServantDeclines) {
  // A servant without get_delta support (the default) forces the inline
  // full-state fallback — still one round, no retry.
  class PlainServant : public CounterServant {
   public:
    using CounterServant::CounterServant;
    std::optional<util::Any> get_delta(std::uint64_t) override { return std::nullopt; }
  };

  SystemConfig cfg;
  cfg.nodes = 4;
  cfg.mechanisms = delta_config();
  System sys(cfg);
  FtProperties props;
  props.style = ReplicationStyle::kWarmPassive;
  props.checkpoint_interval = Duration(20'000'000);
  props.fault_monitoring_interval = Duration(5'000'000);
  props.initial_replicas = 2;
  props.minimum_replicas = 1;
  std::array<std::shared_ptr<PlainServant>, 5> servants{};
  const GroupId group = sys.deploy(
      "account", "IDL:Account:1.0", props, {NodeId{1}, NodeId{2}},
      [&](NodeId n) {
        auto s = std::make_shared<PlainServant>(sys.sim());
        servants[n.value] = s;
        return s;
      },
      {NodeId{3}});
  sys.deploy_client("driver", NodeId{4}, {group});
  orb::ObjectRef ref = sys.client(NodeId{4}, group);

  auto invoke = [&] {
    bool done = false;
    ref.invoke("inc", CounterServant::encode_i32(1),
               [&done](const orb::ReplyOutcome&) { done = true; });
    return sys.run_until([&done] { return done; }, Duration(500'000'000));
  };
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(invoke());
  ASSERT_TRUE(sys.run_until([&] { return servants[2]->set_state_calls() >= 1; },
                            Duration(300'000'000)));
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(invoke());
  // The mechanisms asked for a delta, the servant declined, the checkpoint
  // arrived full — and the backup stayed synchronized.
  ASSERT_TRUE(sys.run_until(
      [&] { return sys.mech(NodeId{1}).stats().delta_fallback_full >= 1; },
      Duration(500'000'000)));
  ASSERT_TRUE(sys.run_until([&] { return servants[2]->set_state_calls() >= 2; },
                            Duration(500'000'000)));
  EXPECT_EQ(sys.mech(NodeId{1}).stats().delta_states_published, 0u);
  EXPECT_EQ(servants[2]->value(), servants[1]->value());
}

// ---- chunked state transfer ---------------------------------------------

TEST(ChunkedTransfer, LargeStateRecoversInChunksWhileClientsAreServed) {
  MechanismsConfig m;
  m.state_chunk_bytes = 16'384;
  // Active replication, 200 KB of application state: the fabricated
  // set_state splits into ~13 kStateChunk envelopes.
  Rig rig(m, /*pad_bytes=*/200'000, ReplicationStyle::kActive,
          /*trace_capacity=*/1u << 20);
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(rig.invoke_and_wait(1));

  rig.sys->kill_replica(NodeId{2}, rig.group);
  ASSERT_TRUE(rig.sys->run_until(
      [&] {
        const auto* e = rig.sys->mech(NodeId{1}).groups().find(rig.group);
        return e != nullptr && e->members.size() == 1;
      },
      Duration(300'000'000)));
  rig.sys->relaunch_replica(NodeId{3}, rig.group);

  // While the transfer is in progress the surviving replica keeps serving.
  std::int32_t during = 0;
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(rig.invoke_and_wait(1, &during));
  EXPECT_EQ(during, 6);

  ASSERT_TRUE(rig.wait_operational(NodeId{3}));
  auto revived = rig.servants[3];
  ASSERT_NE(revived, nullptr);
  // Reinstatement replays the backlog asynchronously; let it drain.
  ASSERT_TRUE(rig.sys->run_until(
      [&] { return revived->value() == rig.servants[1]->value(); },
      Duration(500'000'000)));

  const auto& src = rig.sys->mech(NodeId{1}).stats();
  const auto& dst = rig.sys->mech(NodeId{3}).stats();
  EXPECT_GE(src.state_chunks_sent, 200'000u / 16'384u);
  EXPECT_GE(dst.state_chunks_received, src.state_chunks_sent);
  EXPECT_EQ(dst.state_chunk_aborts, 0u);

  // The recovered replica executes subsequent operations consistently.
  std::int32_t after = 0;
  ASSERT_TRUE(rig.invoke_and_wait(1, &after));
  EXPECT_EQ(after, 7);
  EXPECT_EQ(revived->value(), 7);

  test_support::expect_invariants_hold(*rig.sys);
}

// Runs one scripted fault/recovery scenario and returns every reply value
// the client observed plus the final servant values.
struct ScenarioResult {
  std::vector<std::int32_t> replies;
  std::int32_t primary_value = 0;
  std::int32_t recovered_value = 0;
  bool ok = true;
};

ScenarioResult run_scenario(const MechanismsConfig& mechanisms, std::size_t pad_bytes,
                            ReplicationStyle style, NodeId relaunch_on) {
  Rig rig(mechanisms, pad_bytes, style);
  ScenarioResult out;
  auto invoke = [&](std::int32_t delta) {
    std::int32_t v = -1;
    if (!rig.invoke_and_wait(delta, &v)) {
      out.ok = false;
      return;
    }
    out.replies.push_back(v);
  };

  for (int i = 0; i < 4; ++i) invoke(1);
  if (style == ReplicationStyle::kWarmPassive) {
    // Ensure a checkpoint (the delta base) exists before the fault.
    out.ok = out.ok && rig.sys->run_until(
                           [&] { return rig.servants[2]->set_state_calls() >= 1; },
                           Duration(300'000'000));
  }
  for (int i = 0; i < 2; ++i) invoke(1);

  rig.sys->kill_replica(NodeId{2}, rig.group);
  out.ok = out.ok && rig.sys->run_until(
                         [&] {
                           const auto* e = rig.sys->mech(NodeId{1}).groups().find(rig.group);
                           return e != nullptr && e->members.size() == 1;
                         },
                         Duration(300'000'000));
  rig.sys->relaunch_replica(relaunch_on, rig.group);
  for (int i = 0; i < 3; ++i) invoke(1);  // traffic during the transfer
  out.ok = out.ok && rig.wait_operational(relaunch_on);
  for (int i = 0; i < 2; ++i) invoke(1);

  // Replay and (for passive styles) the next checkpoint propagate
  // asynchronously; sample the values once the recovered replica caught up.
  if (rig.servants[1] && rig.servants[relaunch_on.value]) {
    out.ok = out.ok &&
             rig.sys->run_until(
                 [&] {
                   return rig.servants[relaunch_on.value]->value() ==
                          rig.servants[1]->value();
                 },
                 Duration(1'000'000'000));
  }
  out.primary_value = rig.servants[1] ? rig.servants[1]->value() : -1;
  out.recovered_value =
      rig.servants[relaunch_on.value] ? rig.servants[relaunch_on.value]->value() : -1;
  return out;
}

TEST(TransferEquivalence, ChunkedMatchesMonolithicReplyStream) {
  MechanismsConfig mono;  // seed behaviour
  MechanismsConfig chunked;
  chunked.state_chunk_bytes = 8'192;

  const ScenarioResult a =
      run_scenario(mono, 60'000, ReplicationStyle::kActive, NodeId{3});
  const ScenarioResult b =
      run_scenario(chunked, 60'000, ReplicationStyle::kActive, NodeId{3});
  ASSERT_TRUE(a.ok);
  ASSERT_TRUE(b.ok);
  // The application-visible outcome is identical; only the wire shape of
  // the state transfer changed.
  EXPECT_EQ(a.replies, b.replies);
  EXPECT_EQ(a.recovered_value, b.recovered_value);
  EXPECT_EQ(b.recovered_value, b.primary_value);
}

TEST(TransferEquivalence, DeltaMatchesFullRecovery) {
  MechanismsConfig full;  // seed behaviour
  const ScenarioResult a =
      run_scenario(full, 4'096, ReplicationStyle::kWarmPassive, NodeId{2});
  const ScenarioResult b =
      run_scenario(delta_config(), 4'096, ReplicationStyle::kWarmPassive, NodeId{2});
  ASSERT_TRUE(a.ok);
  ASSERT_TRUE(b.ok);
  EXPECT_EQ(a.replies, b.replies);
  EXPECT_EQ(a.recovered_value, b.recovered_value);
  EXPECT_EQ(b.recovered_value, b.primary_value);
}

// ---- one source serving two recoveries ----------------------------------

/// Two replicas of a 3-way active group are relaunched at the same instant,
/// so the one surviving source (node 1) answers both retrievals back to back:
/// the second publish starts while the first is still streaming. Neither
/// transfer may abandon or supersede the other — each recoverer's set_state
/// is the epoch of its own first get_state, and no transfer aborts.
void expect_two_recoveries_from_one_source(bool bulk) {
  SystemConfig cfg;
  cfg.nodes = 4;
  cfg.trace_capacity = 1u << 18;
  cfg.mechanisms.state_chunk_bytes = 4'096;
  cfg.mechanisms.bulk_lane = bulk;
  cfg.mechanisms.bulk_extent_bytes = 4'096;
  System sys(cfg);
  FtProperties props;
  props.style = ReplicationStyle::kActive;
  props.initial_replicas = 3;
  props.minimum_replicas = 1;
  props.fault_monitoring_interval = Duration(5'000'000);
  std::array<std::shared_ptr<CounterServant>, 5> servants{};
  const GroupId group = sys.deploy(
      "account", "IDL:Account:1.0", props, {NodeId{1}, NodeId{2}, NodeId{3}},
      [&](NodeId n) {
        auto s = std::make_shared<CounterServant>(sys.sim(), 20'000);
        servants[n.value] = s;
        return s;
      });
  sys.deploy_client("driver", NodeId{4}, {group});
  orb::ObjectRef ref = sys.client(NodeId{4}, group);
  auto invoke = [&] {
    bool done = false;
    ref.invoke("inc", CounterServant::encode_i32(1),
               [&done](const orb::ReplyOutcome&) { done = true; });
    return sys.run_until([&done] { return done; }, Duration(500'000'000));
  };
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(invoke());

  // The coordinator issues one get_state per added replica, in the order
  // the additions deliver, at consecutive epochs.
  std::vector<std::uint64_t> added;
  sys.mech(NodeId{1}).add_event_observer([&](const core::TableEvent& ev) {
    if (ev.kind == core::TableEvent::Kind::kReplicaAdded && ev.group == group) {
      added.push_back(ev.replica.value);
    }
  });
  sys.kill_replica(NodeId{2}, group);
  sys.kill_replica(NodeId{3}, group);
  ASSERT_TRUE(sys.run_until(
      [&] {
        const auto* e = sys.mech(NodeId{1}).groups().find(group);
        return e != nullptr && e->members.size() == 1;
      },
      Duration(300'000'000)));
  sys.relaunch_replica(NodeId{2}, group);
  sys.relaunch_replica(NodeId{3}, group);
  ASSERT_TRUE(sys.run_until(
      [&] {
        return sys.mech(NodeId{2}).hosts_operational(group) &&
               sys.mech(NodeId{3}).hosts_operational(group);
      },
      Duration(3'000'000'000)));
  ASSERT_TRUE(invoke());
  EXPECT_EQ(servants[2]->value(), servants[1]->value());
  EXPECT_EQ(servants[3]->value(), servants[1]->value());
  ASSERT_EQ(added.size(), 2u);

  // Epochs from the trace: every get_state cut a recoverer saw, and the
  // epoch of the set_state it applied.
  std::map<std::uint64_t, std::uint64_t> first_cut;
  std::map<std::uint64_t, std::uint64_t> applied;
  for (const obs::TraceEvent& ev : sys.trace()->snapshot()) {
    if (ev.layer != obs::Layer::kMech) continue;
    const std::uint64_t replica = ev.fields.num("replica");
    if (ev.kind == "get_state_cut" && first_cut.count(replica) == 0) {
      first_cut[replica] = ev.seq;
    } else if (ev.kind == "set_state_apply") {
      applied[replica] = ev.seq;
    }
  }
  const std::uint64_t first = first_cut[added[0]];
  ASSERT_NE(first, 0u);
  EXPECT_EQ(applied[added[0]], first) << "first recoverer missed its own epoch";
  EXPECT_EQ(applied[added[1]], first + 1) << "second recoverer missed its own epoch";

  for (std::uint32_t n = 1; n <= 4; ++n) {
    const core::MechanismsStats& st = sys.mech(NodeId{n}).stats();
    EXPECT_EQ(st.state_chunk_aborts, 0u) << "node " << n;
    EXPECT_EQ(st.chunk_sends_aborted, 0u) << "node " << n;
    EXPECT_EQ(st.bulk_transfers_aborted, 0u) << "node " << n;
    EXPECT_EQ(st.bulk_fallbacks_chunked, 0u) << "node " << n;
  }
  const core::MechanismsStats& src = sys.mech(NodeId{1}).stats();
  if (bulk) {
    EXPECT_EQ(src.bulk_transfers_started, 2u);
    EXPECT_EQ(sys.mech(NodeId{2}).stats().bulk_transfers_completed, 1u);
    EXPECT_EQ(sys.mech(NodeId{3}).stats().bulk_transfers_completed, 1u);
  } else {
    EXPECT_GE(src.state_chunks_sent, 2 * (20'000u / 4'096u));
  }
  test_support::expect_invariants_hold(sys);
}

TEST(TwoRecoveriesOneSource, ChunkedTransfersCoexist) {
  expect_two_recoveries_from_one_source(/*bulk=*/false);
}

TEST(TwoRecoveriesOneSource, BulkLaneTransfersCoexist) {
  expect_two_recoveries_from_one_source(/*bulk=*/true);
}

// Only a state large enough to chunk is offered to the lane, and ring chunks
// are the lane's fallback: a lane without chunking could never be used, so
// the configuration is rejected instead of silently ignored.
TEST(BulkLaneConfig, LaneWithoutChunkingIsRejected) {
  SystemConfig cfg;
  cfg.mechanisms.bulk_lane = true;
  EXPECT_THROW(System{cfg}, std::invalid_argument);
  cfg.mechanisms.state_chunk_bytes = 4'096;
  EXPECT_NO_THROW(System{cfg});
}

// ---- delta chain on stable storage --------------------------------------

TEST(DeltaColdRestart, ChainedCheckpointsSurviveWholeSystemRestart) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("eternal-delta-restart-" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  std::int32_t committed = 0;

  {
    SystemConfig cfg;
    cfg.nodes = 4;
    // A generous cap: the chain must still be non-empty at teardown (a
    // cap-forced full checkpoint would clear it and store base-only).
    cfg.mechanisms.delta_chain_cap = 64;
    cfg.stable_storage_root = dir.string();
    System sys(cfg);
    FtProperties props;
    props.style = ReplicationStyle::kColdPassive;
    props.initial_replicas = 1;
    props.minimum_replicas = 1;
    props.checkpoint_interval = Duration(15'000'000);
    const GroupId group = sys.deploy(
        "ledger", "IDL:Ledger:1.0", props, {NodeId{1}},
        [&](NodeId) { return std::make_shared<CounterServant>(sys.sim()); },
        {NodeId{2}, NodeId{3}});
    sys.deploy_client("app", NodeId{4}, {group});
    orb::ObjectRef ref = sys.client(NodeId{4}, group);

    // Interleave work and checkpoint intervals so the stored record holds a
    // full base plus at least one chained delta.
    for (int round = 0; round < 3; ++round) {
      for (int i = 0; i < 2; ++i) {
        bool done = false;
        ref.invoke("inc", CounterServant::encode_i32(1),
                   [&](const orb::ReplyOutcome&) {
                     done = true;
                     ++committed;
                   });
        ASSERT_TRUE(sys.run_until([&] { return done; }, Duration(1'000'000'000)));
      }
      sys.run_for(Duration(20'000'000));
    }
    ASSERT_EQ(committed, 6);
    const core::MessageLog* log = sys.mech(NodeId{2}).log_of(group);
    ASSERT_NE(log, nullptr);
    ASSERT_TRUE(sys.run_until([&] { return log->chain_length() >= 1; },
                              Duration(500'000'000)));
    sys.run_for(Duration(30'000'000));  // let persistence settle
  }

  SystemConfig cfg;
  cfg.nodes = 4;
  cfg.mechanisms.delta_chain_cap = 4;
  cfg.stable_storage_root = dir.string();
  System sys(cfg);
  auto stored = sys.mech(NodeId{2}).stored_groups();
  ASSERT_EQ(stored.size(), 1u);
  const GroupId group = stored[0].id;

  std::shared_ptr<CounterServant> revived;
  sys.mech(NodeId{2}).register_factory(group, [&] {
    revived = std::make_shared<CounterServant>(sys.sim());
    return revived;
  });
  ASSERT_TRUE(sys.mech(NodeId{2}).restore_from_storage(group));
  ASSERT_TRUE(sys.run_until([&] { return sys.mech(NodeId{2}).hosts_operational(group); },
                            Duration(2'000'000'000)));
  // Base checkpoint + chained deltas + logged tail reproduce the state.
  EXPECT_EQ(revived->value(), committed);
  EXPECT_GE(revived->apply_delta_calls(), 1u);

  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace eternal
