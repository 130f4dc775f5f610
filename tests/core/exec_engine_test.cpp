// exec::ReplicaEngine in isolation: admission window, the in-order reply
// sequencer (inline emission, parking, flushing), grace retirement of a
// middle position, per-phase statistics, re-entrant admission from an emit
// callback, and the state-op barrier.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/exec/engine.hpp"

namespace eternal::core::exec {
namespace {

using util::Duration;
using util::GroupId;
using util::NodeId;
using util::TimePoint;

const orb::Endpoint kClient{NodeId{7}};

TimePoint at(std::int64_t ns) { return TimePoint{ns}; }

/// Records emissions as "<op_seq>" in emission order.
struct Emitted {
  std::vector<std::uint64_t> order;
  auto sink() {
    return [this](Reply& r) { order.push_back(r.op_seq); };
  }
};

/// Admits a two-way request whose op_seq equals its position.
std::uint64_t admit(ReplicaEngine& engine, std::uint64_t op_seq, TimePoint when = {}) {
  return engine.admit(GroupId{2}, op_seq, kClient, true, when).position;
}

/// A fabricated get_state at `epoch`, answered to the recovery endpoint.
const orb::Endpoint kRecovery{NodeId{0xFE000002}, 2809};
Fom get_state(std::uint64_t epoch) {
  Fom op;
  op.kind = FomKind::kGetState;
  op.op_seq = epoch;
  op.reply_to = kRecovery;
  return op;
}

Reply reply_for(std::uint64_t op_seq) {
  Reply r;
  r.op_seq = op_seq;
  r.payload = util::Bytes{static_cast<std::uint8_t>(op_seq)};
  return r;
}

TEST(ExecEngine, AdmissionWindowBoundsInflight) {
  ReplicaEngine engine(2);
  EXPECT_TRUE(engine.idle());
  admit(engine, 0);
  EXPECT_TRUE(engine.can_admit());
  EXPECT_FALSE(engine.idle());
  admit(engine, 1);
  EXPECT_FALSE(engine.can_admit());
  EXPECT_EQ(engine.inflight(), 2u);
  EXPECT_EQ(engine.stats().max_inflight, 2u);

  ReplicaEngine clamped(0);
  EXPECT_EQ(clamped.concurrency(), 1u) << "a zero window would never admit";
}

TEST(ExecEngine, InOrderFinishEmitsInline) {
  ReplicaEngine engine(2);
  Emitted emitted;
  const std::uint64_t p0 = admit(engine, 0);
  const std::uint64_t p1 = admit(engine, 1);

  engine.finish(p0, at(10), reply_for(0), emitted.sink());
  EXPECT_EQ(emitted.order, (std::vector<std::uint64_t>{0}))
      << "the lowest outstanding position emits during finish";
  EXPECT_EQ(engine.parked(), 0u);
  EXPECT_TRUE(engine.can_admit());

  engine.finish(p1, at(20), reply_for(1), emitted.sink());
  EXPECT_EQ(emitted.order, (std::vector<std::uint64_t>{0, 1}));
  EXPECT_TRUE(engine.idle());
  EXPECT_EQ(engine.stats().replies_parked, 0u);
  EXPECT_EQ(engine.stats().max_parked, 0u);
  EXPECT_EQ(engine.stats().park_time, Duration{0});
  EXPECT_EQ(engine.stats().retired, 2u);
}

TEST(ExecEngine, OutOfOrderFinishesParkAndFlushInPositionOrder) {
  ReplicaEngine engine(4);
  Emitted emitted;
  for (std::uint64_t i = 0; i < 4; ++i) admit(engine, i);

  engine.finish(2, at(10), reply_for(2), emitted.sink());
  engine.finish(3, at(20), reply_for(3), emitted.sink());
  engine.finish(1, at(30), reply_for(1), emitted.sink());
  EXPECT_TRUE(emitted.order.empty()) << "position 0 still blocks every reply";
  EXPECT_EQ(engine.parked(), 3u);
  EXPECT_EQ(engine.inflight(), 1u);
  EXPECT_TRUE(engine.can_admit()) << "parking frees the slot";
  EXPECT_FALSE(engine.idle()) << "parked replies keep the replica non-quiescent";

  engine.finish(0, at(40), reply_for(0), emitted.sink());
  EXPECT_EQ(emitted.order, (std::vector<std::uint64_t>{0, 1, 2, 3}));
  EXPECT_TRUE(engine.idle());

  const ReplicaEngine::Stats& st = engine.stats();
  EXPECT_EQ(st.replies_parked, 3u);
  EXPECT_EQ(st.max_parked, 3u);
  EXPECT_EQ(st.retired, 4u);
  // Each parked reply waits from its own finish to the flush at t=40.
  EXPECT_EQ(st.park_time, Duration{(40 - 10) + (40 - 20) + (40 - 30)});
}

TEST(ExecEngine, RetireImmediateOfMiddlePositionReleasesParkedReplies) {
  ReplicaEngine engine(4);
  Emitted emitted;
  admit(engine, 0);
  const std::uint64_t oneway =
      engine.admit(GroupId{2}, 1, kClient, /*response_expected=*/false, at(0)).position;
  admit(engine, 2);
  admit(engine, 3);

  engine.finish(0, at(5), reply_for(0), emitted.sink());
  engine.finish(3, at(6), reply_for(3), emitted.sink());
  engine.finish(2, at(7), reply_for(2), emitted.sink());
  EXPECT_EQ(emitted.order, (std::vector<std::uint64_t>{0}))
      << "the oneway at position 1 holds replies 2 and 3 back";

  engine.retire_immediate(oneway, at(50), emitted.sink());
  EXPECT_EQ(emitted.order, (std::vector<std::uint64_t>{0, 2, 3}))
      << "a retired position emits nothing but releases everything behind it";
  EXPECT_TRUE(engine.idle());
  EXPECT_EQ(engine.stats().retired, 4u);
  EXPECT_EQ(engine.stats().replies_parked, 2u);
  EXPECT_EQ(engine.stats().park_time, Duration{(50 - 6) + (50 - 7)});
}

TEST(ExecEngine, OutOfOrderRetireImmediateParksWithoutAReply) {
  ReplicaEngine engine(2);
  Emitted emitted;
  admit(engine, 0);
  const std::uint64_t oneway =
      engine.admit(GroupId{2}, 1, kClient, /*response_expected=*/false, at(0)).position;
  engine.retire_immediate(oneway, at(3), emitted.sink());
  EXPECT_EQ(engine.parked(), 1u);
  engine.finish(0, at(9), reply_for(0), emitted.sink());
  EXPECT_EQ(emitted.order, (std::vector<std::uint64_t>{0}));
  EXPECT_TRUE(engine.idle());
  EXPECT_EQ(engine.stats().replies_parked, 1u);
  EXPECT_EQ(engine.stats().park_time, Duration{9 - 3});
}

TEST(ExecEngine, StatsAccountPerPhaseResidency) {
  ReplicaEngine engine(2);
  Emitted emitted;
  Fom& fom = engine.admit(GroupId{2}, 0, kClient, true, at(100));
  fom.enter(FomPhase::kExecute, at(103));
  fom.enter(FomPhase::kLog, at(150));
  fom.enter(FomPhase::kReply, at(152));
  engine.finish(0, at(152), reply_for(0), emitted.sink());

  Fom& oneway = engine.admit(GroupId{2}, 1, kClient, false, at(200));
  oneway.enter(FomPhase::kExecute, at(201));
  oneway.enter(FomPhase::kDone, at(260));
  engine.retire_immediate(1, at(260), emitted.sink());

  const ReplicaEngine::Stats& st = engine.stats();
  EXPECT_EQ(st.admitted, 2u);
  EXPECT_EQ(st.decode_time, Duration{3 + 1});
  EXPECT_EQ(st.execute_time, Duration{47 + 59}) << "a oneway executes until retirement";
  EXPECT_EQ(st.log_time, Duration{2});
}

TEST(ExecEngine, ResetDropsInflightAndParkedWork) {
  ReplicaEngine engine(4);
  Emitted emitted;
  admit(engine, 0);
  admit(engine, 1);
  engine.finish(1, at(1), reply_for(1), emitted.sink());
  engine.reset();
  EXPECT_TRUE(engine.idle());
  EXPECT_EQ(engine.match(kClient, 0), nullptr);
  // Positions continue; the first admission after the reset is next in order.
  const std::uint64_t p = admit(engine, 7);
  engine.finish(p, at(2), reply_for(7), emitted.sink());
  EXPECT_EQ(emitted.order, (std::vector<std::uint64_t>{7}));
}

TEST(ExecEngine, MatchFindsTwoWayFomsByEndpointAndRequestId) {
  ReplicaEngine engine(4);
  admit(engine, 5);
  engine.admit(GroupId{2}, 6, kClient, /*response_expected=*/false, at(0));
  ASSERT_NE(engine.match(kClient, 5), nullptr);
  EXPECT_EQ(engine.match(kClient, 5)->position, 0u);
  EXPECT_EQ(engine.match(kClient, 6), nullptr) << "oneways never match a reply";
  EXPECT_EQ(engine.match(orb::Endpoint{NodeId{8}}, 5), nullptr);
  ASSERT_NE(engine.find(1), nullptr);
  EXPECT_EQ(engine.find(1)->op_seq, 6u);
}

TEST(ExecEngine, EmitMayReenterAdmission) {
  // The Mechanisms pump the run queue right after an emission; an emit
  // that admits more FOMs grows the in-flight storage while the sequencer
  // is still flushing. Nothing may hold a Fom& or a parked slot across it.
  ReplicaEngine engine(64);
  std::vector<std::uint64_t> order;
  std::uint64_t next_op = 100;
  auto sink = [&](Reply& r) {
    order.push_back(r.op_seq);
    for (int i = 0; i < 16 && engine.can_admit(); ++i) admit(engine, next_op++);
  };
  for (std::uint64_t i = 0; i < 3; ++i) admit(engine, i);
  engine.finish(2, at(1), reply_for(2), sink);
  engine.finish(1, at(2), reply_for(1), sink);
  engine.finish(0, at(3), reply_for(0), sink);
  EXPECT_EQ(order, (std::vector<std::uint64_t>{0, 1, 2}));
  EXPECT_EQ(engine.inflight(), 48u);
  // The re-entrant admissions sequence behind the flushed ones.
  const Fom* first = engine.match(kClient, 100);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->position, 3u);
}

TEST(ExecEngine, BarrierWaitsForParkedRepliesAndOnewayGrace) {
  ReplicaEngine engine(4);
  Emitted emitted;
  admit(engine, 0);
  const std::uint64_t oneway =
      engine.admit(GroupId{2}, 1, kClient, /*response_expected=*/false, at(0)).position;
  admit(engine, 2);
  EXPECT_FALSE(engine.can_admit(FomKind::kGetState)) << "FOMs executing";

  engine.finish(0, at(1), reply_for(0), emitted.sink());
  engine.finish(2, at(2), reply_for(2), emitted.sink());
  EXPECT_EQ(engine.inflight(), 1u);
  EXPECT_EQ(engine.parked(), 1u);
  EXPECT_FALSE(engine.can_admit(FomKind::kSetState))
      << "a oneway in its grace period holds reply 2 parked";

  engine.retire_immediate(oneway, at(3), emitted.sink());
  EXPECT_EQ(emitted.order, (std::vector<std::uint64_t>{0, 2}));
  EXPECT_TRUE(engine.can_admit(FomKind::kGetState));
  EXPECT_TRUE(engine.can_admit(FomKind::kCheckpoint));
  EXPECT_TRUE(engine.can_admit(FomKind::kRestoreStep));
}

TEST(ExecEngine, BarrierBlocksAdmissionAndTakesNoPosition) {
  ReplicaEngine engine(4);
  Emitted emitted;
  const std::uint64_t p0 = admit(engine, 0);
  engine.finish(p0, at(1), reply_for(0), emitted.sink());

  engine.admit_barrier(get_state(9));
  EXPECT_FALSE(engine.can_admit()) << "nothing starts beside a barrier";
  EXPECT_FALSE(engine.can_admit(FomKind::kGetState));
  EXPECT_FALSE(engine.idle());
  EXPECT_EQ(engine.inflight(), 0u) << "the barrier is not a request";

  const Fom done = engine.finish_barrier();
  EXPECT_EQ(done.kind, FomKind::kGetState);
  EXPECT_EQ(done.op_seq, 9u);
  EXPECT_TRUE(engine.idle());

  // Request positions stay contiguous across the barrier, and it emitted
  // nothing and counted nothing.
  const std::uint64_t p1 = admit(engine, 1);
  EXPECT_EQ(p1, p0 + 1);
  engine.finish(p1, at(2), reply_for(1), emitted.sink());
  EXPECT_EQ(emitted.order, (std::vector<std::uint64_t>{0, 1}));
  EXPECT_EQ(engine.stats().admitted, 2u);
  EXPECT_EQ(engine.stats().retired, 2u);
  EXPECT_EQ(engine.stats().max_inflight, 1u);
}

TEST(ExecEngine, MatchFindsTheBarrierAndResetDropsIt) {
  ReplicaEngine engine(4);
  engine.admit_barrier(get_state(5));
  ASSERT_NE(engine.match(kRecovery, 5), nullptr);
  EXPECT_EQ(engine.match(kRecovery, 5)->kind, FomKind::kGetState);
  EXPECT_EQ(engine.match(kRecovery, 6), nullptr) << "another epoch";
  EXPECT_EQ(engine.match(kClient, 5), nullptr) << "another endpoint";

  engine.reset();
  EXPECT_TRUE(engine.idle());
  EXPECT_EQ(engine.match(kRecovery, 5), nullptr);
  EXPECT_EQ(admit(engine, 0), 0u);
}

}  // namespace
}  // namespace eternal::core::exec
