// Conformance tests for the critical-path analyzer (src/obs/critpath.hpp):
// on clean, lossy and FOM-overlap runs, the per-invocation segments plus the
// explicit residual must partition the end-to-end latency *exactly* — the
// attribution is only trustworthy if nothing is double-counted and nothing
// leaks — and every segment must be non-negative on the winner path. Also
// covers the aggregate()/Windows collectors and the rule that the default
// configuration (no span store) keeps all new instrumentation inert.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/deployment.hpp"
#include "obs/critpath.hpp"
#include "support/counter_servant.hpp"
#include "workload/drivers.hpp"

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
using workload::OpenLoopDriver;
namespace critpath = obs::critpath;

constexpr Duration kExec = Duration(400'000);  // 400 us servant time

SystemConfig spanful_config(std::size_t concurrency) {
  SystemConfig cfg;
  cfg.nodes = 3;
  cfg.span_capacity = 1u << 14;
  cfg.orb.poa_max_inflight = concurrency;
  return cfg;
}

GroupId deploy_counter(System& sys, std::size_t replicas,
                       std::shared_ptr<CounterServant>* out = nullptr) {
  FtProperties props;
  props.style = ReplicationStyle::kActive;
  props.initial_replicas = replicas;
  props.minimum_replicas = 1;
  std::vector<NodeId> placement;
  for (std::size_t i = 1; i <= replicas; ++i)
    placement.push_back(NodeId{static_cast<std::uint32_t>(i)});
  return sys.deploy("svc", "IDL:Svc:1.0", props, placement, [&](NodeId) {
    auto servant = std::make_shared<CounterServant>(sys.sim(), 0, kExec);
    if (out != nullptr && *out == nullptr) *out = servant;
    return servant;
  });
}

/// Every analyzed invocation must have non-negative segments that, with the
/// residual, sum to the end-to-end latency exactly (not within a tolerance:
/// the residual makes the partition exact by construction, so any mismatch
/// is an analyzer bug).
void expect_exact_partition(const critpath::Report& rep) {
  for (const critpath::Breakdown& b : rep.invocations) {
    util::Duration sum{};
    for (critpath::Segment s : critpath::all_segments()) {
      EXPECT_GE(b[s].count(), 0)
          << "negative " << critpath::to_string(s) << " segment";
      sum += b[s];
    }
    EXPECT_EQ(sum.count(), b.end_to_end().count())
        << "segments + residual must partition end-to-end latency";
    EXPECT_EQ(b.sum().count(), b.end_to_end().count());
    EXPECT_GT(b.end_to_end().count(), 0);
  }
}

critpath::Report run_clean(std::size_t concurrency) {
  System sys(spanful_config(concurrency));
  const GroupId group = deploy_counter(sys, 2);
  sys.deploy_client("load", NodeId{3}, {group});
  OpenLoopDriver driver(sys.sim(), sys.client(NodeId{3}, group), "inc",
                        CounterServant::encode_i32(1), 800.0, 0xC11);
  driver.start();
  sys.run_for(Duration(100'000'000));
  driver.stop();
  sys.run_for(Duration(50'000'000));
  EXPECT_GT(driver.completed(), 40u);
  return critpath::analyze(*sys.spans());
}

TEST(CritPath, CleanSyncRunPartitionsExactly) {
  // Concurrency 1: the paper's synchronous upcall semantics.
  const critpath::Report rep = run_clean(1);
  EXPECT_GT(rep.invocations.size(), 40u);
  EXPECT_EQ(rep.partial_traces, 0u);
  EXPECT_EQ(rep.dropped_spans, 0u);
  expect_exact_partition(rep);
  // One request executes at a time, so every reply is next in order and
  // never parks; waiting for the one slot is admission time.
  for (const critpath::Breakdown& b : rep.invocations) {
    EXPECT_EQ(b[critpath::Segment::kReplyPark].count(), 0);
    EXPECT_GE(b[critpath::Segment::kExecute].count(), kExec.count())
        << "execute segment covers at least the modelled servant time";
  }
}

TEST(CritPath, CleanEngineRunPartitionsExactly) {
  // Concurrency 4: overlapping FOMs (concurrency 1 is the test above).
  const critpath::Report rep = run_clean(4);
  EXPECT_GT(rep.invocations.size(), 40u);
  EXPECT_EQ(rep.partial_traces, 0u);
  expect_exact_partition(rep);
}

TEST(CritPath, LossyRunStaysExactForCompletedInvocations) {
  SystemConfig cfg = spanful_config(4);
  cfg.ethernet.loss_probability = 0.02;  // totem retransmits around the loss
  System sys(cfg);
  const GroupId group = deploy_counter(sys, 2);
  sys.deploy_client("load", NodeId{3}, {group});
  OpenLoopDriver driver(sys.sim(), sys.client(NodeId{3}, group), "inc",
                        CounterServant::encode_i32(1), 600.0, 0x105);
  driver.start();
  sys.run_for(Duration(100'000'000));
  driver.stop();
  sys.run_for(Duration(100'000'000));
  ASSERT_NE(sys.spans(), nullptr);
  const critpath::Report rep = critpath::analyze(*sys.spans());
  EXPECT_GT(rep.invocations.size(), 20u);
  // Loss stretches order-wait (retransmission rounds) but must not break
  // the partition of any invocation that completed.
  expect_exact_partition(rep);
}

/// Servant for the overlap scenario: "work" mutates state, so its
/// serve+reply step goes through the POA's execution gate (admission
/// order); "peek" is read-only and replies as soon as its modelled
/// execution ends, *without* the gate — the one legitimate way an
/// invocation completes out of admission order. The engine's in-order
/// reply sequencer then has to park the early reply, which is exactly
/// what the reply-park segment must surface.
class PeekableServant : public orb::Servant {
 public:
  explicit PeekableServant(sim::Simulator& sim) : sim_(sim) {}

  void invoke(orb::ServerRequestPtr request) override {
    const bool is_peek = request->operation() == "peek";
    const Duration delay = is_peek ? Duration(400'000) : Duration(20'000'000);
    sim_.schedule(delay, [this, request, is_peek] {
      if (is_peek) {
        request->reply(CounterServant::encode_i32(value_));  // ungated read
        return;
      }
      request->run_when_clear([this, request] {
        value_ += 1;
        request->reply(CounterServant::encode_i32(value_));
      });
    });
  }

 private:
  sim::Simulator& sim_;
  std::int32_t value_ = 0;
};

TEST(CritPath, FomOverlapParksOutOfOrderReplies) {
  SystemConfig cfg = spanful_config(4);
  System sys(cfg);
  FtProperties props;
  props.style = ReplicationStyle::kActive;
  props.initial_replicas = 1;
  props.minimum_replicas = 1;
  const GroupId group = sys.deploy("svc", "IDL:Svc:1.0", props, {NodeId{1}}, [&](NodeId) {
    return std::make_shared<PeekableServant>(sys.sim());
  });
  sys.deploy_client("load", NodeId{3}, {group});

  // 20 ms mutating ops at ~20/s keep a slow FOM in flight most of the time;
  // 400 us read-only peeks admitted behind one finish first and get parked.
  OpenLoopDriver slow(sys.sim(), sys.client(NodeId{3}, group), "work", {}, 20.0, 0x510);
  OpenLoopDriver fast(sys.sim(), sys.client(NodeId{3}, group), "peek", {}, 500.0, 0xB57);
  slow.start();
  fast.start();
  sys.run_for(Duration(200'000'000));
  slow.stop();
  fast.stop();
  sys.run_for(Duration(100'000'000));

  const critpath::Report rep = critpath::analyze(*sys.spans());
  EXPECT_GT(rep.invocations.size(), 50u);
  expect_exact_partition(rep);
  // Peeks finishing under a still-executing work op are parked by the
  // in-order reply sequencer; the reply-park segment must surface that.
  std::size_t parked = 0;
  for (const critpath::Breakdown& b : rep.invocations) {
    if (b[critpath::Segment::kReplyPark].count() > 0) ++parked;
  }
  EXPECT_GT(parked, 0u) << "overlap run must show reply-park time on some "
                           "peek invocations";
}

TEST(CritPath, DefaultConfigKeepsInstrumentationInert) {
  // No span store at default config: every new instrumentation site is
  // gated on spans() != nullptr, so the wire format and event timing are
  // those of an uninstrumented build. Two seeded runs must agree byte-for-
  // byte on the whole trace export, and the span store must not exist.
  const auto run = [] {
    SystemConfig cfg;
    cfg.nodes = 3;
    cfg.trace_capacity = 1u << 16;  // local event log only; nothing on the wire
    System sys(cfg);
    EXPECT_EQ(sys.spans(), nullptr) << "span_capacity 0 must mean no span store";
    const GroupId group = deploy_counter(sys, 2);
    sys.deploy_client("load", NodeId{3}, {group});
    OpenLoopDriver driver(sys.sim(), sys.client(NodeId{3}, group), "inc",
                          CounterServant::encode_i32(1), 500.0, 0xD0D);
    driver.start();
    sys.run_for(Duration(50'000'000));
    driver.stop();
    sys.run_for(Duration(50'000'000));
    return sys.trace()->to_json();
  };
  EXPECT_EQ(run(), run());
}

TEST(CritPath, EnablingSpansIsLogicallyNeutral) {
  // Turning the span store on adds trace contexts to the wire (documented),
  // which shifts timing — but the logical outcome of a fixed sequence of
  // invocations must be identical: same reply values, same final state.
  const auto run = [](std::size_t span_capacity) {
    SystemConfig cfg;
    cfg.nodes = 3;
    cfg.span_capacity = span_capacity;
    System sys(cfg);
    std::shared_ptr<CounterServant> servant;
    const GroupId group = deploy_counter(sys, 2, &servant);
    sys.deploy_client("load", NodeId{3}, {group});
    orb::ObjectRef ref = sys.client(NodeId{3}, group);
    std::vector<std::int32_t> replies;
    for (int i = 0; i < 20; ++i) {
      bool done = false;
      ref.invoke("inc", CounterServant::encode_i32(i), [&](const orb::ReplyOutcome& out) {
        replies.push_back(CounterServant::decode_i32(out.body));
        done = true;
      });
      EXPECT_TRUE(sys.run_until([&] { return done; }, Duration(1'000'000'000)));
    }
    replies.push_back(servant->value());
    return replies;
  };
  EXPECT_EQ(run(0), run(1u << 14));
}

// ------------------------------------------------------- aggregate/Windows

TEST(CritPath, AggregateHandlesEdgeCases) {
  EXPECT_EQ(critpath::aggregate({}).count, 0u);
  EXPECT_EQ(critpath::aggregate({}).p99.count(), 0);

  const critpath::SegStats one = critpath::aggregate({Duration(7)});
  EXPECT_EQ(one.count, 1u);
  EXPECT_EQ(one.mean.count(), 7);
  EXPECT_EQ(one.p50.count(), 7);
  EXPECT_EQ(one.p99.count(), 7);

  // Nearest-rank over the sorted samples, the LatencyProfile formula.
  const critpath::SegStats four =
      critpath::aggregate({Duration(40), Duration(10), Duration(30), Duration(20)});
  EXPECT_EQ(four.mean.count(), 25);
  EXPECT_EQ(four.p50.count(), 30);
  EXPECT_EQ(four.p99.count(), 40);
}

TEST(CritPath, WindowsBucketByCompletionTime) {
  critpath::Windows windows(Duration(100));
  critpath::Breakdown b;
  b.start = util::TimePoint(10);
  b.end = util::TimePoint(50);  // window 0
  b.seg[static_cast<std::size_t>(critpath::Segment::kExecute)] = Duration(40);
  windows.add(b);
  b.start = util::TimePoint(120);
  b.end = util::TimePoint(160);  // window 1
  windows.add(b);
  b.start = util::TimePoint(130);
  b.end = util::TimePoint(199);  // window 1
  windows.add(b);

  const std::vector<critpath::Windows::Window> stats = windows.stats();
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(stats[0].index, 0u);
  EXPECT_EQ(stats[0].count, 1u);
  EXPECT_EQ(stats[1].index, 1u);
  EXPECT_EQ(stats[1].count, 2u);
  EXPECT_EQ(stats[1].start.count(), 100);
  EXPECT_EQ(stats[1].seg[static_cast<std::size_t>(critpath::Segment::kExecute)]
                .mean.count(),
            40);
  EXPECT_DOUBLE_EQ(stats[0].throughput_per_s, 1.0 / (100.0 / 1e9));
}

}  // namespace
}  // namespace eternal
