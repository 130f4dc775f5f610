// Conformance tests for the critical-path analyzer (src/obs/critpath.hpp):
// on clean, lossy and FOM-overlap runs, the per-invocation segments plus the
// explicit residual must partition the end-to-end latency *exactly* — the
// attribution is only trustworthy if nothing is double-counted and nothing
// leaks — and every segment must be non-negative on the winner path. Also
// covers the aggregate()/Windows collectors, the rule that the default
// configuration (no span store) keeps all new instrumentation inert, and the
// rule that attaching a span store changes what is observed, never the run.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/deployment.hpp"
#include "obs/critpath.hpp"
#include "obs/spans.hpp"
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
  // Spans only observe: every hop derives an invocation's trace id from the
  // envelope it handles, so attaching the store adds nothing to the wire.
  // The same seeded open-loop run over an active group and a warm-passive
  // group (whose primary is killed mid-run, so a backup replays the log),
  // both first contacted through the vendor handshake, must then be the
  // same run with spans on or off: a byte-identical trace-event stream
  // (every send, delivery and reply at the same virtual time), the same
  // client round-trip histogram, and the same final state.
  struct Outcome {
    std::string events;
    std::vector<std::uint64_t> rtt_counts;
    std::uint64_t rtt_sum = 0;
    std::uint64_t rtt_max = 0;
    std::vector<std::int32_t> values;
  };
  const auto run = [](std::size_t span_capacity) {
    SystemConfig cfg;
    cfg.nodes = 5;
    cfg.trace_capacity = 1u << 18;
    cfg.span_capacity = span_capacity;
    System sys(cfg);
    std::vector<std::shared_ptr<CounterServant>> servants(6);
    const auto factory = [&](NodeId n) {
      servants[n.value] = std::make_shared<CounterServant>(sys.sim(), 0, kExec);
      return servants[n.value];
    };
    FtProperties props;
    props.style = ReplicationStyle::kActive;
    props.initial_replicas = 2;
    props.minimum_replicas = 1;
    const GroupId active = sys.deploy("svc", "IDL:Svc:1.0", props, {NodeId{1}, NodeId{2}},
                                      factory);
    props.style = ReplicationStyle::kWarmPassive;
    props.checkpoint_interval = Duration(20'000'000);
    props.fault_monitoring_interval = Duration(5'000'000);
    const GroupId passive = sys.deploy("ledger", "IDL:Ledger:1.0", props,
                                       {NodeId{3}, NodeId{4}}, factory, {NodeId{4}, NodeId{3}});
    sys.deploy_client("load", NodeId{5}, {active, passive});
    OpenLoopDriver to_active(sys.sim(), sys.client(NodeId{5}, active), "inc",
                             CounterServant::encode_i32(1), 300.0, 0xA11);
    OpenLoopDriver to_passive(sys.sim(), sys.client(NodeId{5}, passive), "inc",
                              CounterServant::encode_i32(2), 300.0, 0xB22);
    to_active.start();
    to_passive.start();
    sys.run_for(Duration(60'000'000));
    sys.kill_replica(NodeId{3}, passive);
    sys.run_for(Duration(60'000'000));
    to_active.stop();
    to_passive.stop();
    sys.run_for(Duration(100'000'000));
    EXPECT_GT(to_active.completed(), 20u);
    EXPECT_GT(to_passive.completed(), 20u);
    EXPECT_EQ(to_active.in_flight() + to_passive.in_flight(), 0u);

    Outcome out;
    out.events = sys.trace()->to_json();
    const obs::Histogram& rtt = sys.metrics().histogram("orb.reply_rtt_ns");
    out.rtt_counts = rtt.counts();
    out.rtt_sum = rtt.sum();
    out.rtt_max = rtt.max();
    for (std::uint32_t n : {1u, 2u, 4u}) out.values.push_back(servants[n]->value());
    return out;
  };
  const Outcome off = run(0);
  const Outcome on = run(1u << 14);
  EXPECT_GT(off.rtt_sum, 0u);
  EXPECT_EQ(off.events, on.events) << "a span-on run must not move a single event";
  EXPECT_EQ(off.rtt_counts, on.rtt_counts);
  EXPECT_EQ(off.rtt_sum, on.rtt_sum);
  EXPECT_EQ(off.rtt_max, on.rtt_max);
  EXPECT_EQ(off.values, on.values);
}

TEST(CritPath, HandshakesAndTheirDuplicatesOpenNoSpan) {
  // Both replicas of an active client first contact several active servers
  // at once, each through the vendor handshake, and both replicas of each
  // server answer it, over a lossy ring: twins of handshakes, of their
  // replies and of the invocations after them are ordered and suppressed as
  // duplicates. Handshakes are untraced at every hop: no copy opens a span
  // or marks a duplicate instant, while each application invocation grows
  // its tree as usual.
  SystemConfig cfg = spanful_config(1);
  cfg.nodes = 4;
  cfg.trace_capacity = 1u << 16;
  System sys(cfg);
  FtProperties props;
  props.style = ReplicationStyle::kActive;
  props.initial_replicas = 2;
  props.minimum_replicas = 1;
  const GroupId client = sys.deploy("app", "IDL:App:1.0", props, {NodeId{1}, NodeId{2}},
                                    [](NodeId) { return std::make_shared<core::NullServant>(); });
  constexpr int kServers = 6;
  constexpr int kOps = 2;
  std::vector<GroupId> servers;
  std::vector<orb::ObjectRef> refs;
  for (int i = 0; i < kServers; ++i) {
    const GroupId server =
        sys.deploy("svc" + std::to_string(i), "IDL:Svc:1.0", props, {NodeId{3}, NodeId{4}},
                   [&](NodeId) { return std::make_shared<CounterServant>(sys.sim()); });
    for (NodeId n : {NodeId{1}, NodeId{2}}) {
      sys.bind_client(n, client, server);
      refs.push_back(sys.client(n, server));
    }
    servers.push_back(server);
  }
  // Frame loss leaves a twin unaware, at its token visit, that its
  // sibling's copy was ordered: both copies go out, and one is suppressed.
  sys.ethernet().set_loss_probability(0.1);
  int done = 0;
  for (int op = 0; op < kOps; ++op) {
    for (orb::ObjectRef& ref : refs) {
      ref.invoke("inc", CounterServant::encode_i32(1),
                 [&done](const orb::ReplyOutcome&) { ++done; });
    }
  }
  ASSERT_TRUE(sys.run_until([&] { return done == kOps * 2 * kServers; },
                            Duration(1'000'000'000)));
  sys.run_for(Duration(50'000'000));

  // A handshake is its connection's first operation: group op_seq 0.
  constexpr std::uint64_t kHandshakeSeq = 0;
  std::size_t handshake_dups = 0;
  std::size_t invocation_dups = 0;
  for (const obs::TraceEvent& ev : sys.trace()->snapshot()) {
    if (ev.kind != "request_dup" && ev.kind != "reply_dup") continue;
    (ev.seq == kHandshakeSeq ? handshake_dups : invocation_dups) += 1;
  }
  ASSERT_GT(handshake_dups, 0u) << "the scenario must suppress a handshake twin";
  ASSERT_GT(invocation_dups, 0u);

  std::set<obs::TraceId> handshakes;
  for (GroupId server : servers) {
    handshakes.insert(obs::derived_trace_id(client, server, kHandshakeSeq));
  }
  std::size_t roots = 0;
  std::size_t dup_instants = 0;
  for (const obs::Span& span : sys.spans()->snapshot()) {
    EXPECT_EQ(handshakes.count(span.trace), 0u) << "a handshake opened " << span.name;
    if (span.name == "invocation") roots += 1;
    if (span.name == "request-dup" || span.name == "reply-dup") dup_instants += 1;
  }
  EXPECT_EQ(roots, static_cast<std::size_t>(kOps * kServers));
  EXPECT_EQ(dup_instants, invocation_dups);
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
