// Causal span tracing (src/obs/spans.hpp) end-to-end:
//   - same-seed runs export byte-identical Chrome trace JSON (the span
//     subsystem inherits the simulator's determinism);
//   - every delivered invocation produces a complete span tree — root
//     "invocation" with order-wait / deliver / execute / reply children,
//     all closed, no orphan spans;
//   - a kill + relaunch produces a recovery profile whose six Figure-5
//     phases appear in order, contiguously, and sum exactly to the root
//     recovery span's duration;
//   - Histogram::percentile interpolates within buckets and clamps to the
//     observed range (the satellite feeding p50/p95/p99 to the benches).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/deployment.hpp"
#include "obs/invariants.hpp"
#include "obs/metrics.hpp"
#include "obs/spans.hpp"

#include "../support/counter_servant.hpp"
#include "../support/forwarder_servant.hpp"

namespace eternal::obs {
namespace {

using core::FtProperties;
using core::ReplicationStyle;
using core::System;
using core::SystemConfig;
using test_support::CounterServant;
using util::Duration;
using util::GroupId;
using util::NodeId;

constexpr int kInvocations = 20;

struct ScenarioResult {
  std::string chrome_json;
  std::vector<Span> spans;
  std::vector<RecoveryProfiler::PhaseBreakdown> recoveries;
  std::uint64_t spans_dropped = 0;
};

// Active 2-way group, a streaming client, one kill + relaunch mid-stream.
ScenarioResult run_scenario(std::uint64_t seed) {
  SystemConfig cfg;
  cfg.nodes = 4;
  cfg.seed = seed;
  cfg.span_capacity = 1u << 14;
  System sys(cfg);

  FtProperties props;
  props.style = ReplicationStyle::kActive;
  props.initial_replicas = 2;
  props.minimum_replicas = 1;
  props.fault_monitoring_interval = Duration(5'000'000);
  const GroupId server =
      sys.deploy("server", "IDL:Svc:1.0", props, {NodeId{1}, NodeId{2}}, [&](NodeId) {
        return std::make_shared<CounterServant>(sys.sim(), 2048, Duration(50'000));
      });
  sys.deploy_client("client", NodeId{4}, {server});
  orb::ObjectRef ref = sys.client(NodeId{4}, server);

  int done = 0;
  std::function<void()> fire = [&] {
    ref.invoke("inc", CounterServant::encode_i32(1),
               [&](const orb::ReplyOutcome&) { ++done; });
  };
  auto pump_until = [&](int target) {
    while (done < target) {
      fire();
      const int want = done + 1;
      if (!sys.run_until([&] { return done >= want; }, Duration(2'000'000'000))) break;
    }
  };
  pump_until(kInvocations / 2);

  sys.kill_replica(NodeId{2}, server);
  sys.run_until(
      [&] {
        const auto* e = sys.mech(NodeId{1}).groups().find(server);
        return e != nullptr && e->members.size() == 1;
      },
      Duration(500'000'000));
  sys.relaunch_replica(NodeId{2}, server);
  sys.run_until([&] { return !sys.spans()->recovery().completed().empty(); },
                Duration(5'000'000'000));

  pump_until(kInvocations);
  sys.run_for(Duration(50'000'000));  // drain in-flight work

  ScenarioResult result;
  result.chrome_json = sys.spans()->to_chrome_json();
  result.spans = sys.spans()->snapshot();
  result.recoveries = sys.spans()->recovery().completed();
  result.spans_dropped = sys.spans()->dropped();
  return result;
}

const ScenarioResult& scenario() {
  static const ScenarioResult result = run_scenario(7);
  return result;
}

TEST(SpansDeterminism, SameSeedRunsExportIdenticalChromeTraces) {
  const ScenarioResult a = run_scenario(11);
  const ScenarioResult b = run_scenario(11);
  ASSERT_FALSE(a.chrome_json.empty());
  EXPECT_EQ(a.chrome_json, b.chrome_json);
  EXPECT_EQ(a.spans.size(), b.spans.size());
}

TEST(SpansDeterminism, ChromeExportHasRealContent) {
  // Guard the byte-compare above against vacuity: the export must actually
  // contain the invocation and recovery span trees, process metadata and
  // complete ("X") events.
  const std::string& json = scenario().chrome_json;
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"node-1\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"invocation\""), std::string::npos);
  EXPECT_NE(json.find("\"order-wait\""), std::string::npos);
  EXPECT_NE(json.find("\"recovery\""), std::string::npos);
  EXPECT_NE(json.find("\"state-transfer\""), std::string::npos);
}

TEST(SpanTree, EveryInvocationHasCompleteClosedTree) {
  const ScenarioResult& r = scenario();
  ASSERT_EQ(r.spans_dropped, 0u) << "ring too small for the scenario";

  std::map<TraceId, std::vector<const Span*>> by_trace;
  for (const Span& s : r.spans) by_trace[s.trace].push_back(&s);

  int invocations = 0;
  for (const auto& [trace, spans] : by_trace) {
    const Span* root = nullptr;
    for (const Span* s : spans) {
      if (s->name == "invocation") root = s;
    }
    if (root == nullptr) continue;  // a recovery trace
    ++invocations;

    std::map<std::string_view, int> names;
    for (const Span* s : spans) names[s->name] += 1;
    EXPECT_FALSE(root->open) << "trace " << trace;
    EXPECT_EQ(names["invocation"], 1) << "trace " << trace;
    EXPECT_EQ(names["order-wait"], 1) << "trace " << trace;
    EXPECT_GE(names["deliver"], 1) << "trace " << trace;
    EXPECT_GE(names["execute"], 1) << "trace " << trace;
    EXPECT_EQ(names["reply"], 1) << "trace " << trace;

    for (const Span* s : spans) {
      if (s->instant) continue;
      EXPECT_FALSE(s->open) << s->name << " of trace " << trace;
      EXPECT_GE(s->start.count(), root->start.count()) << s->name;
      EXPECT_LE(s->end.count(), root->end.count()) << s->name;
    }
  }
  EXPECT_GE(invocations, kInvocations);
}

TEST(SpanTree, NoOrphanSpans) {
  const ScenarioResult& r = scenario();
  std::set<SpanId> ids;
  for (const Span& s : r.spans) ids.insert(s.id);
  for (const Span& s : r.spans) {
    if (s.parent == 0) continue;
    EXPECT_TRUE(ids.count(s.parent))
        << s.name << " (span " << s.id << ") references missing parent " << s.parent;
    const auto parent = std::find_if(r.spans.begin(), r.spans.end(),
                                     [&](const Span& p) { return p.id == s.parent; });
    ASSERT_NE(parent, r.spans.end());
    EXPECT_EQ(parent->trace, s.trace) << "parent in a different trace";
  }
}

TEST(RecoveryProfile, SixPhasesInOrderSummingToRoot) {
  const ScenarioResult& r = scenario();
  ASSERT_EQ(r.recoveries.size(), 1u);
  const RecoveryProfiler::PhaseBreakdown& p = r.recoveries.front();
  EXPECT_EQ(p.node, NodeId{2});
  // The transferred payload is the CDR-marshaled get_state return value:
  // the 2048 application bytes plus encoding overhead.
  EXPECT_GE(p.state_bytes, 2048u);
  EXPECT_LT(p.state_bytes, 4096u);

  // All phases non-negative; detection and transfer must take real time.
  EXPECT_GE(p.fault_detection.count(), 0);
  EXPECT_GE(p.quiesce.count(), 0);
  EXPECT_GT(p.get_state.count(), 0);
  EXPECT_GT(p.state_transfer.count(), 0);
  EXPECT_GE(p.set_state.count(), 0);
  EXPECT_GE(p.replay.count(), 0);

  // The span tree mirrors the breakdown: six contiguous children under the
  // "recovery" root, in Figure-5 order, partitioning it exactly.
  const Span* root = nullptr;
  for (const Span& s : r.spans) {
    if (s.name == "recovery") root = &s;
  }
  ASSERT_NE(root, nullptr);
  EXPECT_FALSE(root->open);

  static const std::string_view kPhases[] = {"fault-detection", "quiesce",
                                             "get_state",       "state-transfer",
                                             "set_state",       "replay"};
  std::vector<const Span*> phases;
  for (const Span& s : r.spans) {
    if (s.parent == root->id) phases.push_back(&s);
  }
  ASSERT_EQ(phases.size(), 6u);
  util::TimePoint cursor = root->start;
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(phases[i]->name, kPhases[i]);
    EXPECT_EQ(phases[i]->start.count(), cursor.count()) << kPhases[i];
    cursor = phases[i]->end;
  }
  EXPECT_EQ(cursor.count(), root->end.count());
  EXPECT_EQ(p.total().count(), (root->end - root->start).count());
}

TEST(DerivedTraceId, DeterministicDisjointFromSequentialIds) {
  const TraceId a = derived_trace_id(util::GroupId{3}, util::GroupId{7}, 12);
  EXPECT_EQ(a, derived_trace_id(util::GroupId{3}, util::GroupId{7}, 12));
  EXPECT_NE(a, derived_trace_id(util::GroupId{3}, util::GroupId{7}, 13));
  EXPECT_NE(a, derived_trace_id(util::GroupId{4}, util::GroupId{7}, 12));
  // Top bit set: can never collide with SpanStore::new_trace()'s 1,2,3,...
  EXPECT_NE(a & (std::uint64_t{1} << 63), 0u);
}

// Regression for the replicated-client trace semantics: when the *client* is
// an actively replicated group (a middle tier), every replica intercepts the
// same nested invocation and used to mint its own new_trace() id — the
// suppressed duplicate's "invocation" root then had no reply to close it,
// leaving an orphaned, forever-open second root per call. Minting the id from
// (client group, server group, op_seq) makes the duplicates' captures
// byte-identical, so begin_named collapses them into one tree.
TEST(ReplicatedClientTrace, DuplicateCaptorsJoinOneSpanTree) {
  SystemConfig cfg;
  cfg.nodes = 4;
  cfg.seed = 23;
  cfg.span_capacity = 1u << 14;
  System sys(cfg);

  FtProperties backend_props;
  backend_props.style = ReplicationStyle::kActive;
  backend_props.initial_replicas = 1;
  backend_props.minimum_replicas = 1;
  std::shared_ptr<CounterServant> backend_servant;
  const GroupId backend =
      sys.deploy("backend", "IDL:Backend:1.0", backend_props, {NodeId{3}}, [&](NodeId) {
        backend_servant = std::make_shared<CounterServant>(sys.sim());
        return backend_servant;
      });

  // The replicated client: an active 2-way middle tier, both replicas of
  // which intercept the same nested invocation to the backend.
  FtProperties middle_props;
  middle_props.style = ReplicationStyle::kActive;
  middle_props.initial_replicas = 2;
  middle_props.minimum_replicas = 1;
  const GroupId middle = sys.deploy(
      "middle", "IDL:Middle:1.0", middle_props, {NodeId{1}, NodeId{2}}, [&](NodeId n) {
        return std::make_shared<test_support::ForwarderServant>(sys.client(n, backend),
                                                                "inc");
      });
  sys.bind_client(NodeId{1}, middle, backend);
  sys.bind_client(NodeId{2}, middle, backend);
  sys.deploy_client("app", NodeId{4}, {middle});
  orb::ObjectRef ref = sys.client(NodeId{4}, middle);

  constexpr int kOps = 8;
  for (int i = 0; i < kOps; ++i) {
    bool done = false;
    ref.invoke("forward", CounterServant::encode_i32(1),
               [&done](const orb::ReplyOutcome&) { done = true; });
    ASSERT_TRUE(sys.run_until([&] { return done; }, Duration(500'000'000)));
  }
  sys.run_for(Duration(50'000'000));  // drain in-flight work
  ASSERT_EQ(backend_servant->value(), kOps);

  std::map<TraceId, std::vector<const Span*>> by_trace;
  const std::vector<Span> spans = sys.spans()->snapshot();
  ASSERT_EQ(sys.spans()->dropped(), 0u);
  for (const Span& s : spans) by_trace[s.trace].push_back(&s);

  int nested_roots = 0;
  for (const auto& [trace, trace_spans] : by_trace) {
    int roots = 0;
    for (const Span* s : trace_spans) {
      if (s->name != "invocation") continue;
      ++roots;
      // The bug's signature: a second root that nothing ever closes.
      EXPECT_FALSE(s->open) << "orphaned invocation root in trace " << trace;
      if (s->fields.has("server") && s->fields.num("server") == backend.value) ++nested_roots;
    }
    EXPECT_LE(roots, 1) << "duplicate captors opened parallel roots in trace " << trace;
  }
  // One tree per *logical* nested invocation — not one per captor replica.
  EXPECT_EQ(nested_roots, kOps);
}

TEST(HistogramPercentile, InterpolatesAndClamps) {
  Histogram h({10, 20, 40});
  EXPECT_EQ(h.percentile(50), 0.0);  // empty

  for (int i = 0; i < 10; ++i) h.observe(15);  // one bucket: (10, 20]
  // Every rank lands in that bucket; estimates clamp to the observed value.
  EXPECT_EQ(h.percentile(0), 15.0);
  EXPECT_EQ(h.percentile(50), 15.0);
  EXPECT_EQ(h.percentile(100), 15.0);

  Histogram spread({10, 20, 40});
  for (int i = 0; i < 50; ++i) spread.observe(5);    // bucket [0,10]
  for (int i = 0; i < 50; ++i) spread.observe(35);   // bucket (20,40]
  EXPECT_LE(spread.percentile(25), 10.0);
  EXPECT_GT(spread.percentile(75), 20.0);
  EXPECT_LE(spread.percentile(75), 40.0);
  // Monotone in p.
  double prev = 0.0;
  for (double p : {5.0, 25.0, 50.0, 75.0, 95.0}) {
    EXPECT_GE(spread.percentile(p), prev);
    prev = spread.percentile(p);
  }

  Histogram overflow({10});
  overflow.observe(1000);
  EXPECT_EQ(overflow.percentile(99), 1000.0);  // overflow bucket → max
}

// ----------------------------------------------------------- FlightRecorder

TEST(FlightRecorder, UniquePathSuffixesRepeatRequests) {
  // First request for a base returns it unchanged; repeats insert a run
  // counter before the extension (dumps from reruns never overwrite).
  const std::string base = "flight_unique_path_case.json";
  EXPECT_EQ(FlightRecorder::unique_path(base), "flight_unique_path_case.json");
  EXPECT_EQ(FlightRecorder::unique_path(base), "flight_unique_path_case.2.json");
  EXPECT_EQ(FlightRecorder::unique_path(base), "flight_unique_path_case.3.json");
  // Independent bases have independent counters.
  EXPECT_EQ(FlightRecorder::unique_path("flight_other_case.json"),
            "flight_other_case.json");
  // Extension-less bases get a plain numeric suffix.
  EXPECT_EQ(FlightRecorder::unique_path("flight_noext_case"), "flight_noext_case");
  EXPECT_EQ(FlightRecorder::unique_path("flight_noext_case"), "flight_noext_case.2");
}

TEST(FlightRecorder, RepeatRunsKeepBothDumpFiles) {
  // Regression: a chaos scenario scored twice in one process used to write
  // flight_chaos_<scenario>.json both times, clobbering the first dump.
  TraceBuffer trace(8);
  trace.push(TraceEvent{util::TimePoint{}, util::NodeId{1}, Layer::kSim, "chaos", 1,
                        {{"scenario", "regress"}, {"action", "noop"}}});
  FlightRecorder recorder(&trace, nullptr);

  const std::string first = FlightRecorder::unique_path("flight_overwrite_regress.json");
  const std::string second =
      FlightRecorder::unique_path("flight_overwrite_regress.json");
  ASSERT_NE(first, second);
  ASSERT_TRUE(recorder.write_file(first));
  ASSERT_TRUE(recorder.write_file(second));
  EXPECT_TRUE(std::ifstream(first).good());
  EXPECT_TRUE(std::ifstream(second).good());
  std::remove(first.c_str());
  std::remove(second.c_str());
}

TEST(FlightRecorder, AttachedViolationsAreEmbeddedInTheDump) {
  TraceBuffer trace(8);
  FlightRecorder recorder(&trace, nullptr);

  Violation indexed;
  indexed.rule = "replay-order";
  indexed.message = "replica r1 executed 9#2 out of enqueue order";
  indexed.event_index = 3;
  indexed.phase = "decode";
  Violation bare;
  bare.rule = "trace-dropped";
  bare.message = "2 of 10 events dropped";
  recorder.attach_violations({indexed, bare});

  const std::string json = recorder.to_json();
  EXPECT_NE(json.find("\"violations\":[{"), std::string::npos) << json;
  EXPECT_NE(json.find("\"rule\":\"replay-order\""), std::string::npos);
  EXPECT_NE(json.find("\"event_index\":3"), std::string::npos);
  EXPECT_NE(json.find("\"phase\":\"decode\""), std::string::npos);
  EXPECT_NE(json.find("\"rule\":\"trace-dropped\""), std::string::npos);
  // The un-indexed violation omits the optional keys rather than emitting
  // sentinel values.
  EXPECT_EQ(json.find("18446744073709551615"), std::string::npos);

  // A recorder without attached violations emits an empty array — the key
  // is always present, so consumers need no schema probe.
  FlightRecorder clean(&trace, nullptr);
  EXPECT_NE(clean.to_json().find("\"violations\":[]"), std::string::npos);
}

}  // namespace
}  // namespace eternal::obs
