// Execution-engine conformance against golden fixtures.
//
// Every request executes as a run-to-completion FOM (src/core/exec/): agreed
// messages only *enqueue* a FOM at their total-order position, and the
// replica's engine drains the run queue through decode → execute → log →
// reply phases, emitting replies strictly in total-order position even when
// execution completes out of order. At admission concurrency 1 (the
// default POA window) this must be observationally identical to the paper's
// synchronous upcall path. That path no longer exists, so its observable
// behaviour was recorded into tests/core/exec_conformance_golden.txt while
// the two still ran side by side and agreed, and each run here is compared
// against that record:
//
//   - per-node interleaved agreed-delivery streams (same frames, same total
//     order, same ring sequence numbers, same virtual delivery instants —
//     nothing moved on the wire), and the per-sender streams they project
//     to;
//   - per-replica run-queue streams (mech enqueue events);
//   - per-client reply ordering, reply bodies and reply instants;
//   - servant state digests (value / oneway notes / ops served) and the
//     Mechanisms' delivery, replay and promotion counters;
//   - plus a clean InvariantChecker verdict.
//
// Scenarios: clean, lossy, ring reformation, chunked set_state recovery, a
// chaos smoke, and a warm-passive promotion whose primary is killed under
// load, so the new primary replays the message log through the engine.
//
// A slow-servant scenario runs the engine at concurrency 4 (with a matching
// POA window): a stalling operation overlaps with bystander requests, so
// completion order differs from admission order and the in-order reply
// sequencer is load-bearing. Its record holds the observables that must
// survive overlap — per-client projections of the run-queue streams, the
// per-client reply schedule, and the final servant digests. (The latency
// effect of that overlap is measured in bench/bench_throughput.cpp,
// BENCH_exec_engine.json.)
//
// The fixture is rewritten by the disabled ExecConformanceGolden.DISABLED_Record
// test (run with --gtest_also_run_disabled_tests) — only when a change is
// meant to move wire-visible behaviour. On a mismatch the failure message
// prints the observed lines of the diverging section.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/deployment.hpp"
#include "obs/invariants.hpp"
#include "sim/chaos.hpp"
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

constexpr Duration kMs{1'000'000};

enum class Scenario {
  kClean,
  kLossy,
  kReformation,
  kChunked,
  kChaos,
  kSlowServant,
  kPromotion,
};

const char* to_string(Scenario s) {
  switch (s) {
    case Scenario::kClean: return "clean";
    case Scenario::kLossy: return "lossy";
    case Scenario::kReformation: return "reformation";
    case Scenario::kChunked: return "chunked";
    case Scenario::kChaos: return "chaos";
    case Scenario::kSlowServant: return "slow-servant";
    case Scenario::kPromotion: return "promotion";
  }
  return "?";
}

/// A run's observables as named sections of lines, the unit the golden
/// fixture stores and compares.
using Sections = std::map<std::string, std::vector<std::string>>;

/// Everything a run is compared on.
struct Outcome {
  /// node → full interleaved agreed-delivery stream, one entry per Totem
  /// deliver event: "<ring> <seq> <origin> <frame digest> <size> @<virtual
  /// ns>", the ring named by its order of first appearance in the run ("r0",
  /// "r1", ...).
  std::map<std::uint32_t, std::vector<std::string>> per_node;
  /// replica → "<client>#<op_seq>" run-queue stream (mech enqueue events):
  /// the application-level per-sender delivery order.
  std::map<std::string, std::vector<std::string>> enqueue_streams;
  /// client tag → reply log in callback order
  /// ("<tag>#<i>:<op>=<result> @<virtual ns>"): which op answered, with
  /// what, and when — a shifted execution instant shows up here even when
  /// no frame changes order.
  std::map<std::string, std::vector<std::string>> replies;
  /// One digest line per servant incarnation that finished the run live.
  std::vector<std::string> servant_digests;
  /// One line per node: the Mechanisms' execution-path counters.
  std::vector<std::string> mech_counters;
  std::vector<obs::Violation> violations;
  std::uint64_t trace_dropped = 0;
  std::uint64_t engine_max_inflight = 0;  ///< from the replicas' engines
  std::uint64_t log_replayed = 0;         ///< summed over nodes
  bool drained = false;
};

/// Decodes the reply body of a two-way counter op into a short tag.
std::string reply_tag(const orb::ReplyOutcome& out) {
  if (out.status != giop::ReplyStatus::kNoException) return "exception";
  if (out.body.empty()) return "void";
  return std::to_string(CounterServant::decode_i32(out.body));
}

/// Runs one scenario at one admission concurrency and extracts its Outcome.
Outcome run_scenario(Scenario scenario, std::size_t concurrency, std::uint64_t seed) {
  SystemConfig cfg;
  cfg.nodes = 4;
  cfg.seed = seed;
  cfg.trace_capacity = 1u << 18;
  cfg.span_capacity = 1u << 14;  // exercise the per-phase FOM spans too
  cfg.orb.poa_max_inflight = concurrency;
  if (scenario == Scenario::kChunked) cfg.mechanisms.state_chunk_bytes = 512;

  System sys(cfg);
  const bool passive = scenario == Scenario::kPromotion;
  FtProperties props;
  props.style = passive ? ReplicationStyle::kWarmPassive : ReplicationStyle::kActive;
  props.initial_replicas = 2;
  props.minimum_replicas = 1;
  if (passive) props.checkpoint_interval = 10 * kMs;

  const std::size_t pad = scenario == Scenario::kChunked ? 3000 : 0;
  std::vector<std::shared_ptr<CounterServant>> servants(cfg.nodes + 1);
  const GroupId server = sys.deploy(
      "counter", "IDL:Counter:1.0", props, {NodeId{1}, NodeId{2}},
      [&](NodeId n) {
        auto s = std::make_shared<CounterServant>(sys.sim(), pad);
        if (scenario == Scenario::kSlowServant) s->set_slow_op("get", 3 * kMs);
        servants[n.value] = s;
        return s;
      });
  sys.deploy_client("client-a", NodeId{3}, {server});
  sys.deploy_client("client-b", NodeId{4}, {server});
  orb::ObjectRef ref_a = sys.client(NodeId{3}, server);
  orb::ObjectRef ref_b = sys.client(NodeId{4}, server);

  Outcome out;
  int expected = 0;
  int replied = 0;
  int notes = 0;
  // Fires round i's operation on one client: a deterministic mix of two-way
  // incs and (slow-able) gets with an occasional oneway note. Back-to-back
  // rounds outpace the servant, so the run queue is never trivially empty.
  auto fire = [&](const std::string& tag, orb::ObjectRef& ref, int i) {
    if (i % 7 == 3) {
      ref.oneway("note", {});
      ++notes;
      return;
    }
    const bool get = i % 5 == 2;
    const std::string op = get ? "get" : "inc";
    util::Bytes args = get ? util::Bytes{} : CounterServant::encode_i32(1 + i % 3);
    ++expected;
    ref.invoke(op, std::move(args), [&, tag, i, op](const orb::ReplyOutcome& reply) {
      out.replies[tag].push_back(tag + "#" + std::to_string(i) + ":" + op + "=" +
                                 reply_tag(reply) + " @" +
                                 std::to_string(sys.sim().now().count()));
      ++replied;
    });
  };
  auto fire_rounds = [&](int from, int to) {
    for (int i = from; i < to; ++i) {
      fire("a", ref_a, i);
      fire("b", ref_b, i);
      sys.run_for(2 * kMs);
    }
  };

  sim::ChaosScript chaos(sys.sim(), std::string("conf_") + to_string(scenario));
  switch (scenario) {
    case Scenario::kLossy:
      sys.ethernet().set_loss_probability(0.02);
      break;
    case Scenario::kChaos:
      chaos.loss_burst(4 * kMs, 8 * kMs, sys.ethernet(), 0.05);
      chaos.receiver_loss_burst(14 * kMs, 6 * kMs, sys.ethernet(), NodeId{3}, 0.5);
      chaos.arm();
      break;
    default:
      break;
  }

  if (scenario == Scenario::kReformation) {
    // Crash a hosting processor mid-stream: the ring reforms and the
    // surviving replica serves on. Rounds continue across the reformation.
    fire_rounds(0, 6);
    sys.crash_node(NodeId{2});
    fire_rounds(6, 16);
  } else if (scenario == Scenario::kChunked) {
    // Kill → serve degraded → relaunch: the 3 KB servant state rides back
    // as a fragmented (chunked) set_state, with live traffic before,
    // during and after the transfer.
    fire_rounds(0, 4);
    sys.kill_replica(NodeId{2}, server);
    EXPECT_TRUE(sys.run_until(
        [&] {
          const auto* entry = sys.mech(NodeId{1}).groups().find(server);
          return entry != nullptr && entry->members.size() == 1;
        },
        Duration(3'000'000'000)));
    fire_rounds(4, 10);
    sys.relaunch_replica(NodeId{2}, server);
    fire_rounds(10, 16);
    EXPECT_TRUE(sys.run_until(
        [&] { return sys.mech(NodeId{2}).hosts_operational(server); },
        Duration(5'000'000'000)));
  } else if (scenario == Scenario::kPromotion) {
    // Kill the warm-passive primary under load: requests keep arriving
    // while the fault detector notices, the backup is promoted, and it
    // replays everything logged since the last checkpoint — oneways
    // included — before it turns operational.
    fire_rounds(0, 8);
    sys.kill_replica(NodeId{1}, server);
    fire_rounds(8, 16);
  } else {
    fire_rounds(0, 16);
  }

  if (scenario == Scenario::kLossy) sys.ethernet().set_loss_probability(0.0);

  // Drain: every two-way reply back, every oneway note executed at every
  // live active replica, then a settle window for grace timers and reply
  // tails. (Passive backups never execute; their notes come from nowhere.)
  out.drained =
      sys.run_until([&] { return replied == expected; }, Duration(10'000'000'000));
  if (!passive) {
    sys.run_until(
        [&] {
          for (std::uint32_t n = 1; n <= cfg.nodes; ++n) {
            if (servants[n] == nullptr) continue;
            if (!sys.mech(NodeId{n}).hosts_operational(server)) continue;
            if (servants[n]->notes() != static_cast<std::uint64_t>(notes)) return false;
          }
          return true;
        },
        Duration(2'000'000'000));
  }
  sys.run_for(50 * kMs);

  // ---- extraction ----
  out.trace_dropped = sys.trace()->dropped();
  out.violations = obs::InvariantChecker::check(*sys.trace());
  std::map<std::uint64_t, std::size_t> ring_names;
  for (const obs::TraceEvent& ev : sys.trace()->snapshot()) {
    const obs::Fields& f = ev.fields;
    if (ev.layer == obs::Layer::kMech && ev.kind == "enqueue") {
      out.enqueue_streams["replica" + std::to_string(f.num("replica"))].push_back(
          std::to_string(f.num("client")) + "#" + std::to_string(f.num("op_seq")));
      continue;
    }
    if (ev.layer != obs::Layer::kTotem || ev.kind != "deliver") continue;
    const std::size_t ring =
        ring_names.try_emplace(f.num("ring"), ring_names.size()).first->second;
    char digest[17];
    std::snprintf(digest, sizeof digest, "%016llx",
                  static_cast<unsigned long long>(f.num("digest")));
    out.per_node[ev.node.value].push_back(
        "r" + std::to_string(ring) + " " + std::to_string(ev.seq) + " " +
        std::to_string(f.num("origin")) + " " + digest + " " + std::to_string(f.num("size")) +
        " @" + std::to_string(ev.sim_time.count()));
  }
  for (std::uint32_t n = 1; n <= cfg.nodes; ++n) {
    const core::Mechanisms& mech = sys.mech(NodeId{n});
    const core::MechanismsStats& st = mech.stats();
    out.log_replayed += st.log_replayed_messages;
    out.mech_counters.push_back(
        "node=" + std::to_string(n) +
        " requests_delivered=" + std::to_string(st.requests_delivered) +
        " replies_delivered=" + std::to_string(st.replies_delivered) +
        " multicasts=" + std::to_string(st.multicasts) +
        " log_replayed=" + std::to_string(st.log_replayed_messages) +
        " promotions=" + std::to_string(st.promotions) +
        " unmatched_replies=" + std::to_string(st.replies_unmatched_dropped));
    if (const core::exec::ReplicaEngine* eng = mech.engine_of(server)) {
      out.engine_max_inflight =
          std::max<std::uint64_t>(out.engine_max_inflight, eng->stats().max_inflight);
    }
    if (servants[n] == nullptr) continue;
    if (!mech.hosts_operational(server)) continue;
    out.servant_digests.push_back("node=" + std::to_string(n) +
                                  " value=" + std::to_string(servants[n]->value()) +
                                  " notes=" + std::to_string(servants[n]->notes()) +
                                  " ops=" + std::to_string(servants[n]->ops_served()));
  }
  return out;
}

/// Keeps only the entries of `stream` belonging to `prefix` (e.g. "2#").
std::vector<std::string> project(const std::vector<std::string>& stream,
                                 const std::string& prefix) {
  std::vector<std::string> out;
  for (const std::string& s : stream) {
    if (s.rfind(prefix, 0) == 0) out.push_back(s);
  }
  return out;
}

/// Strips the "=<result> @<time>" suffix: the reply *schedule* (which op
/// answered in what order, per client) without the state-dependent payload
/// and the overlap-dependent instant.
std::vector<std::string> reply_schedule(const std::vector<std::string>& replies) {
  std::vector<std::string> out;
  for (const std::string& r : replies) out.push_back(r.substr(0, r.rfind('=')));
  return out;
}

/// The full record of a concurrency-1 run.
Sections full_sections(const Outcome& o) {
  Sections s;
  for (const auto& [node, stream] : o.per_node) {
    s["per_node/" + std::to_string(node)] = stream;
  }
  for (const auto& [replica, stream] : o.enqueue_streams) s["enqueue/" + replica] = stream;
  for (const auto& [client, replies] : o.replies) s["replies/" + client] = replies;
  s["servants"] = o.servant_digests;
  s["mech"] = o.mech_counters;
  return s;
}

/// The observables that must survive overlapped execution (concurrency >
/// 1): reply multicast instants move, which perturbs token rotation and so
/// the cross-sender interleaving, but each client's FIFO projection of every
/// run-queue stream, each client's reply schedule, and the final servant
/// digests (the op multiset commutes to the same state) stay fixed.
Sections overlap_sections(const Outcome& o) {
  Sections s;
  for (const auto& [replica, stream] : o.enqueue_streams) {
    for (const std::string client : {"2", "3"}) {
      s["fifo/" + replica + "/" + client] = project(stream, client + "#");
    }
  }
  for (const auto& [client, replies] : o.replies) {
    s["schedule/" + client] = reply_schedule(replies);
  }
  s["servants"] = o.servant_digests;
  return s;
}

/// The per-sender projection of the per-node streams: what each node
/// delivered from each origin ("<digest> <size>"), in order, without ring
/// names or sequence numbers.
Sections per_sender(const Sections& s) {
  Sections out;
  for (const auto& [name, lines] : s) {
    if (name.rfind("per_node/", 0) != 0) continue;
    for (const std::string& line : lines) {
      std::istringstream fields(line);
      std::string ring, seq, origin, digest, size;
      fields >> ring >> seq >> origin >> digest >> size;
      out[name + "/from" + origin].push_back(digest + " " + size);
    }
  }
  return out;
}

std::string golden_key(Scenario scenario, std::uint64_t seed, std::size_t concurrency) {
  return std::string(to_string(scenario)) + "/seed" + std::to_string(seed) + "/c" +
         std::to_string(concurrency);
}

/// Fixture format: "[<key>]" opens a run, "@<section>" one of its sections,
/// and every other line is an entry of the open section. Lines starting
/// with '#' are comments.
const std::map<std::string, Sections>& golden() {
  static const std::map<std::string, Sections> table = [] {
    std::map<std::string, Sections> out;
    std::ifstream in(ETERNAL_EXEC_GOLDEN);
    EXPECT_TRUE(in.good()) << "cannot open " << ETERNAL_EXEC_GOLDEN;
    Sections* run = nullptr;
    std::vector<std::string>* section = nullptr;
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#') continue;
      if (line.front() == '[' && line.back() == ']') {
        run = &out[line.substr(1, line.size() - 2)];
        section = nullptr;
      } else if (line.front() == '@' && run != nullptr) {
        section = &(*run)[line.substr(1)];
      } else if (section != nullptr) {
        section->push_back(line);
      }
    }
    return out;
  }();
  return table;
}

void write_sections(std::ostream& os, const std::string& key, const Sections& s) {
  os << '[' << key << "]\n";
  for (const auto& [name, lines] : s) {
    os << '@' << name << '\n';
    for (const std::string& line : lines) os << line << '\n';
  }
}

/// Compares `observed` with the recorded `expected`, one section at a time;
/// a diverging section fails with its first differing line and every
/// observed line of it.
void expect_sections(const std::string& key, const Sections& expected,
                     const Sections& observed) {
  std::vector<std::string> names;
  for (const auto& [name, lines] : expected) names.push_back(name);
  for (const auto& [name, lines] : observed) {
    if (expected.count(name) == 0) names.push_back(name);
  }
  static const std::vector<std::string> kNone;
  for (const std::string& name : names) {
    const auto e = expected.find(name);
    const auto o = observed.find(name);
    const std::vector<std::string>& want = e == expected.end() ? kNone : e->second;
    const std::vector<std::string>& got = o == observed.end() ? kNone : o->second;
    if (want == got) continue;
    std::size_t i = 0;
    while (i < want.size() && i < got.size() && want[i] == got[i]) ++i;
    std::ostringstream msg;
    msg << key << ": section " << name << " diverged at line " << i << " (recorded "
        << want.size() << " lines, observed " << got.size() << ")\n  recorded: "
        << (i < want.size() ? want[i] : "<end>")
        << "\n  observed: " << (i < got.size() ? got[i] : "<end>")
        << "\nobserved lines:\n";
    write_sections(msg, key, Sections{{name, got}});
    ADD_FAILURE() << msg.str();
  }
}

void expect_clean(const Outcome& run) {
  ASSERT_TRUE(run.drained) << "the run did not drain its replies";
  EXPECT_EQ(run.trace_dropped, 0u);
  EXPECT_TRUE(run.violations.empty()) << obs::InvariantChecker::report(run.violations);
}

const Sections* recorded(const std::string& key) {
  const auto it = golden().find(key);
  if (it == golden().end()) {
    ADD_FAILURE() << "no recorded run " << key << " in " << ETERNAL_EXEC_GOLDEN;
    return nullptr;
  }
  return &it->second;
}

/// Concurrency 1: the whole record, byte for byte.
Outcome expect_matches_golden(Scenario scenario, std::uint64_t seed) {
  Outcome run = run_scenario(scenario, 1, seed);
  expect_clean(run);
  const std::string key = golden_key(scenario, seed, 1);
  if (const Sections* want = recorded(key)) {
    const Sections got = full_sections(run);
    expect_sections(key, *want, got);
    expect_sections(key, per_sender(*want), per_sender(got));
  }
  return run;
}

constexpr Scenario kRecordedScenarios[] = {Scenario::kClean,   Scenario::kLossy,
                                           Scenario::kReformation, Scenario::kChunked,
                                           Scenario::kChaos,   Scenario::kPromotion};
constexpr std::uint64_t kSeeds[] = {11, 29, 73};

class ExecConformance : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ExecConformance, Clean) { expect_matches_golden(Scenario::kClean, GetParam()); }

TEST_P(ExecConformance, Lossy) { expect_matches_golden(Scenario::kLossy, GetParam()); }

TEST_P(ExecConformance, Reformation) {
  expect_matches_golden(Scenario::kReformation, GetParam());
}

TEST_P(ExecConformance, ChunkedRecovery) {
  expect_matches_golden(Scenario::kChunked, GetParam());
}

TEST_P(ExecConformance, ChaosSmoke) { expect_matches_golden(Scenario::kChaos, GetParam()); }

TEST_P(ExecConformance, WarmPassivePromotion) {
  const Outcome run = expect_matches_golden(Scenario::kPromotion, GetParam());
  EXPECT_GT(run.log_replayed, 0u) << "the promotion replayed nothing from the log";
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExecConformance, ::testing::ValuesIn(kSeeds),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });

// Fast tier-1 slice: one seed of the cheapest and the most recovery-heavy
// scenarios (registered via --gtest_filter in tests/CMakeLists.txt).
TEST(ExecConformanceFast, CleanSeed11) { expect_matches_golden(Scenario::kClean, 11); }

TEST(ExecConformanceFast, ChunkedRecoverySeed29) {
  expect_matches_golden(Scenario::kChunked, 29);
}

TEST(ExecConformanceFast, WarmPassivePromotionSeed11) {
  const Outcome run = expect_matches_golden(Scenario::kPromotion, 11);
  EXPECT_GT(run.log_replayed, 0u) << "the promotion replayed nothing from the log";
}

// Slow-servant overlap: a 3 ms "get" stalls the object while 100 µs incs
// queue behind it. At concurrency 4 the engine genuinely overlaps
// executions (max_inflight > 1) and completion order differs from admission
// order, so the in-order reply sequencer is load-bearing — see
// overlap_sections for exactly which observables must survive.
TEST(ExecConformanceFast, SlowServantOverlapPreservesObservableOrder) {
  const Outcome run = run_scenario(Scenario::kSlowServant, 4, 11);
  expect_clean(run);
  EXPECT_GT(run.engine_max_inflight, 1u)
      << "concurrency 4 never overlapped executions — the scenario is not "
         "exercising the reply sequencer";
  // Total-order agreement inside the run: every replica enqueued the same
  // interleaved stream.
  for (const auto& [replica, stream] : run.enqueue_streams) {
    EXPECT_EQ(stream, run.enqueue_streams.begin()->second)
        << "replicas disagree on the total order at " << replica;
  }
  const std::string key = golden_key(Scenario::kSlowServant, 11, 4);
  if (const Sections* want = recorded(key)) expect_sections(key, *want, overlap_sections(run));
}

// Rewrites the fixture from the current code. Run only when a change is
// meant to move wire-visible behaviour, and review the diff.
TEST(ExecConformanceGolden, DISABLED_Record) {
  std::ofstream os(ETERNAL_EXEC_GOLDEN);
  ASSERT_TRUE(os.good()) << "cannot write " << ETERNAL_EXEC_GOLDEN;
  os << "# Golden record of tests/core/exec_conformance_test.cpp; see its header.\n";
  for (const Scenario scenario : kRecordedScenarios) {
    for (const std::uint64_t seed : kSeeds) {
      const Outcome run = run_scenario(scenario, 1, seed);
      expect_clean(run);
      write_sections(os, golden_key(scenario, seed, 1), full_sections(run));
    }
  }
  const Outcome overlap = run_scenario(Scenario::kSlowServant, 4, 11);
  expect_clean(overlap);
  write_sections(os, golden_key(Scenario::kSlowServant, 11, 4), overlap_sections(overlap));
}

}  // namespace
}  // namespace eternal
