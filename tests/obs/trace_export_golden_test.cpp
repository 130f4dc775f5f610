// Byte-level golden record of the trace exporters.
//
// Five traced scenarios — an active run with frame loss and a kill/relaunch
// recovery, a warm-passive promotion, a 2-ring run whose bystander node
// crashes (both rings reform), and one chunked and one bulk-lane state
// transfer — each export their trace events (TraceBuffer::to_json), native
// spans (SpanStore::to_json), Chrome spans (SpanStore::to_chrome_json) and a
// FlightRecorder dump of the last 512 of each.
// tests/obs/trace_export_golden.txt holds the FNV-1a of every export plus,
// verbatim, the first exported event of every kind and the first span of
// every name, so a change to how events or spans are recorded or rendered
// shows up as a readable line diff rather than a bare hash mismatch.
//
// The fixture is rewritten by the disabled TraceExportGolden.DISABLED_Record
// test (run with --gtest_also_run_disabled_tests) — only when a change is
// meant to move the exported bytes.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "core/deployment.hpp"
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

constexpr Duration kMs = Duration(1'000'000);

struct Exports {
  std::string events;
  std::string spans;
  std::string chrome;
  std::string flight;
};

SystemConfig traced_config(std::uint64_t seed) {
  SystemConfig cfg;
  cfg.nodes = 4;
  cfg.seed = seed;
  cfg.trace_capacity = 1u << 18;
  cfg.span_capacity = 1u << 14;
  return cfg;
}

Exports exports_of(System& sys) {
  Exports out;
  out.events = sys.trace()->to_json();
  out.spans = sys.spans()->to_json();
  out.chrome = sys.spans()->to_chrome_json();
  out.flight = obs::FlightRecorder(sys.trace(), sys.spans()).to_json();
  return out;
}

FtProperties active_props() {
  FtProperties props;
  props.style = ReplicationStyle::kActive;
  props.initial_replicas = 2;
  props.minimum_replicas = 1;
  return props;
}

/// determinism_test's active scenario (kill, serve degraded, relaunch with
/// state transfer and replay) under 1 % frame loss, with spans attached.
Exports run_active(std::uint64_t seed, double loss) {
  System sys(traced_config(seed));
  const GroupId server =
      sys.deploy("counter", "IDL:Counter:1.0", active_props(), {NodeId{1}, NodeId{2}},
                 [&](NodeId) { return std::make_shared<CounterServant>(sys.sim()); });
  sys.deploy_client("driver", NodeId{4}, {server});
  orb::ObjectRef ref = sys.client(NodeId{4}, server);
  sys.ethernet().set_loss_probability(loss);

  int replies = 0;
  auto invoke_and_wait = [&] {
    const int want = replies + 1;
    ref.invoke("inc", CounterServant::encode_i32(10),
               [&](const orb::ReplyOutcome&) { ++replies; });
    EXPECT_TRUE(sys.run_until([&] { return replies == want; }, Duration(3'000'000'000)));
  };

  invoke_and_wait();
  sys.kill_replica(NodeId{2}, server);
  EXPECT_TRUE(sys.run_until(
      [&] {
        const auto* entry = sys.mech(NodeId{1}).groups().find(server);
        return entry != nullptr && entry->members.size() == 1;
      },
      Duration(3'000'000'000)));
  invoke_and_wait();
  sys.relaunch_replica(NodeId{2}, server);
  EXPECT_TRUE(sys.run_until([&] { return sys.mech(NodeId{2}).hosts_operational(server); },
                            Duration(5'000'000'000)));
  invoke_and_wait();
  return exports_of(sys);
}

/// determinism_test's warm-passive scenario: checkpoint, logged suffix,
/// primary killed, backup promoted with log replay.
Exports run_passive(std::uint64_t seed) {
  System sys(traced_config(seed));
  FtProperties props;
  props.style = ReplicationStyle::kWarmPassive;
  props.checkpoint_interval = Duration(20'000'000);
  props.fault_monitoring_interval = Duration(5'000'000);
  props.initial_replicas = 2;
  props.minimum_replicas = 1;

  std::vector<std::shared_ptr<CounterServant>> servants(5);
  const GroupId server = sys.deploy(
      "account", "IDL:Account:1.0", props, {NodeId{1}, NodeId{2}},
      [&](NodeId n) {
        auto s = std::make_shared<CounterServant>(sys.sim());
        servants[n.value] = s;
        return s;
      },
      {NodeId{2}, NodeId{3}});
  sys.deploy_client("driver", NodeId{4}, {server});
  orb::ObjectRef ref = sys.client(NodeId{4}, server);

  int replies = 0;
  auto invoke_and_wait = [&] {
    const int want = replies + 1;
    ref.invoke("inc", CounterServant::encode_i32(1),
               [&](const orb::ReplyOutcome&) { ++replies; });
    EXPECT_TRUE(sys.run_until([&] { return replies == want; }, Duration(300'000'000)));
  };

  for (int i = 0; i < 3; ++i) invoke_and_wait();
  EXPECT_TRUE(sys.run_until([&] { return servants[2]->set_state_calls() >= 1; },
                            Duration(200'000'000)));
  for (int i = 0; i < 2; ++i) invoke_and_wait();
  sys.kill_replica(NodeId{1}, server);
  invoke_and_wait();
  return exports_of(sys);
}

/// Two rings, one group on each; a ChaosScript crashes the bystander node 3,
/// so both rings run a reformation (ring 1's carries the ring index), and
/// both groups keep serving afterwards.
Exports run_two_ring() {
  SystemConfig cfg = traced_config(3);
  cfg.placement.rings = 2;
  System sys(cfg);

  std::vector<GroupId> groups;
  std::set<std::uint32_t> rings_used;
  for (int i = 0; i < 6 && rings_used.size() < 2; ++i) {
    const GroupId g = sys.deploy(
        "counter" + std::to_string(i), "IDL:Counter:1.0", active_props(),
        {NodeId{1}, NodeId{2}},
        [&](NodeId) { return std::make_shared<CounterServant>(sys.sim()); });
    groups.push_back(g);
    rings_used.insert(sys.ring_of(g));
  }
  EXPECT_EQ(rings_used.size(), 2u);
  sys.deploy_client("driver", NodeId{4}, groups);

  int done = 0;
  auto invoke_all = [&] {
    const int want = done + static_cast<int>(groups.size());
    for (GroupId g : groups) {
      sys.client(NodeId{4}, g).invoke("inc", CounterServant::encode_i32(1),
                                      [&](const orb::ReplyOutcome&) { ++done; });
    }
    EXPECT_TRUE(sys.run_until([&] { return done == want; }, Duration(2'000'000'000)));
  };

  invoke_all();
  sim::ChaosScript chaos(sys.sim(), "golden_two_ring");
  chaos.at(1 * kMs, "crash-n3", [&] { sys.crash_node(NodeId{3}); });
  chaos.arm();
  sys.run_for(Duration(1'000'000'000));
  invoke_all();
  return exports_of(sys);
}

/// A ~20 kB state recovered after a kill/relaunch, fragmented in-band into
/// 512 B chunks or (bulk) shipped over the lane in 1 kB extents.
Exports run_recovery(bool bulk) {
  SystemConfig cfg = traced_config(11);
  cfg.mechanisms.state_chunk_bytes = 512;
  cfg.mechanisms.bulk_lane = bulk;
  cfg.mechanisms.bulk_extent_bytes = 1024;
  System sys(cfg);
  const GroupId server = sys.deploy(
      "counter", "IDL:Counter:1.0", active_props(), {NodeId{1}, NodeId{2}},
      [&](NodeId) { return std::make_shared<CounterServant>(sys.sim(), 20'000); });
  sys.deploy_client("driver", NodeId{4}, {server});
  orb::ObjectRef ref = sys.client(NodeId{4}, server);

  int replies = 0;
  int sent = 0;
  auto fire = [&] {
    ++sent;
    ref.invoke("inc", CounterServant::encode_i32(1),
               [&](const orb::ReplyOutcome&) { ++replies; });
    sys.run_for(2 * kMs);
  };

  for (int i = 0; i < 3; ++i) fire();
  sys.kill_replica(NodeId{2}, server);
  EXPECT_TRUE(sys.run_until(
      [&] {
        const auto* entry = sys.mech(NodeId{1}).groups().find(server);
        return entry != nullptr && entry->members.size() == 1;
      },
      Duration(3'000'000'000)));
  for (int i = 0; i < 3; ++i) fire();
  sys.relaunch_replica(NodeId{2}, server);
  for (int i = 0; i < 3; ++i) fire();
  EXPECT_TRUE(sys.run_until([&] { return sys.mech(NodeId{2}).hosts_operational(server); },
                            Duration(5'000'000'000)));
  EXPECT_TRUE(sys.run_until([&] { return replies == sent; }, Duration(3'000'000'000)));
  return exports_of(sys);
}

std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

/// The top-level objects of the JSON array under `"key":[`, verbatim. The
/// exporters write flat objects, so brace depth (outside strings) suffices.
std::vector<std::string> array_objects(const std::string& doc, std::string_view key) {
  std::vector<std::string> out;
  const std::string open = "\"" + std::string(key) + "\":[";
  std::size_t pos = doc.find(open);
  if (pos == std::string::npos) return out;
  pos += open.size();
  int depth = 0;
  bool in_string = false;
  std::size_t start = 0;
  for (std::size_t i = pos; i < doc.size(); ++i) {
    const char c = doc[i];
    if (in_string) {
      if (c == '\\') ++i;
      else if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '{') {
      if (depth++ == 0) start = i;
    } else if (c == '}') {
      if (--depth == 0) out.push_back(doc.substr(start, i - start + 1));
    } else if (c == ']' && depth == 0) {
      break;
    }
  }
  return out;
}

/// Value of a plain (escape-free) string member of a flat JSON object.
std::string string_member(const std::string& object, std::string_view key) {
  const std::string open = "\"" + std::string(key) + "\":\"";
  const std::size_t pos = object.find(open);
  if (pos == std::string::npos) return {};
  const std::size_t from = pos + open.size();
  return object.substr(from, object.find('"', from) - from);
}

/// The golden record of every scenario, one line per fact.
std::vector<std::string> observed_lines() {
  const std::vector<std::pair<std::string, Exports>> runs = {
      {"active_seed42_loss1pct", run_active(42, 0.01)},
      {"passive_seed7", run_passive(7)},
      {"two_ring_crash", run_two_ring()},
      {"chunked_recovery", run_recovery(false)},
      {"bulk_recovery", run_recovery(true)},
  };
  std::vector<std::string> lines;
  std::set<std::string> kinds_seen, names_seen;
  for (const auto& [scenario, ex] : runs) {
    char hashes[200];
    std::snprintf(hashes, sizeof hashes,
                  "hash %s events=%016llx spans=%016llx chrome=%016llx flight=%016llx",
                  scenario.c_str(), static_cast<unsigned long long>(fnv1a(ex.events)),
                  static_cast<unsigned long long>(fnv1a(ex.spans)),
                  static_cast<unsigned long long>(fnv1a(ex.chrome)),
                  static_cast<unsigned long long>(fnv1a(ex.flight)));
    lines.emplace_back(hashes);
    for (const std::string& ev : array_objects(ex.events, "events")) {
      if (kinds_seen.insert(string_member(ev, "kind")).second)
        lines.push_back("event " + scenario + " " + ev);
    }
    for (const std::string& span : array_objects(ex.spans, "spans")) {
      if (names_seen.insert(string_member(span, "name")).second)
        lines.push_back("span " + scenario + " " + span);
    }
  }
  return lines;
}

std::vector<std::string> recorded_lines() {
  std::vector<std::string> lines;
  std::ifstream in(ETERNAL_TRACE_GOLDEN);
  EXPECT_TRUE(in.good()) << "cannot open " << ETERNAL_TRACE_GOLDEN;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty() && line[0] != '#') lines.push_back(line);
  }
  return lines;
}

TEST(TraceExportGolden, ExportsMatchTheRecordedBytes) {
  const std::vector<std::string> want = recorded_lines();
  const std::vector<std::string> got = observed_lines();
  ASSERT_FALSE(want.empty());
  EXPECT_EQ(want.size(), got.size());
  for (std::size_t i = 0; i < want.size() && i < got.size(); ++i)
    EXPECT_EQ(want[i], got[i]) << "golden line " << i;
  // Every span-producing layer and every recovery medium is represented.
  const auto has = [&](std::string_view prefix) {
    for (const auto& line : got)
      if (line.find(prefix) != std::string::npos) return true;
    return false;
  };
  EXPECT_TRUE(has("\"kind\":\"chaos\""));
  EXPECT_TRUE(has("\"name\":\"state-chunk\""));
  EXPECT_TRUE(has("\"name\":\"bulk-extent\""));
  EXPECT_TRUE(has("\"name\":\"reformation\""));
}

TEST(TraceExportGolden, DISABLED_Record) {
  std::ofstream os(ETERNAL_TRACE_GOLDEN);
  ASSERT_TRUE(os.good()) << "cannot write " << ETERNAL_TRACE_GOLDEN;
  os << "# Trace-export golden record; see trace_export_golden_test.cpp.\n"
        "# hash <scenario> events=<fnv1a> spans=<fnv1a> chrome=<fnv1a> flight=<fnv1a>\n"
        "# event|span <scenario> <first exported object of that kind/name>\n";
  for (const std::string& line : observed_lines()) os << line << '\n';
}

}  // namespace
}  // namespace eternal
