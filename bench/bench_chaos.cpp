// Fleet-scale chaos suite: composed fault scenarios under open-loop fleet
// load, each scored on throughput, tail latency, recovery time and the
// cross-layer trace invariants (src/obs/invariants.hpp).
//
// Every scenario deploys a full System with whole-run tracing, drives it
// with the FleetDriver (thousands of simulated clients, configurable
// arrival process, hot-key skew, optional fan-out) and injects faults via
// ChaosScript (src/sim/chaos.hpp), so fault actions appear in the same
// trace stream the InvariantChecker replays. On any violation a
// flight-recorder dump is written next to the binary.
//
// Scenarios (the matrix rows; EXPERIMENTS.md documents the full table):
//   baseline        no faults — the reference row
//   cascade         cascading replica loss: two kills in quick succession,
//                   staggered re-launches, all under load
//   partition       network partition with ring reformation on both sides,
//                   then heal (minority rejoins fresh)
//   flap            a flapping member: repeated full receive-loss bursts at
//                   one node (drops off the ring, rejoins, drops again)
//   torn_storage    torn/short/failed disk writes into the cold-passive
//                   log, then primary loss forcing a log-based promotion
//   chunk_reform    ring reformation killing the state source mid chunked
//                   set_state — the recoverer must be re-served, not left
//                   with a half-filled reassembly colliding with the retry
//   delta_reform    state source crashes mid delta-chain recovery; the
//                   promoted backup re-serves the retrieval
//   bulk_reform     state source crashes mid out-of-band bulk transfer —
//                   the half-shipped transfer must be aborted and GC'd, and
//                   the promoted backup's re-serve must resume from the
//                   extents the recoverer already acked (digest-matched
//                   stash), not re-ship the whole image
#include <array>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <unistd.h>

#include "support.hpp"
#include "core/stable_storage.hpp"
#include "obs/critpath.hpp"
#include "sim/chaos.hpp"
#include "workload/fleet.hpp"

#include "../tests/support/counter_servant.hpp"

namespace {

using namespace eternal;
using core::FtProperties;
using core::ReplicationStyle;
using core::System;
using core::SystemConfig;
using test_support::CounterServant;
using util::Duration;
using util::GroupId;
using util::NodeId;
using workload::ArrivalProcess;
using workload::FleetConfig;
using workload::FleetDriver;

constexpr Duration kSecond{1'000'000'000};
constexpr Duration kMs{1'000'000};

bool g_smoke = false;

struct Row {
  std::string scenario;
  std::uint64_t sent = 0;
  std::uint64_t completed = 0;
  double throughput_per_s = 0.0;
  double p50_ms = -1.0;
  double p99_ms = -1.0;
  double recovery_ms = -1.0;  // slowest completed recovery; -1 = none ran
  std::string verdict = "ok";  // ok | HANG | VIOLATION (| HANG+VIOLATION)
  std::uint64_t violations = 0;
  std::uint64_t chaos_actions = 0;
  std::uint64_t chunk_aborts = 0;
  std::uint64_t storage_failures = 0;
  std::uint64_t bulk_aborts = 0;    // half-shipped bulk transfers GC'd
  std::uint64_t bulk_resumed = 0;   // extents revived from the digest stash
  std::uint64_t bulk_fallbacks = 0; // bulk transfers that fell back in-band
  // ring_isolated_reform only: the bystander rings' p99 before/after a
  // foreign ring's reformation, and the reformation span census that
  // proves the isolation (zero spans may ever appear on a bystander).
  double bystander_p99_base_ms = -1.0;
  double bystander_p99_reform_ms = -1.0;
  std::uint64_t crashed_ring_reform_spans = 0;
  std::uint64_t bystander_reform_spans = 0;
  // Critical-path attribution over the invocations whose span trees
  // survived the scenario intact (obs::critpath); faults leave partial
  // trees, which are counted and skipped rather than folded in.
  std::uint64_t cp_analyzed = 0;
  std::uint64_t cp_partial = 0;
  std::uint64_t cp_dropped = 0;
  double order_wait_us_mean = -1.0;
  double execute_us_mean = -1.0;
  double reply_wire_us_mean = -1.0;
  double residual_us_mean = -1.0;
};

/// Shared post-run scoring: latency/throughput from the fleet, recovery
/// times from every node's Mechanisms, invariant verdict from the trace.
void score(System& sys, const FleetDriver& fleet, Duration measured,
           const sim::ChaosScript& chaos, bool hang, Row& row) {
  row.sent = fleet.sent();
  row.completed = fleet.completed();
  row.throughput_per_s =
      static_cast<double>(fleet.completed()) /
      (static_cast<double>(measured.count()) / 1e9);
  if (fleet.completed() > 0) {
    row.p50_ms = bench::to_ms(fleet.latency().percentile(50));
    row.p99_ms = bench::to_ms(fleet.latency().percentile(99));
  }
  row.chaos_actions = chaos.fired();
  for (NodeId n : sys.all_nodes()) {
    const core::Mechanisms& mech = sys.mech(n);
    for (const core::RecoveryRecord& rec : mech.recoveries()) {
      row.recovery_ms = std::max(row.recovery_ms, bench::to_ms(rec.recovery_time()));
    }
    row.chunk_aborts +=
        mech.stats().state_chunk_aborts + mech.stats().chunk_sends_aborted;
    row.storage_failures += mech.stats().storage_persist_failures +
                            mech.stats().storage_append_failures;
    row.bulk_aborts += mech.stats().bulk_transfers_aborted;
    row.bulk_resumed += mech.stats().bulk_extents_resumed;
    row.bulk_fallbacks += mech.stats().bulk_fallbacks_chunked;
  }

  {
    namespace critpath = obs::critpath;
    const critpath::Report rep = critpath::analyze(*sys.spans());
    row.cp_analyzed = rep.invocations.size();
    row.cp_partial = rep.partial_traces;
    row.cp_dropped = rep.dropped_spans;
    if (!rep.invocations.empty()) {
      std::vector<util::Duration> order, exec, wire, resid;
      for (const critpath::Breakdown& b : rep.invocations) {
        order.push_back(b[critpath::Segment::kOrderWait]);
        exec.push_back(b[critpath::Segment::kExecute]);
        wire.push_back(b[critpath::Segment::kReplyWire]);
        resid.push_back(b[critpath::Segment::kResidual]);
      }
      row.order_wait_us_mean = bench::to_us(critpath::aggregate(std::move(order)).mean);
      row.execute_us_mean = bench::to_us(critpath::aggregate(std::move(exec)).mean);
      row.reply_wire_us_mean = bench::to_us(critpath::aggregate(std::move(wire)).mean);
      row.residual_us_mean = bench::to_us(critpath::aggregate(std::move(resid)).mean);
    }
  }

  const std::vector<obs::Violation> violations =
      obs::InvariantChecker::check(*sys.trace());
  row.violations = violations.size();
  if (hang) row.verdict = "HANG";
  if (!violations.empty()) {
    row.verdict = hang ? "HANG+VIOLATION" : "VIOLATION";
    obs::FlightRecorder recorder(sys.trace(), sys.spans());
    recorder.attach_violations(violations);
    // Run-counter suffix: a scenario scored twice in one process (reruns,
    // sweeps) gets flight_chaos_<s>.json then flight_chaos_<s>.2.json.
    const std::string path =
        obs::FlightRecorder::unique_path("flight_chaos_" + row.scenario + ".json");
    if (recorder.write_file(path)) {
      std::fprintf(stderr, "chaos: %s invariants violated; flight recorder -> %s\n",
                   row.scenario.c_str(), path.c_str());
    }
    std::fprintf(stderr, "%s\n", obs::InvariantChecker::report(violations).c_str());
  }
}

SystemConfig base_config(std::size_t nodes) {
  SystemConfig cfg;
  cfg.nodes = nodes;
  cfg.trace_capacity = 1u << 21;  // whole-run trace feeds the checker
  cfg.span_capacity = 1u << 18;   // span trees feed the critpath columns
  return cfg;
}

FtProperties active_props() {
  FtProperties props;
  props.style = ReplicationStyle::kActive;
  props.initial_replicas = 3;
  props.minimum_replicas = 1;
  props.fault_monitoring_interval = Duration(5'000'000);
  return props;
}

/// Deploys `n` active 3-way replicated counter groups on nodes 1..3 and a
/// fleet client on `client`, returning the group refs hot-key-skewed.
std::vector<orb::ObjectRef> deploy_groups(System& sys, std::size_t n, NodeId client,
                                          std::vector<GroupId>* out_groups = nullptr) {
  std::vector<GroupId> groups;
  for (std::size_t i = 0; i < n; ++i) {
    groups.push_back(sys.deploy("svc" + std::to_string(i), "IDL:Svc:1.0",
                                active_props(), {NodeId{1}, NodeId{2}, NodeId{3}},
                                [&](NodeId) {
                                  return std::make_shared<CounterServant>(
                                      sys.sim(), 512, Duration(50'000));
                                }));
  }
  sys.deploy_client("fleet", client, groups);
  std::vector<orb::ObjectRef> refs;
  for (GroupId g : groups) refs.push_back(sys.client(client, g));
  if (out_groups != nullptr) *out_groups = groups;
  return refs;
}

FleetConfig fleet_config(ArrivalProcess arrival) {
  FleetConfig fc;
  fc.clients = g_smoke ? 200 : 2000;
  fc.rate_per_second = g_smoke ? 150.0 : 400.0;
  fc.arrival = arrival;
  fc.skew = 1.0;  // hot-key skew: group 0 absorbs most of the load
  fc.args = CounterServant::encode_i32(1);
  return fc;
}

Duration run_time() { return g_smoke ? kSecond : 3 * kSecond; }

// --------------------------------------------------------------- scenarios

Row scenario_baseline() {
  Row row{.scenario = "baseline"};
  System sys(base_config(5));
  auto refs = deploy_groups(sys, 3, NodeId{5});
  FleetDriver fleet(sys.sim(), refs, fleet_config(ArrivalProcess::kPoisson));
  sim::ChaosScript chaos(sys.sim(), row.scenario);  // empty: the control row
  chaos.arm();
  fleet.start();
  sys.run_for(run_time());
  fleet.stop();
  sys.run_for(200 * kMs);
  score(sys, fleet, run_time(), chaos, false, row);
  return row;
}

Row scenario_cascade() {
  Row row{.scenario = "cascade"};
  System sys(base_config(5));
  std::vector<GroupId> groups;
  auto refs = deploy_groups(sys, 3, NodeId{5}, &groups);
  FleetDriver fleet(sys.sim(), refs, fleet_config(ArrivalProcess::kPoisson));

  // Two replicas of the hot group die in quick succession (cascading loss
  // down to the minimum), then re-launch staggered while load continues.
  sim::ChaosScript chaos(sys.sim(), row.scenario);
  const Duration t0 = run_time() / 6;
  chaos.at(t0, "kill-hot@2", [&] { sys.kill_replica(NodeId{2}, groups[0]); });
  chaos.at(t0 + 80 * kMs, "kill-hot@3", [&] { sys.kill_replica(NodeId{3}, groups[0]); });
  chaos.at(t0 + 400 * kMs, "relaunch-hot@2",
           [&] { sys.relaunch_replica(NodeId{2}, groups[0]); });
  chaos.at(t0 + 800 * kMs, "relaunch-hot@3",
           [&] { sys.relaunch_replica(NodeId{3}, groups[0]); });
  chaos.arm();

  fleet.start();
  sys.run_for(run_time());
  fleet.stop();
  // Settle: both re-launched replicas must finish recovery.
  const bool recovered = sys.run_until(
      [&] {
        return sys.mech(NodeId{2}).hosts_operational(groups[0]) &&
               sys.mech(NodeId{3}).hosts_operational(groups[0]);
      },
      10 * kSecond);
  sys.run_for(200 * kMs);
  score(sys, fleet, run_time(), chaos, !recovered, row);
  return row;
}

Row scenario_partition() {
  Row row{.scenario = "partition"};
  System sys(base_config(5));
  std::vector<GroupId> groups;
  auto refs = deploy_groups(sys, 3, NodeId{5}, &groups);
  FleetConfig fc = fleet_config(ArrivalProcess::kBursty);
  FleetDriver fleet(sys.sim(), refs, fc);

  // {3,4} split off mid-run: both sides reform their rings (the majority
  // keeps serving; node 3's replicas are removed from the surviving table),
  // then the partition heals and the minority rejoins fresh.
  sim::ChaosScript chaos(sys.sim(), row.scenario);
  const Duration t0 = run_time() / 3;
  chaos.partition_at(t0, sys.ethernet(), {NodeId{3}, NodeId{4}}, 1);
  chaos.heal_at(t0 + run_time() / 3, sys.ethernet());
  chaos.arm();

  fleet.start();
  sys.run_for(run_time());
  fleet.stop();
  // Settle: the healed ring must re-form with all five members.
  const bool merged = sys.run_until(
      [&] {
        return sys.totem(NodeId{3}).operational() &&
               sys.totem(NodeId{3}).view().members.size() == 5;
      },
      10 * kSecond);
  sys.run_for(200 * kMs);
  score(sys, fleet, run_time(), chaos, !merged, row);
  return row;
}

Row scenario_flap() {
  Row row{.scenario = "flap"};
  System sys(base_config(5));
  auto refs = deploy_groups(sys, 3, NodeId{5});
  FleetDriver fleet(sys.sim(), refs, fleet_config(ArrivalProcess::kUniform));

  // Node 3's NIC flaps: full receive loss long enough to drop it off the
  // ring, then silence ends and it rejoins — three times in a row.
  sim::ChaosScript chaos(sys.sim(), row.scenario);
  const Duration t0 = run_time() / 6;
  const std::size_t bursts = g_smoke ? 2 : 3;
  for (std::size_t i = 0; i < bursts; ++i) {
    const Duration start = t0 + static_cast<std::int64_t>(i) * 600 * kMs;
    chaos.receiver_loss_burst(start, 200 * kMs, sys.ethernet(), NodeId{3}, 1.0);
  }
  chaos.arm();

  fleet.start();
  sys.run_for(run_time());
  fleet.stop();
  const bool rejoined = sys.run_until(
      [&] {
        return sys.totem(NodeId{3}).operational() &&
               sys.totem(NodeId{3}).view().members.size() == 5;
      },
      10 * kSecond);
  sys.run_for(200 * kMs);
  score(sys, fleet, run_time(), chaos, !rejoined, row);
  return row;
}

Row scenario_torn_storage() {
  Row row{.scenario = "torn_storage"};
  namespace fs = std::filesystem;
  const fs::path root = fs::temp_directory_path() /
                        ("bench_chaos." + std::to_string(::getpid()) + ".storage");
  fs::remove_all(root);

  SystemConfig cfg = base_config(4);
  cfg.stable_storage_root = root.string();
  System sys(cfg);

  FtProperties props;
  props.style = ReplicationStyle::kColdPassive;
  props.initial_replicas = 1;
  props.minimum_replicas = 1;
  props.checkpoint_interval = 40 * kMs;
  props.fault_monitoring_interval = Duration(5'000'000);
  const GroupId group = sys.deploy(
      "svc", "IDL:Svc:1.0", props, {NodeId{1}},
      [&](NodeId) {
        return std::make_shared<CounterServant>(sys.sim(), 512, Duration(50'000));
      },
      {NodeId{2}});
  sys.deploy_client("fleet", NodeId{4}, {group});
  FleetConfig fc = fleet_config(ArrivalProcess::kPoisson);
  fc.skew = 0.0;
  FleetDriver fleet(sys.sim(), {sys.client(NodeId{4}, group)}, fc);

  // Node 2 keeps the cold-passive log. Its disk starts misbehaving mid-run
  // (torn writes, failed appends, a failed compaction), and then the
  // primary dies — the promotion must come out of whatever the degraded
  // storage managed to keep, with every failure surfaced, not swallowed.
  sim::ChaosScript chaos(sys.sim(), row.scenario);
  const Duration t0 = run_time() / 4;
  chaos.at(t0, "torn-writes", [&] {
    core::StorageFaultPlan plan;
    plan.torn_appends = 2;
    plan.fail_appends = 2;
    plan.fail_persists = 1;
    sys.mech(NodeId{2}).storage()->inject_faults(plan);
  });
  chaos.at(t0 + run_time() / 4, "kill-primary",
           [&] { sys.kill_replica(NodeId{1}, group); });
  chaos.arm();

  fleet.start();
  sys.run_for(run_time());
  fleet.stop();
  // Settle: node 2 promoted from the (degraded) log and went operational.
  const bool promoted = sys.run_until(
      [&] { return sys.mech(NodeId{2}).hosts_operational(group); }, 10 * kSecond);
  sys.run_for(200 * kMs);
  score(sys, fleet, run_time(), chaos, !promoted, row);
  fs::remove_all(root);
  return row;
}

/// Shared rig for the mid-recovery reformation scenarios: warm-passive
/// group, primary on node 1, backups on nodes 2 and 3; the backup on node 2
/// is killed and re-launched, and the state source crashes mid-transfer.
/// With `bulk` set the image travels over the out-of-band bulk lane instead
/// of in-band chunks, and the verdict additionally requires the half-shipped
/// transfer to be aborted and the re-serve to resume from acked extents.
Row run_reform_mid_recovery(const std::string& name, std::size_t delta_cap,
                            bool bulk = false) {
  Row row{.scenario = name};
  SystemConfig cfg = base_config(5);
  // Small chunks + window 1 stretch the transfer over many totally-ordered
  // rounds, so the mid-transfer crash window is wide and deterministic.
  cfg.mechanisms.state_chunk_bytes = 4'096;
  cfg.mechanisms.state_chunk_window = 1;
  cfg.mechanisms.delta_chain_cap = delta_cap;
  if (bulk) {
    // Small extents + a modest lane keep the stream alive for tens of
    // milliseconds, so the source crash deterministically lands mid-stream.
    cfg.mechanisms.bulk_lane = true;
    cfg.mechanisms.bulk_extent_bytes = 4'096;
    cfg.bulk_lane.bandwidth_bps = 1e8;
  }
  System sys(cfg);

  FtProperties props;
  props.style = ReplicationStyle::kWarmPassive;
  props.initial_replicas = 3;
  props.minimum_replicas = 1;
  props.checkpoint_interval = delta_cap > 0 ? 60 * kMs : 500 * kMs;
  props.fault_monitoring_interval = Duration(5'000'000);
  const std::size_t state_bytes = g_smoke ? 100'000 : 400'000;
  const GroupId group = sys.deploy(
      "svc", "IDL:Svc:1.0", props, {NodeId{1}, NodeId{2}, NodeId{3}}, [&](NodeId) {
        return std::make_shared<CounterServant>(sys.sim(), state_bytes,
                                                Duration(50'000));
      });
  sys.deploy_client("fleet", NodeId{5}, {group});
  FleetConfig fc = fleet_config(ArrivalProcess::kPoisson);
  fc.skew = 0.0;
  fc.rate_per_second = g_smoke ? 100.0 : 200.0;
  FleetDriver fleet(sys.sim(), {sys.client(NodeId{5}, group)}, fc);
  fleet.start();

  // Warm up (the delta variant needs the backups to hold a checkpoint base).
  sys.run_for(delta_cap > 0 ? 300 * kMs : 100 * kMs);

  // Kill the node-2 backup and re-launch it once its removal is agreed.
  sys.kill_replica(NodeId{2}, group);
  sys.run_until(
      [&] {
        const auto* e = sys.mech(NodeId{1}).groups().find(group);
        return e != nullptr && e->replica_on(NodeId{2}) == nullptr;
      },
      5 * kSecond);
  sys.relaunch_replica(NodeId{2}, group);

  // The primary (node 1) starts serving the retrieval; the source crashes
  // mid-protocol — a ring reformation lands mid chunked set_state (chunk
  // variant: several chunks received, many still to come) or mid
  // delta-chain recovery (delta variant: the delta set_state is small, so
  // the crash is timed a few totem rounds into the recovery instead).
  bool mid_transfer = false;
  if (bulk) {
    mid_transfer = sys.run_until(
        [&] { return sys.mech(NodeId{2}).stats().bulk_extents_received >= 4; },
        10 * kSecond);
  } else if (delta_cap == 0) {
    mid_transfer = sys.run_until(
        [&] { return sys.mech(NodeId{2}).stats().state_chunks_received >= 4; },
        10 * kSecond);
  } else {
    mid_transfer = sys.run_until(
        [&] { return sys.mech(NodeId{2}).hosts_recovering(group); }, 10 * kSecond);
    sys.run_for(Duration(400'000));
    mid_transfer = mid_transfer && !sys.mech(NodeId{2}).hosts_operational(group);
  }
  sim::ChaosScript chaos(sys.sim(), row.scenario);
  chaos.at(Duration::zero(), "crash-source", [&] { sys.crash_node(NodeId{1}); });
  chaos.arm();

  // The surviving backup (node 3) must promote, re-serve the retrieval and
  // bring node 2 operational; anything else is a hang.
  const bool recovered = sys.run_until(
      [&] { return sys.mech(NodeId{2}).hosts_operational(group); }, 20 * kSecond);
  sys.run_for(200 * kMs);
  fleet.stop();
  sys.run_for(200 * kMs);
  bool bulk_ok = true;
  if (bulk) {
    // The recoverer must have GC'd the dead sender's half-shipped transfer
    // and the promoted holder's re-serve must have revived at least one
    // already-acked extent from the digest stash instead of re-shipping it.
    const auto& st = sys.mech(NodeId{2}).stats();
    bulk_ok = st.bulk_transfers_aborted >= 1 && st.bulk_extents_resumed >= 1 &&
              st.bulk_transfers_completed >= 1;
  }
  score(sys, fleet, run_time(), chaos, !(mid_transfer && recovered && bulk_ok),
        row);
  return row;
}

Row scenario_chunk_reform() { return run_reform_mid_recovery("chunk_reform", 0); }
Row scenario_delta_reform() { return run_reform_mid_recovery("delta_reform", 8); }
Row scenario_bulk_reform() {
  return run_reform_mid_recovery("bulk_reform", 0, /*bulk=*/true);
}

/// p99 in ms over the merged latency samples of several fleets; -1 when no
/// operation completed.
double merged_p99_ms(const std::vector<const FleetDriver*>& fleets) {
  std::vector<Duration> all;
  for (const FleetDriver* f : fleets) {
    all.insert(all.end(), f->latency().samples().begin(), f->latency().samples().end());
  }
  if (all.empty()) return -1.0;
  std::sort(all.begin(), all.end());
  const double rank = 0.99 * static_cast<double>(all.size() - 1);
  return bench::to_ms(all[static_cast<std::size_t>(rank + 0.5)]);
}

/// Sharded deployment: three independent Totem rings, two groups pinned to
/// each. A member of ring 1 is killed mid-load; ring 1 must reform (its
/// reformation spans carry " rix=1") while rings 0 and 2 never see a
/// membership event — zero reformation spans after the crash, and their
/// p99 must stay within 2x of the pre-crash baseline. Each ring runs one
/// fleet per phase so the bystander tail is measured per ring and per
/// phase rather than diluted across the whole run.
Row scenario_ring_isolated_reform() {
  Row row{.scenario = "ring_isolated_reform"};
  SystemConfig cfg = base_config(5);
  cfg.placement.rings = 3;
  for (std::uint32_t g = 1; g <= 6; ++g) cfg.placement.pins[g] = (g - 1) % 3;
  System sys(cfg);
  std::vector<GroupId> groups;
  auto refs = deploy_groups(sys, 6, NodeId{5}, &groups);

  // One fleet per (ring, phase) at a third of the aggregate rate each.
  std::array<std::vector<orb::ObjectRef>, 3> per_ring;
  for (std::size_t i = 0; i < groups.size(); ++i) {
    per_ring[sys.ring_of(groups[i])].push_back(refs[i]);
  }
  std::array<std::unique_ptr<FleetDriver>, 3> base, reform;
  for (std::size_t r = 0; r < 3; ++r) {
    FleetConfig fc = fleet_config(ArrivalProcess::kPoisson);
    fc.rate_per_second /= 3.0;
    fc.seed = 0xF1EE7ull + 2 * r;
    base[r] = std::make_unique<FleetDriver>(sys.sim(), per_ring[r], fc);
    fc.seed += 1;
    reform[r] = std::make_unique<FleetDriver>(sys.sim(), per_ring[r], fc);
  }

  // Mid-run: the baseline fleets hand over to the post-crash fleets at the
  // instant ring 1 loses node 2's endpoint, so the two phases' tails are
  // directly comparable.
  sim::ChaosScript chaos(sys.sim(), row.scenario);
  util::TimePoint crash_at{};
  chaos.at(run_time() / 2, "crash-ring1-endpoint@2", [&] {
    for (auto& f : base) f->stop();
    crash_at = sys.sim().now();
    sys.crash_ring_member(NodeId{2}, 1);
    for (auto& f : reform) f->start();
  });
  chaos.arm();

  for (auto& f : base) f->start();
  sys.run_for(run_time());
  for (auto& f : reform) f->stop();
  const auto in_flight = [&] {
    std::uint64_t n = 0;
    for (auto& f : base) n += f->in_flight();
    for (auto& f : reform) n += f->in_flight();
    return n;
  };
  const bool drained = sys.run_until([&] { return in_flight() == 0; }, 10 * kSecond);
  sys.run_for(200 * kMs);

  // score() fills the machinery columns and the invariant verdict from one
  // representative fleet; the fleet-wide aggregates are recomputed below.
  score(sys, *reform[1], run_time(), chaos, !drained, row);
  row.sent = row.completed = 0;
  std::vector<Duration> all;
  for (auto* phase : {&base, &reform}) {
    for (auto& f : *phase) {
      row.sent += f->sent();
      row.completed += f->completed();
      all.insert(all.end(), f->latency().samples().begin(),
                 f->latency().samples().end());
    }
  }
  row.throughput_per_s =
      static_cast<double>(row.completed) /
      (static_cast<double>(run_time().count()) / 1e9);
  if (!all.empty()) {
    std::sort(all.begin(), all.end());
    row.p50_ms = bench::to_ms(all[static_cast<std::size_t>(0.50 * (all.size() - 1) + 0.5)]);
    row.p99_ms = bench::to_ms(all[static_cast<std::size_t>(0.99 * (all.size() - 1) + 0.5)]);
  }
  row.bystander_p99_base_ms = merged_p99_ms({base[0].get(), base[2].get()});
  row.bystander_p99_reform_ms = merged_p99_ms({reform[0].get(), reform[2].get()});

  // Reformation span census after the crash. The span carries a "rix" field
  // only for nonzero ring indexes (single-ring traces stay byte-identical to
  // the classic system), so an absent field is ring 0.
  for (const obs::Span& s : sys.spans()->snapshot()) {
    if (s.name != "reformation" || s.start < crash_at) continue;
    if (s.fields.num("rix") == 1) {
      row.crashed_ring_reform_spans += 1;
    } else {
      row.bystander_reform_spans += 1;
    }
  }

  // The isolation verdict: ring 1 reformed, nobody else did, and the
  // bystander tail held. Failures are invariant-grade — dump the flight
  // recorder (score() already did when the trace checker itself fired).
  std::string isolation_fail;
  if (row.crashed_ring_reform_spans == 0) {
    isolation_fail = "ring 1 never reformed after the crash";
  } else if (row.bystander_reform_spans != 0) {
    isolation_fail = "a bystander ring reformed — reformation leaked across rings";
  } else if (row.bystander_p99_base_ms > 0.0 &&
             row.bystander_p99_reform_ms > 2.0 * row.bystander_p99_base_ms) {
    isolation_fail = "bystander p99 more than doubled during the foreign reformation";
  }
  if (!isolation_fail.empty()) {
    std::fprintf(stderr, "chaos: %s: %s (bystander p99 %.3f -> %.3f ms)\n",
                 row.scenario.c_str(), isolation_fail.c_str(),
                 row.bystander_p99_base_ms, row.bystander_p99_reform_ms);
    if (row.violations == 0) {
      obs::FlightRecorder recorder(sys.trace(), sys.spans());
      const std::string path = obs::FlightRecorder::unique_path(
          "flight_chaos_" + row.scenario + ".json");
      if (recorder.write_file(path)) {
        std::fprintf(stderr, "chaos: %s flight recorder -> %s\n",
                     row.scenario.c_str(), path.c_str());
      }
    }
    row.verdict = row.verdict == "ok" ? "VIOLATION" : row.verdict + "+VIOLATION";
  }
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  g_smoke = bench::smoke_mode(argc, argv);

  bench::print_header(
      "Chaos scenario matrix — fleet load vs composed faults",
      "recovery machinery of §5 under cascading loss, partitions, flapping "
      "members, torn disk writes and mid-transfer reformations");

  Row (*scenarios[])() = {
      scenario_baseline,   scenario_cascade,      scenario_partition,
      scenario_flap,       scenario_torn_storage, scenario_chunk_reform,
      scenario_delta_reform, scenario_bulk_reform, scenario_ring_isolated_reform,
  };

  bench::BenchResultWriter results("chaos");
  std::printf("\n%14s %8s %8s %10s %9s %9s %11s %7s %7s %7s %14s\n", "scenario",
              "sent", "done", "ops/s", "p50_ms", "p99_ms", "recovery_ms",
              "chaos", "aborts", "io_err", "verdict");
  bool all_ok = true;
  for (auto* fn : scenarios) {
    const Row row = fn();
    std::printf("%14s %8llu %8llu %10.1f %9.2f %9.2f %11.1f %7llu %7llu %7llu %14s\n",
                row.scenario.c_str(), static_cast<unsigned long long>(row.sent),
                static_cast<unsigned long long>(row.completed),
                row.throughput_per_s, row.p50_ms, row.p99_ms, row.recovery_ms,
                static_cast<unsigned long long>(row.chaos_actions),
                static_cast<unsigned long long>(row.chunk_aborts),
                static_cast<unsigned long long>(row.storage_failures),
                row.verdict.c_str());
    results.row()
        .col("scenario", row.scenario)
        .col("sent", row.sent)
        .col("completed", row.completed)
        .col("throughput_per_s", row.throughput_per_s)
        .col("p50_ms", row.p50_ms)
        .col("p99_ms", row.p99_ms)
        .col("recovery_ms", row.recovery_ms)
        .col("verdict", row.verdict)
        .col("violations", row.violations)
        .col("chaos_actions", row.chaos_actions)
        .col("chunk_aborts", row.chunk_aborts)
        .col("storage_failures", row.storage_failures)
        .col("cp_analyzed", row.cp_analyzed)
        .col("cp_partial", row.cp_partial)
        .col("cp_dropped", row.cp_dropped)
        .col("order_wait_us_mean", row.order_wait_us_mean)
        .col("execute_us_mean", row.execute_us_mean)
        .col("reply_wire_us_mean", row.reply_wire_us_mean)
        .col("residual_us_mean", row.residual_us_mean)
        .col("bulk_aborts", row.bulk_aborts)
        .col("bulk_resumed", row.bulk_resumed)
        .col("bulk_fallbacks", row.bulk_fallbacks)
        .col("bystander_p99_base_ms", row.bystander_p99_base_ms)
        .col("bystander_p99_reform_ms", row.bystander_p99_reform_ms)
        .col("crashed_ring_reform_spans", row.crashed_ring_reform_spans)
        .col("bystander_reform_spans", row.bystander_reform_spans);
    if (row.verdict != "ok") all_ok = false;
  }
  results.write_file("BENCH_chaos.json");

  if (!all_ok) {
    std::fprintf(stderr, "\nbench_chaos: at least one scenario hung or violated "
                         "an invariant\n");
    return 1;
  }
  return 0;
}
