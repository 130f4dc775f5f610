// The repository benchmark: one workload per invocation, one JSON line out.
//
//   perfbench --workload <fleet_steady|recover_state|passive_logged>
//             --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//
// --trace 0 prints the end-to-end metrics of untraced runs. The saturation
// search runs once; then the whole workload repeats (same seed) until
// --seconds of wall time have passed. Every repeat must replay the first one
// exactly (the determinism self-check); set-up time is the minimum over all
// set-ups timed in the run.
//
// --trace 1 prints the per-layer metrics. It runs a half-length workload
// plain (a few times; host cost is the fastest), with seam timers only (must
// replay the plain run exactly — the wrappers may not move virtual time), and
// fully traced (span store, trace buffer, critical-path analyzer,
// RecoveryProfiler, seam timers). Decode micro-replays run over frames and
// messages the traced run captured; its span store is exported as a Chrome
// trace into --out.
//
// Any failed correctness check makes "correct" false and the exit code 1.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "core/envelope.hpp"
#include "core/placement.hpp"
#include "giop/giop.hpp"
#include "totem/frames.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;
namespace eu = eternal::util;

constexpr double kSatP99LimitUs = 2'000.0;
constexpr double kSatBacklogLimit = 0.01;
constexpr double kSatResolution = 0.03;  // bracket ratio at which the search stops
constexpr double kSatStart = 4'000.0;    // first probe (ops/s)
constexpr double kSatSpan = 64.0;        // the search gives up beyond kSatStart ×/÷ this
constexpr double kTracedScale = 0.5;
constexpr std::int64_t kSetupSliceNs = 50'000'000;  // extra set-ups after each repeat
constexpr int kPlainRepeats = 3;  // trace 1: host cost is the fastest plain run

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string out = ".";
};

bool parse_args(int argc, char** argv, Args& a) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view key = argv[i];
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (key == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
    } else if (key == "--seconds") {
      a.seconds = std::strtod(v, &end);
    } else if (key == "--trace") {
      a.trace = static_cast<int>(std::strtol(v, &end, 10));
    } else if (key == "--out") {
      a.out = v;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return have_workload && (argc % 2) == 1 && (a.trace == 0 || a.trace == 1) && a.seconds > 0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile (like workload::LatencyProfile), in microseconds.
double pct_us(std::vector<Duration> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  return static_cast<double>(v[static_cast<std::size_t>(rank + 0.5)].count()) / 1e3;
}

double median_ms(const std::vector<Duration>& v) {
  std::vector<double> ms;
  for (Duration d : v) ms.push_back(static_cast<double>(d.count()) / 1e6);
  return median(ms);
}

double mean_ms(const std::vector<Duration>& v) {
  double sum = 0.0;
  for (Duration d : v) sum += static_cast<double>(d.count()) / 1e6;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

/// num ÷ den, 0 when den is 0 (a mechanism the workload never exercised).
template <class N, class D>
double ratio(N num, D den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-32s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char num[64];
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(num, sizeof num, "%.12g", v);
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + num + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

bool report_violations(const char* label, const std::vector<std::string>& violations) {
  for (std::size_t i = 0; i < violations.size() && i < 10; ++i) {
    std::fprintf(stderr, "perfbench: %s: %s\n", label, violations[i].c_str());
  }
  return violations.empty();
}

// ---------------------------------------------------------------- trace 0

struct Saturation {
  double ops_s = 0.0;
  std::vector<double> setup_s;
};

/// Highest rate that meets the p99 limit with no growing backlog. From
/// kSatStart the rate doubles while probes pass (or halves while they fail)
/// until one rate passes and its double fails; geometric bisection then
/// narrows that bracket.
Saturation saturation_search(const WorkloadSpec& w, const RunOptions& opts) {
  Saturation s;
  const auto passes = [&](double rate) {
    const ProbeResult p = w.probe(rate, opts);
    s.setup_s.push_back(p.setup_cpu_s);
    return p.p99_us <= kSatP99LimitUs &&
           static_cast<double>(p.in_flight) <= kSatBacklogLimit * static_cast<double>(p.sent);
  };
  double lo = kSatStart;
  double hi = kSatStart;
  if (passes(kSatStart)) {
    do {
      lo = hi;
      hi *= 2.0;
    } while (hi <= kSatStart * kSatSpan && passes(hi));
  } else {
    do {
      hi = lo;
      lo /= 2.0;
    } while (lo >= kSatStart / kSatSpan && !passes(lo));
  }
  if (hi > kSatStart * kSatSpan || lo < kSatStart / kSatSpan) {
    std::fprintf(stderr, "perfbench: saturation outside %.0f..%.0f ops/s\n",
                 kSatStart / kSatSpan, kSatStart * kSatSpan);
    return s;
  }
  while (hi / lo > 1.0 + kSatResolution) {
    const double mid = std::sqrt(lo * hi);
    (passes(mid) ? lo : hi) = mid;
  }
  s.ops_s = lo;
  return s;
}

int run_untraced(const WorkloadSpec& w, const Args& args, const RunOptions& opts) {
  const std::int64_t t0 = wall_ns();
  bool correct = true;

  Saturation sat = saturation_search(w, opts);
  if (sat.ops_s <= 0.0) correct = false;

  std::vector<double> setup_s = sat.setup_s;
  std::vector<double> allocs_per_op;
  std::vector<double> host_us_per_op;
  RunResult first;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::size_t reps = 0;
  while (reps < 2 || static_cast<double>(wall_ns() - t0) / 1e9 < args.seconds) {
    RunResult r = w.run(opts);
    ++reps;
    setup_s.push_back(r.setup_cpu_s);
    // Set-up is short: after every repeat, time it on its own for a while, so
    // its minimum rests on many samples spread over the whole run.
    const std::int64_t setups_from = wall_ns();
    while (wall_ns() - setups_from < kSetupSliceNs) setup_s.push_back(w.setup(opts));
    allocs_per_op.push_back(ratio(r.measured_allocs, r.completed));
    host_us_per_op.push_back(ratio(r.measured_cpu_s, r.completed) * 1e6);
    attempted += r.attempted;
    failed += r.failed;
    correct = report_violations(w.name, r.violations) && correct;
    if (reps == 1) {
      first = std::move(r);
    } else if (r.signature() != first.signature()) {
      std::fprintf(stderr, "perfbench: repeat %zu of seed %llu did not replay the first run\n",
                   reps, static_cast<unsigned long long>(args.seed));
      correct = false;
    }
    if (reps >= 200) break;
  }
  if (first.open_loop.empty() || first.light.empty() || first.recoveries.empty() ||
      first.outages.empty()) {
    std::fprintf(stderr, "perfbench: a phase produced no samples\n");
    correct = false;
  }

  std::printf("perfbench %s seed %llu: %zu run(s), %zu set-up(s)\n", w.name,
              static_cast<unsigned long long>(args.seed), reps, setup_s.size());
  std::printf("open loop: %zu samples, p90 %.1f p95 %.1f p98 %.1f p99 %.1f p99.9 %.1f us; "
              "packet driver: %zu samples; recoveries %zu, faults %zu; dead-process ORB "
              "discards %llu\n",
              first.open_loop.size(), pct_us(first.open_loop, 90), pct_us(first.open_loop, 95),
              pct_us(first.open_loop, 98), pct_us(first.open_loop, 99),
              pct_us(first.open_loop, 99.9), first.light.size(), first.recoveries.size(),
              first.outages.size(),
              static_cast<unsigned long long>(first.counts.dead_orb_discards));
  std::printf("recoveries (ms):");
  for (Duration d : first.recoveries) std::printf(" %.3f", static_cast<double>(d.count()) / 1e6);
  std::printf("\noutages (ms):");
  for (Duration d : first.outages) std::printf(" %.3f", static_cast<double>(d.count()) / 1e6);
  std::printf("\n");
  // Not a gated metric: it swings by more than any bound may be (README).
  std::printf("host us/op per repeat (ungated):");
  for (double v : host_us_per_op) std::printf(" %.2f", v);
  std::printf("\n");
  std::printf("network: EthernetConfig defaults per ring (100 Mbps, 1518 B frames, 25 us "
              "propagation+stack, no loss); latencies are virtual time, setup_s and "
              "peak_rss_mb are host measurements\n");
  const std::vector<Metric> metrics = {
      {"setup_s", *std::min_element(setup_s.begin(), setup_s.end()), "s"},
      {"allocs_per_op", *std::min_element(allocs_per_op.begin(), allocs_per_op.end()), "count"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"light_p50_us", pct_us(first.light, 50), "us"},
      {"e2e_p50_us", pct_us(first.open_loop, 50), "us"},
      {"e2e_p99_us", pct_us(first.open_loop, 99), "us"},
      {"e2e_p999_us", pct_us(first.open_loop, 99.9), "us"},
      {"sat_ops_s", sat.ops_s, "ops/s"},
      {"recovery_ms", median_ms(first.recoveries), "ms"},
      {"outage_ms", mean_ms(first.outages), "ms"},
  };
  print_result(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

// ---------------------------------------------------------------- trace 1

/// Median ns per call of `pass` (one call per corpus item), over rounds of
/// at least 20 ms each.
template <class Pass>
double replay_ns(std::size_t items, Pass&& pass) {
  if (items == 0) return 0.0;
  std::vector<double> rounds;
  for (int round = 0; round < 5; ++round) {
    std::size_t calls = 0;
    const std::int64_t t0 = wall_ns();
    std::int64_t elapsed = 0;
    do {
      pass();
      calls += items;
      elapsed = wall_ns() - t0;
    } while (elapsed < 20'000'000);
    rounds.push_back(static_cast<double>(elapsed) / static_cast<double>(calls));
  }
  return median(rounds);
}

struct Replays {
  double giop_ns = 0.0;
  double envelope_ns = 0.0;
  double frame_ns = 0.0;
  double ring_of_ns = 0.0;
};

Replays micro_replays(const TraceOutputs& t) {
  namespace totem = eternal::totem;
  std::vector<eu::Bytes> envelopes;
  std::vector<eu::GroupId> groups;
  for (const eu::Bytes& f : t.frame_corpus) {
    const auto frame = totem::decode_frame(f);
    if (!frame) continue;
    const auto* data = std::get_if<totem::DataFrame>(&frame->body);
    if (data == nullptr || data->frag_count != 1 || data->batch_count != 1) continue;
    const auto env = eternal::core::decode_envelope(data->payload);
    if (!env) continue;
    envelopes.push_back(data->payload);
    groups.push_back(env->target_group);
  }
  volatile std::size_t sink = 0;
  Replays r;
  r.giop_ns = replay_ns(t.giop_corpus.size(), [&] {
    for (const eu::Bytes& b : t.giop_corpus) sink = sink + eternal::giop::decode(b).has_value();
  });
  r.frame_ns = replay_ns(t.frame_corpus.size(), [&] {
    for (const eu::Bytes& b : t.frame_corpus) sink = sink + totem::decode_frame(b).has_value();
  });
  r.envelope_ns = replay_ns(envelopes.size(), [&] {
    for (const eu::Bytes& b : envelopes) {
      sink = sink + eternal::core::decode_envelope(b).has_value();
    }
  });
  const eternal::core::RingPlacement placement(t.placement);
  r.ring_of_ns = replay_ns(groups.size(), [&] {
    for (eu::GroupId g : groups) sink = sink + placement.ring_of(g);
  });
  return r;
}

int run_traced(const WorkloadSpec& w, const Args& args, RunOptions opts) {
  opts.scale = kTracedScale;
  bool correct = true;

  // Host time swings with other tenants' load; the fastest of a few plain
  // repeats is the steadiest reading of it.
  RunResult plain = w.run(opts);
  for (int i = 1; i < kPlainRepeats; ++i) {
    RunResult again = w.run(opts);
    if (again.signature() != plain.signature()) {
      std::fprintf(stderr, "perfbench: plain repeat %d did not replay the first\n", i + 1);
      correct = false;
    }
    const auto host = [](const RunResult& r) { return ratio(r.measured_cpu_s, r.completed); };
    if (host(again) < host(plain)) plain = std::move(again);
  }
  opts.seams = true;
  RunResult seams = w.run(opts);
  opts.traced = true;
  RunResult traced = w.run(opts);

  correct = report_violations("plain run", plain.violations) && correct;
  correct = report_violations("seam-timed run", seams.violations) && correct;
  correct = report_violations("traced run", traced.violations) && correct;
  if (seams.signature() != plain.signature()) {
    std::fprintf(stderr, "perfbench: the seam timers moved the virtual timeline\n");
    correct = false;
  }
  const TraceOutputs& t = *traced.trace;
  // At this commit critpath cannot attribute an invocation answered by a
  // replica replaying its recovery backlog, about one per recovery (no
  // eviction involved; dropped_spans stays 0). Only messages enqueued at a
  // recovering replica can be replayed, so more partial trees than those
  // is a fault of the analysis.
  const std::uint64_t partial_limit = traced.counts.enqueued_in_recovery;
  if (t.invariant_violations != 0 || t.sum_errors != 0 || t.dropped_spans != 0 ||
      t.partial_traces > partial_limit || t.invocations == 0 || t.profiled_recoveries == 0) {
    std::fprintf(stderr,
                 "perfbench: traced run: %llu invariant violation(s), %llu critpath sum "
                 "error(s), %llu partial trace(s) (at most %llu), %llu dropped span(s), "
                 "%llu invocations, %llu profiled recoveries\n",
                 static_cast<unsigned long long>(t.invariant_violations),
                 static_cast<unsigned long long>(t.sum_errors),
                 static_cast<unsigned long long>(t.partial_traces),
                 static_cast<unsigned long long>(partial_limit),
                 static_cast<unsigned long long>(t.dropped_spans),
                 static_cast<unsigned long long>(t.invocations),
                 static_cast<unsigned long long>(t.profiled_recoveries));
    correct = false;
  }

  const std::string chrome_path = args.out + "/" + w.name + ".chrome.json";
  if (std::FILE* f = std::fopen(chrome_path.c_str(), "wb")) {
    std::fwrite(t.chrome_json.data(), 1, t.chrome_json.size(), f);
    std::fclose(f);
    std::printf("chrome trace: %s (chrome://tracing or ui.perfetto.dev)\n", chrome_path.c_str());
  }
  const Replays replays = micro_replays(t);

  const Counts& c = seams.counts;
  const auto per_op = [&](auto v) { return ratio(v, seams.completed); };
  const auto seam_us = [&](Seam s) {
    return per_op(seams.seams[static_cast<std::size_t>(s)].self_ns) / 1e3;
  };
  const auto seam_allocs = [&](Seam s) {
    return per_op(seams.seams[static_cast<std::size_t>(s)].self_allocs);
  };
  const double plain_host = ratio(plain.measured_cpu_s, plain.completed);
  const double traced_host = ratio(traced.measured_cpu_s, traced.completed);
  const double shift = ratio(pct_us(traced.open_loop, 50), pct_us(plain.open_loop, 50));
  const std::vector<Metric> metrics = {
      {"sim.host_us_per_op", plain_host * 1e6, "us"},
      {"sim.events_per_op", per_op(c.events), "count"},
      {"sim.host_ns_per_event", ratio(plain.sim_incl_ns, plain.counts.events), "ns"},
      {"sim.eth_frames_per_op", per_op(c.frames), "count"},
      {"sim.eth_bytes_per_op", per_op(c.wire_bytes), "B"},
      {"sim.eth_busy_frac", c.medium_busy_frac, "ratio"},
      {"totem.msgs_per_frame", ratio(c.totem_msgs, c.data_frames), "ratio"},
      {"totem.throttled_per_op", per_op(c.throttled), "count"},
      {"totem.tokens_per_op", per_op(c.tokens), "count"},
      {"totem.order_wait_us", t.order_wait_us, "us"},
      {"totem.reply_wire_us", t.reply_wire_us, "us"},
      {"totem.rtx_per_op", per_op(c.retransmissions), "count"},
      {"totem.view_changes", static_cast<double>(c.view_changes), "count"},
      {"totem.reform_frac", ratio(t.reform_ms / 1e3, traced.counts.virtual_s), "ratio"},
      {"totem.rx_host_us_per_op", seam_us(Seam::kTotemRx), "us"},
      {"totem.rx_allocs_per_op", seam_allocs(Seam::kTotemRx), "count"},
      {"totem.decode_frame_ns", replays.frame_ns, "ns"},
      {"giop.request_bytes", ratio(seams.giop.request_bytes, seams.giop.requests), "B"},
      {"giop.reply_bytes", ratio(seams.giop.reply_bytes, seams.giop.replies), "B"},
      {"giop.state_bytes", static_cast<double>(c.max_state_bytes), "B"},
      {"giop.decode_ns", replays.giop_ns, "ns"},
      {"orb.dispatches_per_op", per_op(c.dispatches), "count"},
      {"orb.execute_us", t.execute_us, "us"},
      {"orb.plain_p50_us", plain.plain_p50_us, "us"},
      {"orb.discards", static_cast<double>(c.orb_discards), "count"},
      {"interceptor.captured_per_op", per_op(c.captured), "count"},
      {"interceptor.injected_per_op", per_op(c.injected), "count"},
      {"interceptor.send_host_us_per_op", seam_us(Seam::kOrbSend), "us"},
      {"core.multicasts_per_op", per_op(c.mech_multicasts), "count"},
      {"core.useful_reply_frac",
       ratio(c.replies_delivered, c.replies_delivered + c.duplicate_replies), "ratio"},
      {"core.delivery_us", t.delivery_us, "us"},
      {"core.residual_us", t.residual_us, "us"},
      {"core.residual_share", ratio(t.residual_us, t.e2e_us - t.execute_us), "ratio"},
      {"core.ordering_tax_us", pct_us(plain.light, 50) - plain.plain_p50_us, "us"},
      {"core.capture_host_us_per_op", seam_us(Seam::kCapture), "us"},
      {"core.capture_allocs_per_op", seam_allocs(Seam::kCapture), "count"},
      {"core.decode_envelope_ns", replays.envelope_ns, "ns"},
      {"core.rec_fault_detection_ms", t.rec_ms[0], "ms"},
      {"core.rec_quiesce_ms", t.rec_ms[1], "ms"},
      {"core.rec_get_state_ms", t.rec_ms[2], "ms"},
      {"core.rec_transfer_ms", t.rec_ms[3], "ms"},
      {"core.rec_set_state_ms", t.rec_ms[4], "ms"},
      {"core.enqueued_per_recovery", ratio(c.enqueued_in_recovery, c.recoveries), "count"},
      {"core.promotions", static_cast<double>(c.promotions), "count"},
      {"core.replayed_per_promotion", ratio(c.log_replayed, c.promotions), "count"},
      {"core.checkpoints_per_s", ratio(c.checkpoints, c.virtual_s), "1/s"},
      {"core.storage_appends_per_op", per_op(c.storage_appends), "count"},
      {"core.storage_syncs_per_op", per_op(c.storage_syncs), "count"},
      {"core.storage_bytes_per_op", per_op(c.storage_bytes), "B"},
      {"core.storage_failures", static_cast<double>(c.storage_failures), "count"},
      {"core.ring_share_max", ratio(c.busiest_ring_ops, seams.attempted), "ratio"},
      {"core.ring_of_ns", replays.ring_of_ns, "ns"},
      {"obs.trace_host_overhead", ratio(traced_host, plain_host) - 1.0, "ratio"},
      {"obs.trace_virtual_shift", shift - 1.0, "ratio"},
      {"obs.partial_traces", static_cast<double>(t.partial_traces), "count"},
      {"obs.dropped_spans", static_cast<double>(t.dropped_spans), "count"},
      {"obs.cp_sum_errors", static_cast<double>(t.sum_errors), "count"},
      {"obs.invariant_violations", static_cast<double>(t.invariant_violations), "count"},
  };
  std::printf("perfbench %s seed %llu (traced, scale %.2f): %llu traced invocations, "
              "%llu profiled recoveries\n",
              w.name, static_cast<unsigned long long>(args.seed), kTracedScale,
              static_cast<unsigned long long>(t.invocations),
              static_cast<unsigned long long>(t.profiled_recoveries));
  print_result(correct, plain.attempted + seams.attempted + traced.attempted,
               plain.failed + seams.failed + traced.failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> "
                 "[--out <dir>]\n");
    return 2;
  }
  const WorkloadSpec* w = find_workload(args.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  RunOptions opts;
  opts.seed = args.seed;
  opts.scratch_dir = args.out;
  std::error_code ec;
  std::filesystem::create_directories(args.out, ec);
  return args.trace == 0 ? run_untraced(*w, args, opts) : run_traced(*w, args, opts);
}
