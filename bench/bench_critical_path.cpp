// Critical-path latency attribution across a load sweep (src/obs/critpath.hpp).
//
// Poisson open-loop clients drive a 400 us-servant group at rates crossing
// the ~2500/s saturation knee, once at admission concurrency 1 (the paper's
// synchronous upcall semantics, rows labelled "c1") and once at
// concurrency 4 (rows labelled "c4"). After each run the analyzer
// decomposes every completed invocation into order-wait / delivery /
// admission / execute / reply-park / reply-wire (+ residual) segments, and a
// fixed-window collector reports the same attribution per 100 ms window, so
// the table shows *where* latency goes as the system approaches and passes
// the knee — order-wait and admission grow with load, execute does not.
//
// The partition is self-checking: for every analyzed invocation the segment
// sum must equal the end-to-end latency to the virtual-time tick (the
// residual makes the sum exact by construction; a non-zero mismatch means
// the span tree and the analyzer disagree, and the bench exits non-zero).
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "support.hpp"
#include "obs/critpath.hpp"
#include "workload/drivers.hpp"

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
using workload::OpenLoopDriver;
namespace critpath = obs::critpath;

constexpr Duration kExec = Duration(400'000);     // 400 us service time → knee ~2500/s
constexpr Duration kRun = Duration(400'000'000);  // 400 ms of offered load
constexpr Duration kWindow = Duration(100'000'000);  // 4 windows per run

struct SegCols {
  double mean_us = 0.0;
  double p95_us = 0.0;
};

struct Row {
  std::string kind;  // "run" (whole-run aggregate) or "window"
  std::string mode;  // "c1" | "c4": admission concurrency
  double offered = 0.0;
  double window_start_ms = -1.0;  // -1 on run rows
  std::uint64_t invocations = 0;
  double throughput_per_s = 0.0;
  double e2e_p50_ms = 0.0;
  double e2e_p95_ms = 0.0;
  double e2e_p99_ms = 0.0;
  SegCols seg[critpath::kSegmentCount];
  std::uint64_t partial = 0;
  std::uint64_t inflight = 0;
  std::uint64_t dropped = 0;
  std::uint64_t sum_errors = 0;       // invocations whose segments missed e2e
  std::int64_t max_sum_error_ns = 0;  // worst |sum - e2e| over the run
};

SegCols seg_cols(const critpath::SegStats& s) {
  return SegCols{bench::to_us(s.mean), bench::to_us(s.p95)};
}

/// One (mode, rate) run: drive, drain, analyze, window.
std::vector<Row> run_level(std::size_t concurrency, double rate) {
  SystemConfig cfg;
  cfg.nodes = 2;
  cfg.span_capacity = 1u << 16;  // whole-run span trees feed the analyzer
  cfg.orb.poa_max_inflight = concurrency;
  System sys(cfg);
  FtProperties props;
  props.style = ReplicationStyle::kActive;
  props.initial_replicas = 1;
  props.minimum_replicas = 1;
  const GroupId group = sys.deploy("svc", "IDL:Svc:1.0", props, {NodeId{1}}, [&](NodeId) {
    return std::make_shared<CounterServant>(sys.sim(), 0, kExec);
  });
  sys.deploy_client("load", NodeId{2}, {group});

  OpenLoopDriver driver(sys.sim(), sys.client(NodeId{2}, group), "inc",
                        CounterServant::encode_i32(1), rate);
  driver.start();
  sys.run_for(kRun);
  driver.stop();
  sys.run_for(Duration(50'000'000));  // bounded drain; leftovers stay in flight

  const critpath::Report rep = critpath::analyze(*sys.spans());
  critpath::Windows windows(kWindow);
  std::vector<util::Duration> e2e;
  std::vector<util::Duration> seg_samples[critpath::kSegmentCount];
  std::uint64_t sum_errors = 0;
  std::int64_t max_err = 0;
  for (const critpath::Breakdown& b : rep.invocations) {
    windows.add(b);
    e2e.push_back(b.end_to_end());
    for (critpath::Segment s : critpath::all_segments()) {
      seg_samples[static_cast<std::size_t>(s)].push_back(b[s]);
    }
    const std::int64_t err = std::llabs((b.sum() - b.end_to_end()).count());
    if (err > max_err) max_err = err;
    if (err > 1) sum_errors += 1;  // > 1 virtual-time tick: partition broken
  }

  // The labels key the gated baselines.
  const char* mode = concurrency > 1 ? "c4" : "c1";
  std::vector<Row> rows;
  Row run;
  run.kind = "run";
  run.mode = mode;
  run.offered = rate;
  run.invocations = rep.invocations.size();
  run.throughput_per_s = static_cast<double>(rep.invocations.size()) /
                         (static_cast<double>(kRun.count()) / 1e9);
  const critpath::SegStats e2e_stats = critpath::aggregate(e2e);
  run.e2e_p50_ms = bench::to_ms(e2e_stats.p50);
  run.e2e_p95_ms = bench::to_ms(e2e_stats.p95);
  run.e2e_p99_ms = bench::to_ms(e2e_stats.p99);
  for (critpath::Segment s : critpath::all_segments()) {
    const auto i = static_cast<std::size_t>(s);
    run.seg[i] = seg_cols(critpath::aggregate(std::move(seg_samples[i])));
  }
  run.partial = rep.partial_traces;
  run.inflight = rep.inflight_traces;
  run.dropped = rep.dropped_spans;
  run.sum_errors = sum_errors;
  run.max_sum_error_ns = max_err;
  rows.push_back(run);

  for (const critpath::Windows::Window& w : windows.stats()) {
    Row wr;
    wr.kind = "window";
    wr.mode = mode;
    wr.offered = rate;
    wr.window_start_ms = bench::to_ms(w.start);
    wr.invocations = w.count;
    wr.throughput_per_s = w.throughput_per_s;
    wr.e2e_p50_ms = bench::to_ms(w.end_to_end.p50);
    wr.e2e_p95_ms = bench::to_ms(w.end_to_end.p95);
    wr.e2e_p99_ms = bench::to_ms(w.end_to_end.p99);
    for (critpath::Segment s : critpath::all_segments()) {
      const auto i = static_cast<std::size_t>(s);
      wr.seg[i] = seg_cols(w.seg[i]);
    }
    rows.push_back(wr);
  }
  return rows;
}

void print_row(const Row& r) {
  const auto seg = [&r](critpath::Segment s) {
    return r.seg[static_cast<std::size_t>(s)].mean_us;
  };
  std::printf("%6s %5s %8.0f %9.1f %7llu %9.0f %8.3f %9.1f %9.1f %9.1f %9.1f %9.1f %9.1f %8.1f\n",
              r.kind.c_str(), r.mode.c_str(), r.offered, r.window_start_ms,
              static_cast<unsigned long long>(r.invocations), r.throughput_per_s,
              r.e2e_p50_ms, seg(critpath::Segment::kOrderWait),
              seg(critpath::Segment::kDelivery), seg(critpath::Segment::kAdmission),
              seg(critpath::Segment::kExecute), seg(critpath::Segment::kReplyPark),
              seg(critpath::Segment::kReplyWire), seg(critpath::Segment::kResidual));
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = bench::smoke_mode(argc, argv);
  bench::print_header(
      "Critical-path attribution — where invocation latency goes vs load",
      "per-segment decomposition of end-to-end latency (order-wait, delivery, "
      "admission, execute, reply-park, reply-wire) across the saturation knee, "
      "admission concurrency 1 (c1) vs 4 (c4)");

  // At least 3 levels spanning the saturation knee of each mode: concurrency
  // 1 saturates at ~2500/s (one 400 us execution slot), concurrency 4 at
  // ~10000/s (four slots), so the c4 sweep gets one past-its-knee level.
  const std::vector<double> c1_rates =
      smoke ? std::vector<double>{500.0, 2400.0, 3000.0}
            : std::vector<double>{500.0, 1500.0, 2400.0, 3000.0};
  std::vector<double> c4_rates = c1_rates;
  c4_rates.push_back(11000.0);

  std::printf("\n%6s %5s %8s %9s %7s %9s %8s %9s %9s %9s %9s %9s %9s %8s\n", "kind",
              "mode", "offered", "win_ms", "invoc", "thru/s", "p50_ms", "order_us",
              "deliv_us", "admit_us", "exec_us", "park_us", "wire_us", "resid_us");

  bench::BenchResultWriter results("critical_path");
  bool partition_ok = true;
  for (const std::size_t concurrency : {std::size_t{1}, std::size_t{4}}) {
    for (const double rate : concurrency > 1 ? c4_rates : c1_rates) {
      for (const Row& r : run_level(concurrency, rate)) {
        print_row(r);
        auto& out = results.row()
                        .col("kind", r.kind)
                        .col("mode", r.mode)
                        .col("offered_per_s", r.offered)
                        .col("window_start_ms", r.window_start_ms)
                        .col("invocations", r.invocations)
                        .col("throughput_per_s", r.throughput_per_s)
                        .col("e2e_p50_ms", r.e2e_p50_ms)
                        .col("e2e_p95_ms", r.e2e_p95_ms)
                        .col("e2e_p99_ms", r.e2e_p99_ms);
        for (critpath::Segment s : critpath::all_segments()) {
          const SegCols& c = r.seg[static_cast<std::size_t>(s)];
          const std::string name(critpath::to_string(s));
          out.col(name + "_us_mean", c.mean_us).col(name + "_us_p95", c.p95_us);
        }
        out.col("partial_traces", r.partial)
            .col("inflight_traces", r.inflight)
            .col("dropped_spans", r.dropped)
            .col("sum_errors", r.sum_errors)
            .col("max_sum_error_ns", static_cast<std::uint64_t>(r.max_sum_error_ns));
        if (r.kind == "run") {
          if (r.sum_errors != 0) partition_ok = false;
          if (r.invocations == 0) partition_ok = false;
          if (r.partial != 0 || r.dropped != 0) {
            std::printf("  note: %llu partial tree(s), %llu evicted span(s) "
                        "skipped (not folded into the aggregates)\n",
                        static_cast<unsigned long long>(r.partial),
                        static_cast<unsigned long long>(r.dropped));
          }
        }
      }
    }
  }
  std::printf("\nshape check: queueing ahead of execution absorbs the latency "
              "growth past each\nmode's knee — queue residency behind the head "
              "lands in the delivery segment,\nhead-of-queue waiting for a free "
              "execution slot in admission —\nwhile execute stays "
              "~400 us at every level; segments + residual sum to\nend-to-end "
              "exactly for every analyzed invocation (in-flight/partial trees\n"
              "are counted, skipped, never folded into the aggregates).\n");
  results.write_file("BENCH_critical_path.json");

  if (!partition_ok) {
    std::fprintf(stderr, "bench_critical_path: segment partition violated "
                         "(sum != end-to-end beyond 1 tick) or no invocations "
                         "analyzed\n");
    return 1;
  }
  return 0;
}
