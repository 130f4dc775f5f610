// Batching / flow-control sweep: message throughput and delivery latency of
// a 4-node Totem ring under open-loop load, with multicast batching off and
// at several batch windows, plus the token backpressure controller under
// loss-induced congestion.
//
// Without batching every small message costs one Data frame and one token
// fragment slot, so the ring saturates at max_frags_per_token messages per
// member per token rotation. Batching packs the send queue into full wire
// frames: the same rotation carries window-times more messages, trading a
// little pack latency at low load for a much higher saturation point.
//
// Output: a latency-vs-throughput table per setting and BENCH_batching.json.
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "sim/ethernet.hpp"
#include "support.hpp"
#include "totem/totem.hpp"
#include "util/rng.hpp"
#include "workload/drivers.hpp"

namespace eternal {
namespace {

using totem::Delivery;
using totem::TotemConfig;
using totem::TotemListener;
using totem::TotemNode;
using totem::View;
using util::Bytes;
using util::Duration;
using util::NodeId;
using util::Rng;
using workload::LatencyProfile;

constexpr std::size_t kNodes = 4;
constexpr std::size_t kPayloadBytes = 64;
constexpr Duration kWarmup = Duration(20'000'000);    // 20 ms
constexpr Duration kMeasure = Duration(200'000'000);  // 200 ms window

struct Setting {
  const char* name;
  std::size_t max_msgs;
};

constexpr Setting kSettings[] = {
    {"off", 1}, {"batch4", 4}, {"batch16", 16}, {"batch64", 64},
};

constexpr double kRates[] = {10e3, 30e3, 60e3, 120e3};  // offered msg/s

/// Measures at node 0: every payload carries its submit time in the first
/// eight bytes, so one sink sees end-to-end (submit -> agreed delivery)
/// latency for every message in the ring.
struct MeasureSink : TotemListener {
  sim::Simulator* sim = nullptr;
  util::TimePoint window_start{};
  util::TimePoint window_end{};
  std::uint64_t in_window = 0;
  LatencyProfile latency;
  /// When non-zero, deliveries are also counted into fixed-width time
  /// buckets (for throughput-variation measurements).
  Duration bucket_width{};
  std::vector<std::uint64_t> buckets;

  void on_deliver(const Delivery& d) override {
    const util::TimePoint now = sim->now();
    if (now < window_start || now >= window_end) return;
    in_window += 1;
    std::int64_t submitted_ns = 0;
    std::memcpy(&submitted_ns, d.payload.data(), sizeof(submitted_ns));
    latency.record(now - util::TimePoint(Duration(submitted_ns)));
    if (bucket_width.count() > 0) {
      const std::size_t idx = static_cast<std::size_t>(
          (now - window_start).count() / bucket_width.count());
      if (idx >= buckets.size()) buckets.resize(idx + 1, 0);
      buckets[idx] += 1;
    }
  }
  void on_view_change(const View&) override {}
};

struct NullSink : TotemListener {
  void on_deliver(const Delivery&) override {}
  void on_view_change(const View&) override {}
};

struct Row {
  double offered = 0;
  double delivered = 0;
  double p50_us = 0, p95_us = 0, p99_us = 0;
  std::uint64_t batches = 0;
  double avg_batch = 1.0;
};

Row run_one(const Setting& setting, double rate) {
  sim::Simulator sim;
  sim::EthernetConfig ecfg;
  sim::Ethernet ether(sim, ecfg, /*seed=*/7);

  TotemConfig tcfg;
  tcfg.max_batch_msgs = setting.max_msgs;

  std::vector<NodeId> ids;
  for (std::uint32_t i = 1; i <= kNodes; ++i) ids.push_back(NodeId{i});
  MeasureSink sink0;
  sink0.sim = &sim;
  sink0.window_start = util::TimePoint(kWarmup);
  sink0.window_end = util::TimePoint(kWarmup + kMeasure);
  std::vector<NullSink> sinks(kNodes - 1);
  std::vector<std::unique_ptr<TotemNode>> nodes;
  for (std::size_t i = 0; i < kNodes; ++i) {
    TotemListener* l = i == 0 ? static_cast<TotemListener*>(&sink0) : &sinks[i - 1];
    nodes.push_back(std::make_unique<TotemNode>(sim, ether, ids[i], tcfg, l));
  }
  for (auto& n : nodes) n->start(ids);

  // Open-loop Poisson arrivals at the offered rate, spread over the senders.
  // Submissions stop at the window's end; the tail drains unmeasured.
  Rng rng(0xBA7C5EED);
  const double mean_gap_ns = 1e9 / rate;
  std::int64_t t_ns = 1'000'000;  // after the bootstrap view settles
  std::size_t sender = 0;
  const std::int64_t horizon = (kWarmup + kMeasure).count();
  while (t_ns < horizon) {
    Bytes payload(kPayloadBytes, 0x5A);
    std::memcpy(payload.data(), &t_ns, sizeof(t_ns));
    const std::size_t s = sender;
    sender = (sender + 1) % kNodes;
    sim.schedule(Duration(t_ns), [&nodes, s, payload = std::move(payload)] {
      nodes[s]->multicast(payload);
    });
    double u = rng.unit();
    if (u <= 0.0) u = 1e-12;
    t_ns += static_cast<std::int64_t>(-mean_gap_ns * std::log(u)) + 1;
  }
  sim.run_for(kWarmup + kMeasure + Duration(20'000'000));

  Row row;
  row.offered = rate;
  row.delivered = static_cast<double>(sink0.in_window) /
                  (static_cast<double>(kMeasure.count()) / 1e9);
  row.p50_us = bench::to_us(sink0.latency.percentile(50));
  row.p95_us = bench::to_us(sink0.latency.percentile(95));
  row.p99_us = bench::to_us(sink0.latency.percentile(99));
  std::uint64_t batched_msgs = 0;
  for (const auto& n : nodes) {
    row.batches += n->stats().batches_sent;
    batched_msgs += n->stats().batched_messages;
  }
  if (row.batches > 0) {
    row.avg_batch = static_cast<double>(batched_msgs) / static_cast<double>(row.batches);
  }
  return row;
}

// ---- backpressure shaping ----
//
// Under receiver-side loss the retransmission backlog congests the ring. The
// controller sizes the token budget from the congested member's drain-rate
// EWMA, so delivered throughput stays near the drain rate instead of sawing
// between a clamp and full release. Measured as the coefficient of variation
// of per-10 ms delivered counts (lower = flatter); EXPERIMENTS.md keeps the
// last numbers of the fixed clamp it replaced.
struct BpRow {
  double delivered = 0;
  double cv = -1.0;
  double p99_us = 0;
  std::uint64_t sets = 0;
  std::uint64_t throttled = 0;
};

BpRow run_backpressure(double rate, double loss) {
  sim::Simulator sim;
  sim::EthernetConfig ecfg;
  ecfg.loss_probability = loss;
  sim::Ethernet ether(sim, ecfg, /*seed=*/7);

  TotemConfig tcfg;
  tcfg.max_batch_msgs = 16;
  tcfg.backpressure_gap = 24;

  std::vector<NodeId> ids;
  for (std::uint32_t i = 1; i <= kNodes; ++i) ids.push_back(NodeId{i});
  MeasureSink sink0;
  sink0.sim = &sim;
  sink0.window_start = util::TimePoint(kWarmup);
  sink0.window_end = util::TimePoint(kWarmup + kMeasure);
  sink0.bucket_width = Duration(10'000'000);
  std::vector<NullSink> sinks(kNodes - 1);
  std::vector<std::unique_ptr<TotemNode>> nodes;
  for (std::size_t i = 0; i < kNodes; ++i) {
    TotemListener* l = i == 0 ? static_cast<TotemListener*>(&sink0) : &sinks[i - 1];
    nodes.push_back(std::make_unique<TotemNode>(sim, ether, ids[i], tcfg, l));
  }
  for (auto& n : nodes) n->start(ids);

  Rng rng(0xBACC0FF5);
  const double mean_gap_ns = 1e9 / rate;
  std::int64_t t_ns = 1'000'000;
  std::size_t sender = 0;
  const std::int64_t horizon = (kWarmup + kMeasure).count();
  while (t_ns < horizon) {
    Bytes payload(kPayloadBytes, 0x5A);
    std::memcpy(payload.data(), &t_ns, sizeof(t_ns));
    const std::size_t s = sender;
    sender = (sender + 1) % kNodes;
    sim.schedule(Duration(t_ns), [&nodes, s, payload = std::move(payload)] {
      nodes[s]->multicast(payload);
    });
    double u = rng.unit();
    if (u <= 0.0) u = 1e-12;
    t_ns += static_cast<std::int64_t>(-mean_gap_ns * std::log(u)) + 1;
  }
  sim.run_for(kWarmup + kMeasure + Duration(50'000'000));

  BpRow row;
  row.delivered = static_cast<double>(sink0.in_window) /
                  (static_cast<double>(kMeasure.count()) / 1e9);
  row.p99_us = bench::to_us(sink0.latency.percentile(99));
  for (const auto& n : nodes) {
    row.sets += n->stats().backpressure_sets;
    row.throttled += n->stats().backpressure_throttled;
  }
  if (!sink0.buckets.empty()) {
    double mean = 0;
    for (std::uint64_t b : sink0.buckets) mean += static_cast<double>(b);
    mean /= static_cast<double>(sink0.buckets.size());
    double var = 0;
    for (std::uint64_t b : sink0.buckets) {
      const double d = static_cast<double>(b) - mean;
      var += d * d;
    }
    var /= static_cast<double>(sink0.buckets.size());
    if (mean > 0) row.cv = std::sqrt(var) / mean;
  }
  return row;
}

}  // namespace
}  // namespace eternal

int main(int argc, char** argv) {
  using namespace eternal;
  const bool smoke = bench::smoke_mode(argc, argv);
  bench::print_header(
      "Totem multicast batching: latency vs throughput",
      "batching and token flow control are Totem mechanisms (Moser et al.); "
      "the paper's protocol carries Eternal's replicated invocations");

  bench::BenchResultWriter out("batching");
  // delivered msg/s at the top offered rate, per setting (for the summary).
  double saturated_off = 0;
  double best = 0;
  const char* best_name = "off";

  for (const Setting& setting : kSettings) {
    if (smoke && std::string_view(setting.name) != "off" &&
        std::string_view(setting.name) != "batch16") {
      continue;
    }
    std::printf("\nsetting %-8s (window=%zu)\n", setting.name, setting.max_msgs);
    std::printf("  %10s %12s %9s %9s %9s %8s %9s\n", "offered/s", "delivered/s",
                "p50(us)", "p95(us)", "p99(us)", "batches", "avg_batch");
    for (double rate : kRates) {
      if (smoke && rate != kRates[std::size(kRates) - 1]) continue;
      const Row r = run_one(setting, rate);
      std::printf("  %10.0f %12.0f %9.1f %9.1f %9.1f %8llu %9.2f\n", r.offered,
                  r.delivered, r.p50_us, r.p95_us, r.p99_us,
                  (unsigned long long)r.batches, r.avg_batch);
      out.row()
          .col("setting", setting.name)
          .col("offered_per_s", r.offered)
          .col("delivered_per_s", r.delivered)
          .col("p50_us", r.p50_us)
          .col("p95_us", r.p95_us)
          .col("p99_us", r.p99_us)
          .col("batches", r.batches)
          .col("avg_batch", r.avg_batch);
      if (rate == kRates[std::size(kRates) - 1]) {
        if (std::string(setting.name) == "off") saturated_off = r.delivered;
        if (r.delivered > best) {
          best = r.delivered;
          best_name = setting.name;
        }
      }
    }
  }

  if (saturated_off > 0) {
    std::printf("\nsaturation (offered %.0f/s): best window %s delivers %.2fx "
                "the unbatched ring\n",
                kRates[std::size(kRates) - 1], best_name,
                best / saturated_off);
  }

  // ---- backpressure shaping under loss-induced congestion ----
  std::printf("\nbackpressure shaping (15%% receiver loss, offered 80e3/s, gap=24)\n");
  std::printf("  %12s %8s %10s %8s %10s\n", "delivered/s", "cv", "p99(us)", "sets",
              "throttled");
  const BpRow r = run_backpressure(80e3, 0.15);
  std::printf("  %12.0f %8.3f %10.1f %8llu %10llu\n", r.delivered, r.cv, r.p99_us,
              (unsigned long long)r.sets, (unsigned long long)r.throttled);
  // The label is kept so the row compares with earlier results.
  out.row()
      .col("setting", "bp_proportional")
      .col("offered_per_s", 80e3)
      .col("delivered_per_s", r.delivered)
      .col("throughput_cv", r.cv)
      .col("p99_us", r.p99_us)
      .col("backpressure_sets", r.sets)
      .col("backpressure_throttled", r.throttled);
  out.write_file("BENCH_batching.json");
  return 0;
}
