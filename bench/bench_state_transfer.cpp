// Fast-path state transfer: the three optimizations this repo adds on top
// of the paper's baseline recovery pipeline, each measured against the
// seed behaviour it replaces.
//
//   1. recovery sweep — warm-passive backup killed and re-launched on the
//      same node, state size swept 1 kB .. 4 MB. Modes:
//        seed     full state in one IIOP set_state message (the paper's
//                 Figure-6 behaviour)
//        chunked  same full state, pipelined as 64 kB kStateChunk
//                 envelopes interleaving with normal traffic
//        delta    delta checkpoints enabled: the re-launched replica
//                 recovers over its retained local base, so only the
//                 dirty fields travel (plus chunking for the rare full
//                 fallback)
//      Claim: delta recovery time at 4 MB is >= 3x faster than seed.
//
//   2. bystander latency — two server groups share the ring; group A
//      (large state) recovers while a packet-driver client streams at
//      group B. p99 of B's response times during A's transfer:
//        baseline    no fault anywhere
//        monolithic  A recovers with one 2 MB set_state message
//        chunked     A recovers in 64 kB chunks
//      Claim: chunked keeps B's p99 under 2x the fault-free baseline;
//      monolithic does not (the one huge message monopolizes the medium).
//
//   3. stable storage — cold-passive logging to disk through the
//      append-only segment. Bytes written per logged message (the removed
//      rewrite-everything mode wrote >= 5x more; EXPERIMENTS.md keeps it).
#include <algorithm>
#include <array>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include <unistd.h>

#include "support.hpp"
#include "core/stable_storage.hpp"
#include "util/any.hpp"

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
using util::TimePoint;

double percentile_us(std::vector<Duration> v, double q) {
  if (v.empty()) return -1.0;
  std::sort(v.begin(), v.end());
  const std::size_t idx =
      static_cast<std::size_t>(static_cast<double>(v.size() - 1) * q);
  return bench::to_us(v[idx]);
}

// ------------------------------------------------------------ section 1

struct TransferMode {
  const char* name;
  std::size_t chunk_bytes;
  std::size_t delta_cap;
};

constexpr TransferMode kModes[] = {
    {"seed", 0, 0},
    {"chunked", 65'536, 0},
    {"delta", 65'536, 8},
};

struct RecoveryRow {
  const char* mode = "?";
  std::size_t state_bytes = 0;
  double recovery_ms = -1.0;
  double transfer_ms = -1.0;
  std::uint64_t wire_bytes = 0;   // on-wire bytes during the recovery window
  std::uint64_t chunks = 0;       // kStateChunk envelopes sent
  std::uint64_t deltas = 0;       // delta states published (wire + checkpoints)
};

RecoveryRow run_recovery(std::size_t state_bytes, const TransferMode& mode) {
  SystemConfig cfg;
  cfg.nodes = 4;
  cfg.mechanisms.state_chunk_bytes = mode.chunk_bytes;
  cfg.mechanisms.delta_chain_cap = mode.delta_cap;
  System sys(cfg);

  FtProperties props;
  props.style = ReplicationStyle::kWarmPassive;
  props.initial_replicas = 2;
  props.minimum_replicas = 1;
  // One full checkpoint establishes the backup's base; the interval must
  // exceed the 4 MB wire time (~345 ms at 100 Mbps) or the periodic stream
  // saturates the medium and the recovery under test competes with it.
  props.checkpoint_interval = Duration(1'000'000'000);
  props.fault_monitoring_interval = Duration(5'000'000);

  std::array<std::shared_ptr<CounterServant>, 5> servants{};
  const GroupId server = sys.deploy(
      "server", "IDL:PacketSink:1.0", props, {NodeId{1}, NodeId{2}},
      [&](NodeId n) {
        auto s = std::make_shared<CounterServant>(sys.sim(), state_bytes,
                                                  Duration(50'000));
        servants[n.value] = s;
        return s;
      });
  sys.deploy_client("driver", NodeId{4}, {server});

  bench::PacketDriver driver(sys, sys.client(NodeId{4}, server), "inc",
                             CounterServant::encode_i32(1));
  driver.start();

  // Warm up until the backup holds a checkpoint base (covers the initial
  // full-state transfer even at 4 MB).
  sys.run_until(
      [&] {
        const core::MessageLog* log = sys.mech(NodeId{2}).log_of(server);
        return log != nullptr && log->checkpoint().has_value();
      },
      Duration(5'000'000'000));
  sys.run_for(Duration(10'000'000));

  sys.kill_replica(NodeId{2}, server);
  sys.run_until(
      [&] {
        const auto* e = sys.mech(NodeId{1}).groups().find(server);
        return e != nullptr && e->members.size() == 1;
      },
      Duration(500'000'000));

  const std::uint64_t bytes_before = sys.ethernet().stats().bytes_sent;
  sys.relaunch_replica(NodeId{2}, server);
  const bool recovered =
      sys.run_until([&] { return !sys.mech(NodeId{2}).recoveries().empty(); },
                    Duration(20'000'000'000));
  const std::uint64_t bytes_after = sys.ethernet().stats().bytes_sent;
  driver.stop();

  RecoveryRow row;
  row.mode = mode.name;
  row.state_bytes = state_bytes;
  if (recovered) {
    const core::RecoveryRecord& rec = sys.mech(NodeId{2}).recoveries().front();
    row.recovery_ms = bench::to_ms(rec.recovery_time());
    row.transfer_ms = bench::to_ms(rec.transfer_time());
  }
  row.wire_bytes = bytes_after - bytes_before;
  row.chunks = sys.mech(NodeId{1}).stats().state_chunks_sent;
  row.deltas = sys.mech(NodeId{1}).stats().delta_states_published;
  return row;
}

// ------------------------------------------------------------ section 2

struct BystanderRow {
  const char* mode = "?";
  double p50_us = -1.0;
  double p99_us = -1.0;
  std::uint64_t samples = 0;
  double window_ms = -1.0;   // transfer (or observation) window length
  double max_gap_ms = -1.0;  // longest client-visible reply gap in the window
  bool recovered = true;
};

BystanderRow run_bystander(const char* name, bool fault, std::size_t chunk_bytes,
                           std::size_t chunk_window, std::size_t big_state) {
  SystemConfig cfg;
  cfg.nodes = 4;
  cfg.mechanisms.state_chunk_bytes = chunk_bytes;
  if (chunk_window > 0) cfg.mechanisms.state_chunk_window = chunk_window;
  System sys(cfg);

  FtProperties props;
  props.style = ReplicationStyle::kActive;
  props.initial_replicas = 2;
  props.minimum_replicas = 1;
  props.fault_monitoring_interval = Duration(5'000'000);

  const GroupId big = sys.deploy(
      "big", "IDL:BigState:1.0", props, {NodeId{1}, NodeId{2}}, [&](NodeId) {
        return std::make_shared<CounterServant>(sys.sim(), big_state,
                                                Duration(50'000));
      });
  const GroupId small = sys.deploy(
      "small", "IDL:Bystander:1.0", props, {NodeId{1}, NodeId{2}}, [&](NodeId) {
        return std::make_shared<CounterServant>(sys.sim(), 0, Duration(100'000));
      });
  sys.deploy_client("driver", NodeId{4}, {small});

  bench::PacketDriver driver(sys, sys.client(NodeId{4}, small), "inc",
                             CounterServant::encode_i32(1));
  driver.start();
  sys.run_for(Duration(30'000'000));  // warm-up

  // The measured window is the *transfer* only: fault detection and ring
  // reformation interrupt every mode identically, so the window opens at
  // re-launch, after the membership change settled.
  TimePoint window_start;
  TimePoint window_end;
  bool recovered = true;
  if (fault) {
    sys.kill_replica(NodeId{2}, big);
    sys.run_until(
        [&] {
          const auto* e = sys.mech(NodeId{1}).groups().find(big);
          return e != nullptr && e->members.size() == 1;
        },
        Duration(500'000'000));
    window_start = sys.sim().now();
    sys.relaunch_replica(NodeId{2}, big);
    recovered =
        sys.run_until([&] { return !sys.mech(NodeId{2}).recoveries().empty(); },
                      Duration(20'000'000'000));
    window_end = sys.sim().now();
  } else {
    window_start = sys.sim().now();
    sys.run_for(Duration(250'000'000));
    window_end = sys.sim().now();
  }
  // A request stalled behind a monolithic transfer replies long after the
  // window closes; drain generously or its latency is silently dropped.
  sys.run_for(Duration(400'000'000));
  driver.stop();

  // B's response times for requests *sent* inside the window — filtering on
  // reply arrival instead would drop exactly the requests a transfer stalls
  // past the window's end (survivor bias).
  std::vector<Duration> in_window;
  const auto& samples = driver.samples();
  const auto& arrivals = driver.arrivals();
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const TimePoint sent = arrivals[i] - samples[i];
    if (sent >= window_start && sent <= window_end) {
      in_window.push_back(samples[i]);
    }
  }
  BystanderRow row;
  row.mode = name;
  row.samples = in_window.size();
  row.p50_us = percentile_us(in_window, 0.50);
  row.p99_us = percentile_us(in_window, 0.99);
  row.window_ms = bench::to_ms(window_end - window_start);
  row.max_gap_ms = bench::to_ms(driver.max_reply_gap(window_start));
  row.recovered = recovered;
  return row;
}

// ------------------------------------------------------------ section 3

struct StorageRow {
  const char* mode = "?";
  std::uint64_t messages = 0;     // client replies == messages logged
  std::uint64_t writes = 0;       // whole-record rewrites (compactions)
  std::uint64_t appends = 0;      // segment appends
  std::uint64_t bytes_written = 0;
  double bytes_per_msg = -1.0;
};

StorageRow run_storage(const char* name, std::size_t state_bytes, Duration run_time) {
  namespace fs = std::filesystem;
  const fs::path root = fs::temp_directory_path() /
                        ("bench_state_transfer." + std::to_string(::getpid()) +
                         "." + name);
  fs::remove_all(root);
  fs::create_directories(root);

  SystemConfig cfg;
  cfg.nodes = 4;
  cfg.stable_storage_root = root.string();
  System sys(cfg);

  FtProperties props;
  props.style = ReplicationStyle::kColdPassive;
  props.initial_replicas = 1;
  props.minimum_replicas = 1;
  props.checkpoint_interval = Duration(25'000'000);
  props.fault_monitoring_interval = Duration(5'000'000);

  const GroupId server = sys.deploy(
      "server", "IDL:PacketSink:1.0", props, {NodeId{1}},
      [&](NodeId) {
        return std::make_shared<CounterServant>(sys.sim(), state_bytes,
                                                Duration(50'000));
      },
      {NodeId{2}});
  sys.deploy_client("driver", NodeId{4}, {server});

  bench::PacketDriver driver(sys, sys.client(NodeId{4}, server), "inc",
                             CounterServant::encode_i32(1));
  driver.start();
  sys.run_for(run_time);
  driver.stop();
  sys.run_for(Duration(5'000'000));  // drain in-flight work

  StorageRow row;
  row.mode = name;
  row.messages = driver.replies();
  // Node 2 is the log-keeping backup; its storage carries the message log.
  if (const core::StableStorage* st = sys.mech(NodeId{2}).storage()) {
    row.writes = st->writes();
    row.appends = st->appends();
    row.bytes_written = st->bytes_written();
    if (row.messages > 0) {
      row.bytes_per_msg =
          static_cast<double>(row.bytes_written) / static_cast<double>(row.messages);
    }
  }
  fs::remove_all(root);
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = bench::smoke_mode(argc, argv);

  // ---- 1. recovery sweep ----
  bench::print_header(
      "Fast-path state transfer — recovery time, bystander latency, storage I/O",
      "extends Figure 6: delta checkpoints + chunked set_state + append-only "
      "stable storage vs the seed full-envelope/rewrite behaviour");

  static const std::size_t kSizes[] = {1'024, 65'536, 524'288, 4'194'304};
  static const std::size_t kSmokeSizes[] = {1'024, 65'536};
  const std::size_t* sizes = smoke ? kSmokeSizes : kSizes;
  const std::size_t n_sizes = smoke ? std::size(kSmokeSizes) : std::size(kSizes);

  bench::BenchResultWriter results("state_transfer");
  std::printf("\n-- recovery sweep (warm passive, kill + same-node re-launch) --\n");
  std::printf("%12s %8s %12s %12s %12s %8s %8s\n", "state_B", "mode",
              "recovery_ms", "transfer_ms", "wire_bytes", "chunks", "deltas");
  double seed_4m = -1.0, delta_4m = -1.0;
  for (std::size_t i = 0; i < n_sizes; ++i) {
    for (const TransferMode& mode : kModes) {
      const RecoveryRow row = run_recovery(sizes[i], mode);
      std::printf("%12zu %8s %12.3f %12.3f %12llu %8llu %8llu\n", row.state_bytes,
                  row.mode, row.recovery_ms, row.transfer_ms,
                  static_cast<unsigned long long>(row.wire_bytes),
                  static_cast<unsigned long long>(row.chunks),
                  static_cast<unsigned long long>(row.deltas));
      results.row()
          .col("section", "recovery")
          .col("mode", row.mode)
          .col("state_bytes", static_cast<std::uint64_t>(row.state_bytes))
          .col("recovery_ms", row.recovery_ms)
          .col("transfer_ms", row.transfer_ms)
          .col("wire_bytes", row.wire_bytes)
          .col("chunks", row.chunks)
          .col("deltas", row.deltas);
      if (row.state_bytes == 4'194'304) {
        if (row.mode == kModes[0].name) seed_4m = row.recovery_ms;
        if (row.mode == kModes[2].name) delta_4m = row.recovery_ms;
      }
    }
  }
  if (seed_4m > 0 && delta_4m > 0) {
    std::printf("\nclaim check: recovery(4 MB, seed) / recovery(4 MB, delta) = %.1fx "
                "(target >= 3x)\n",
                seed_4m / delta_4m);
    results.row()
        .col("section", "claim")
        .col("mode", "recovery_speedup_4mb")
        .col("state_bytes", std::uint64_t{4'194'304})
        .col("recovery_ms", seed_4m / delta_4m)
        .col("transfer_ms", -1.0)
        .col("wire_bytes", std::uint64_t{0})
        .col("chunks", std::uint64_t{0})
        .col("deltas", std::uint64_t{0});
  }

  // ---- 2. bystander latency ----
  // Every message shares the Totem total order, so a bystander request
  // sequenced behind outstanding transfer traffic waits for it: the
  // in-flight budget (chunk_bytes x window) is the bystander's worst-case
  // queueing delay, and the monolithic transfer blocks the ring wholesale.
  const std::size_t big_state = smoke ? 200'000 : 2'000'000;
  std::printf("\n-- bystander p99 while another group transfers %zu B --\n", big_state);
  std::printf("%12s %10s %10s %8s %10s %10s %5s\n", "mode", "p50_us", "p99_us",
              "samples", "window_ms", "max_gap_ms", "rec");
  double base_p99 = -1.0, mono_p99 = -1.0, chunk_p99 = -1.0;
  struct { const char* name; bool fault; std::size_t chunk; std::size_t window; }
      kByModes[] = {
          {"baseline", false, 0, 0},
          {"monolithic", true, 0, 0},
          {"chunk64k", true, 65'536, 4},
          {"chunk2k", true, 2'048, 2},
          {"chunk1k", true, 1'024, 1},
      };
  for (const auto& m : kByModes) {
    const BystanderRow row =
        run_bystander(m.name, m.fault, m.chunk, m.window, big_state);
    std::printf("%12s %10.1f %10.1f %8llu %10.1f %10.1f %5s\n", row.mode,
                row.p50_us, row.p99_us,
                static_cast<unsigned long long>(row.samples), row.window_ms,
                row.max_gap_ms, row.recovered ? "yes" : "NO");
    results.row()
        .col("section", "bystander")
        .col("mode", row.mode)
        .col("p50_us", row.p50_us)
        .col("p99_us", row.p99_us)
        .col("samples", row.samples)
        .col("window_ms", row.window_ms)
        .col("max_gap_ms", row.max_gap_ms);
    if (row.mode == std::string_view("baseline")) base_p99 = row.p99_us;
    if (row.mode == std::string_view("monolithic")) mono_p99 = row.p99_us;
    if (row.mode == std::string_view("chunk1k")) chunk_p99 = row.p99_us;
  }
  if (base_p99 > 0) {
    std::printf("\nclaim check: bystander p99 chunk1k/baseline = %.2fx (target < 2x); "
                "monolithic/baseline = %.2fx\n",
                chunk_p99 / base_p99, mono_p99 / base_p99);
    results.row()
        .col("section", "claim")
        .col("mode", "bystander_p99_ratio")
        .col("chunked_over_baseline", chunk_p99 / base_p99)
        .col("monolithic_over_baseline", mono_p99 / base_p99);
  }

  // ---- 3. stable storage I/O ----
  const Duration storage_run = smoke ? Duration(40'000'000) : Duration(150'000'000);
  const std::size_t storage_state = smoke ? 4'096 : 16'384;
  std::printf("\n-- stable-storage bytes per logged message (cold passive) --\n");
  std::printf("%12s %10s %10s %10s %14s %14s\n", "mode", "messages", "writes",
              "appends", "bytes_written", "bytes_per_msg");
  const StorageRow row = run_storage("append", storage_state, storage_run);
  std::printf("%12s %10llu %10llu %10llu %14llu %14.1f\n", row.mode,
              static_cast<unsigned long long>(row.messages),
              static_cast<unsigned long long>(row.writes),
              static_cast<unsigned long long>(row.appends),
              static_cast<unsigned long long>(row.bytes_written),
              row.bytes_per_msg);
  results.row()
      .col("section", "storage")
      .col("mode", row.mode)
      .col("messages", row.messages)
      .col("writes", row.writes)
      .col("appends", row.appends)
      .col("bytes_written", row.bytes_written)
      .col("bytes_per_msg", row.bytes_per_msg);

  results.write_file("BENCH_state_transfer.json");
  return 0;
}
