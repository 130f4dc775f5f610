// The three benchmark workloads and what one run of them measures.
//
// A run builds the workload's System from the seed, deploys its groups
// (timed as set-up), then drives the measured phases and checks what the
// clients observed. Everything virtual in a RunResult is a pure function of
// (workload, seed, scale); RunResult::signature() hashes it so the caller
// can prove that two runs — or a run with seam timers — replayed exactly.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/placement.hpp"
#include "history.hpp"
#include "seams.hpp"
#include "util/bytes.hpp"

namespace perfbench {

struct RunOptions {
  std::uint64_t seed = 1;
  /// Multiplies every phase's virtual duration (traced runs use a shorter
  /// run to bound the span and trace memory).
  double scale = 1.0;
  /// Wrap the public seams with SeamClock timers (and count GIOP bytes).
  bool seams = false;
  /// Attach the span store and trace buffer, capture decode corpora.
  bool traced = false;
  /// Parent directory for per-run stable storage.
  std::string scratch_dir = ".";
};

/// Exact counts over the measured window (everything after set-up). Every
/// integer field is listed once more in workloads.cpp (kCountFields), which
/// takes the window difference and feeds the run signature.
struct Counts {
  std::uint64_t events = 0;
  std::uint64_t frames = 0;
  std::uint64_t wire_bytes = 0;
  std::uint64_t totem_msgs = 0;
  std::uint64_t data_frames = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t tokens = 0;
  std::uint64_t throttled = 0;
  std::uint64_t view_changes = 0;  ///< views installed, max over nodes
  std::uint64_t dispatches = 0;
  std::uint64_t orb_discards = 0;
  std::uint64_t dead_orb_discards = 0;  ///< by killed processes before their removal
  std::uint64_t captured = 0;
  std::uint64_t injected = 0;
  std::uint64_t mech_multicasts = 0;
  std::uint64_t replies_delivered = 0;
  std::uint64_t duplicate_replies = 0;
  std::uint64_t enqueued_in_recovery = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t promotions = 0;
  std::uint64_t log_replayed = 0;
  std::uint64_t checkpoints = 0;
  std::uint64_t misrouted = 0;
  std::uint64_t storage_appends = 0;
  std::uint64_t storage_syncs = 0;
  std::uint64_t storage_bytes = 0;
  std::uint64_t storage_failures = 0;
  std::uint64_t max_state_bytes = 0;  ///< largest application state recovered
  std::uint64_t busiest_ring_ops = 0;
  double medium_busy_frac = 0.0;  ///< share of the window the media were busy
  double virtual_s = 0.0;         ///< length of the measured window
};

/// GIOP messages sized at the ORB→interceptor seam (seam-timed runs only,
/// so they stay out of the run signature).
struct GiopSizes {
  std::uint64_t requests = 0;
  std::uint64_t request_bytes = 0;
  std::uint64_t replies = 0;
  std::uint64_t reply_bytes = 0;
};

/// Outputs only a traced run has.
struct TraceOutputs {
  std::uint64_t invocations = 0;
  double e2e_us = 0.0;  ///< critpath means over analyzed invocations
  double order_wait_us = 0.0;
  double delivery_us = 0.0;
  double execute_us = 0.0;
  double reply_wire_us = 0.0;
  double residual_us = 0.0;
  std::uint64_t partial_traces = 0;
  std::uint64_t dropped_spans = 0;
  std::uint64_t sum_errors = 0;
  std::uint64_t invariant_violations = 0;
  std::uint64_t profiled_recoveries = 0;
  /// RecoveryProfiler phase means, Figure-5 order (the sixth, replay, is
  /// zero-length at this commit: the backlog is handed over in one instant).
  double rec_ms[5] = {};
  double reform_ms = 0.0;  ///< total virtual time in Totem reformations
  std::string chrome_json;
  std::vector<eternal::util::Bytes> giop_corpus;   ///< ORB→interceptor messages
  std::vector<eternal::util::Bytes> frame_corpus;  ///< frames at TotemNode::on_frame
  eternal::core::RingPlacementConfig placement;
};

struct RunResult {
  std::vector<Duration> open_loop;  ///< open-loop latencies, from the due instant
  std::vector<Duration> light;      ///< closed-loop packet-driver latencies
  std::vector<Duration> recoveries;  ///< launch → operational with backlog drained
  std::vector<Duration> outages;     ///< longest reply gap per fault
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t completed = 0;  ///< client ops completed in the measured window
  Counts counts;
  GiopSizes giop;
  std::vector<std::string> violations;
  double plain_p50_us = 0.0;  ///< same packet driver, unreplicated IIOP

  // Host measurements (not part of the signature).
  double setup_cpu_s = 0.0;
  double measured_cpu_s = 0.0;
  std::uint64_t measured_allocs = 0;
  SeamTotals seams[static_cast<std::size_t>(Seam::kCount)] = {};
  std::int64_t sim_incl_ns = 0;  ///< wall time spent running the simulator
  std::unique_ptr<TraceOutputs> trace;

  /// Hash of every virtual output and count.
  std::uint64_t signature() const;
};

struct ProbeResult {
  double p99_us = 0.0;
  std::uint64_t sent = 0;
  std::uint64_t in_flight = 0;  ///< still unanswered when the load stops
  double setup_cpu_s = 0.0;
};

struct WorkloadSpec {
  const char* name;
  RunResult (*run)(const RunOptions&);
  /// Fault-free probe of the workload's open-loop mix at `rate` ops/s.
  ProbeResult (*probe)(double rate, const RunOptions&);
  /// Set-up alone; returns its host CPU seconds.
  double (*setup)(const RunOptions&);
};

/// nullptr for an unknown name.
const WorkloadSpec* find_workload(std::string_view name);

}  // namespace perfbench
