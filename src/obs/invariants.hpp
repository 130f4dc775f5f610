// Trace-driven invariant checker.
//
// Replays a run's TraceEvent stream and asserts the cross-layer safety
// properties the paper's recovery machinery depends on:
//
//   1. order-agreement / delivery-gap — all operational members of a ring
//      deliver the same frames in the same gap-free sequence; a node may
//      only skip sequence numbers across a membership install (paper §2,
//      Totem agreed delivery).
//   2. duplicate-op — no (client group, operation sequence) pair is
//      delivered twice to the same servant incarnation (paper §2.1 / §4.3
//      duplicate suppression).
//   3. multi-primary — passive-style groups never have two concurrently
//      operational primaries (paper §3.2).
//   4. replay-order — operations a replica executes appear in the same
//      relative order they were enqueued; after set_state() the replayed
//      log is injected in the recorded total order (paper §5.1).
//
// The checker is pure: it consumes a snapshot and returns violations, so
// tests can attach it to any scenario (see tests/support/invariant_helpers.hpp).
// It reads each event's typed fields (node, ring, group, replica, client,
// op_seq ids) and keys its state by those integers.
#pragma once

#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace eternal::obs {

struct Violation {
  /// event_index value for violations not tied to one event
  /// (e.g. "trace-dropped").
  static constexpr std::size_t kNoIndex = static_cast<std::size_t>(-1);

  std::string rule;     ///< e.g. "delivery-gap", "duplicate-op"
  std::string message;  ///< human-readable context (node, time, ids)
  /// Index into the checked event snapshot of the event that tripped the
  /// rule; lets reports show the surrounding stream (report_with_context).
  std::size_t event_index = kNoIndex;
  /// Execution phase of the offending operation: the FOM phase recorded at
  /// injection ("decode"/"execute"/...). Empty when the rule has no
  /// per-operation context. Replay-order violations always set this, so an
  /// execution/delivery interleaving bug names the phase it surfaced in.
  std::string phase;
};

class InvariantChecker {
 public:
  /// Checks `events` (oldest first) against all invariants.
  static std::vector<Violation> check(const std::vector<TraceEvent>& events);

  /// Convenience: snapshots `trace` and checks it. A buffer that dropped
  /// events yields a "trace-dropped" violation — the checker cannot vouch
  /// for a stream with holes — so size test buffers generously.
  static std::vector<Violation> check(const TraceBuffer& trace);

  /// One line per violation; empty string when `violations` is empty.
  static std::string report(const std::vector<Violation>& violations);

  /// report() plus, for every violation with an event_index, the `radius`
  /// trace events on either side of the offending one (marked with ">>>"),
  /// so a failing assertion shows *where in the stream* the rule broke.
  static std::string report_with_context(const std::vector<Violation>& violations,
                                         const std::vector<TraceEvent>& events,
                                         std::size_t radius = 3);
};

}  // namespace eternal::obs
