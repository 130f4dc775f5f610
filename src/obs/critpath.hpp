// Critical-path latency attribution over the span store.
//
// The invocation span tree (see spans.hpp) records every hop of a replicated
// two-way invocation. This module walks those trees *post hoc* and decomposes
// each invocation's wall time into exact, non-overlapping segments along the
// winning replica's path — the replica whose reply completed the invocation:
//
//   client-capture  invocation root open → order-wait open (same interceptor
//                   instant today; kept explicit so the partition is total)
//   order-wait      Totem token/batch residency: capture → first agreed
//                   delivery anywhere in the group
//   delivery        first delivery → the winning replica pops the item to the
//                   queue front ("deliver" span: ring skew + queue-behind wait)
//   admission       front of queue → admission slot free ("admit-wait"
//                   span; 0 when a slot was free on arrival at the front)
//   decode          FOM kDecode residency ("fom-decode" marker)
//   execute         servant execution ("execute" span)
//   log             FOM kLog residency ("fom-log" marker)
//   reply-park      in-order reply sequencer parking: reply built → emitted
//                   at its total-order position ("reply-park" span; 0 at
//                   admission concurrency 1 and for in-order completions)
//   reply-wire      reply multicast → first delivery at the client ("reply")
//   residual        end-to-end minus everything above: whatever the spans do
//                   not cover (ring skew between the first-delivering and the
//                   winning node, mainly). Reported, never hidden — segments
//                   plus residual sum to the end-to-end latency *exactly*.
//
// Trees with evicted or still-open pieces are counted and skipped, never
// silently folded into the aggregates. A fixed-window collector aggregates
// breakdowns into virtual-time windows (throughput + p50/p95/p99 per
// segment) so attribution is reported per load level, not just in aggregate.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string_view>
#include <vector>

#include "obs/spans.hpp"
#include "util/ids.hpp"
#include "util/time.hpp"

namespace eternal::obs::critpath {

enum class Segment : std::size_t {
  kClientCapture = 0,
  kOrderWait,
  kDelivery,
  kAdmission,
  kDecode,
  kExecute,
  kLog,
  kReplyPark,
  kReplyWire,
  kResidual,
};

inline constexpr std::size_t kSegmentCount = 10;

std::string_view to_string(Segment s) noexcept;

constexpr std::array<Segment, kSegmentCount> all_segments() noexcept {
  return {Segment::kClientCapture, Segment::kOrderWait, Segment::kDelivery,
          Segment::kAdmission,     Segment::kDecode,    Segment::kExecute,
          Segment::kLog,           Segment::kReplyPark, Segment::kReplyWire,
          Segment::kResidual};
}

/// One analyzed invocation: where its wall time went.
struct Breakdown {
  TraceId trace = 0;
  util::NodeId winner{};     ///< node whose reply completed the invocation
  util::TimePoint start{};   ///< client capture (invocation root open)
  util::TimePoint end{};     ///< reply delivered at the client (root close)
  std::array<util::Duration, kSegmentCount> seg{};

  util::Duration operator[](Segment s) const noexcept {
    return seg[static_cast<std::size_t>(s)];
  }
  util::Duration end_to_end() const noexcept { return end - start; }
  /// Sum over every segment, residual included. Equals end_to_end() by
  /// construction; the conformance test asserts it to the tick.
  util::Duration sum() const noexcept;
};

/// Everything analyze() learned from one span snapshot.
struct Report {
  std::vector<Breakdown> invocations;  ///< completion order (end, then trace)
  std::uint64_t partial_traces = 0;  ///< invocation trees skipped: piece evicted
  std::uint64_t inflight_traces = 0;  ///< skipped: root still open at snapshot
  std::uint64_t dropped_spans = 0;    ///< store-level ring evictions
};

/// Walks every invocation tree in the snapshot. Non-invocation trees
/// (recovery profiles, Totem infrastructure spans) are ignored.
Report analyze(const std::vector<Span>& spans, std::uint64_t dropped_spans = 0);
Report analyze(const SpanStore& store);

/// Exact-sample aggregate of one segment (or of end-to-end latency) over a
/// set of breakdowns; percentiles are nearest-rank like workload::LatencyProfile.
struct SegStats {
  std::uint64_t count = 0;
  util::Duration mean{};
  util::Duration p50{};
  util::Duration p95{};
  util::Duration p99{};
};

SegStats aggregate(std::vector<util::Duration> samples);

/// Fixed virtual-time windows over breakdown completion times: per window,
/// throughput plus SegStats for end-to-end and for every segment. Windows
/// with no completions are omitted (their throughput is zero by definition).
class Windows {
 public:
  explicit Windows(util::Duration width);

  void add(const Breakdown& b);

  struct Window {
    std::uint64_t index = 0;      ///< floor(end / width)
    util::TimePoint start{};      ///< index * width
    std::uint64_t count = 0;
    double throughput_per_s = 0.0;
    SegStats end_to_end;
    std::array<SegStats, kSegmentCount> seg;
  };

  /// Ascending by window index; recomputed on each call.
  std::vector<Window> stats() const;

  util::Duration width() const noexcept { return width_; }

 private:
  util::Duration width_;
  std::map<std::uint64_t, std::vector<Breakdown>> buckets_;
};

}  // namespace eternal::obs::critpath
