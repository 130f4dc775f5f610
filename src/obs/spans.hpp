// Causal span tracing + recovery-phase profiling, layered on obs::Recorder.
//
// A *span* is a named interval of virtual time attributed to one node and one
// layer; spans form parent/child trees grouped by a *trace id*. Two producers
// feed the store:
//
//   - the invocation path: each client invocation captured by the Interceptor
//     gets a trace id derived from its operation identifier (client group,
//     server group, op_seq; see derived_trace_id), which every later hop
//     re-derives from the envelope it handles — nothing rides on the wire —
//     and grows the tree
//       invocation → order-wait → deliver@replica → execute → reply
//     as the message moves through Totem ordering, replica delivery,
//     duplicate suppression and the reply path;
//   - the RecoveryProfiler: one root span per recovery with a child span per
//     Figure-5 phase (fault detection, quiesce window, get_state, fragmented
//     state transfer, set_state, message replay), the phases partitioning
//     the root exactly.
//
// A span carries the same typed Fields as a trace event (trace.hpp): set when
// it opens, extended when it ends (a reformation's closing view, a crashed
// or covered marker). The store is a bounded ring like TraceBuffer: the
// oldest spans are evicted (and counted) when full, and ending an evicted
// span is a no-op. Exports are deterministic — same seed, byte-identical
// JSON — in both the native schema (consumed by the FlightRecorder) and
// Chrome trace_event format, loadable in chrome://tracing or Perfetto
// (ui.perfetto.dev); both render the fields as the "k=v" detail text.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/invariants.hpp"
#include "obs/trace.hpp"
#include "util/ids.hpp"
#include "util/time.hpp"

namespace eternal::obs {

/// Span / trace identifiers; 0 means "none". Allocated centrally by the
/// SpanStore so allocation order follows the deterministic event order.
using SpanId = std::uint64_t;
using TraceId = std::uint64_t;

/// Deterministic trace id for a replicated invocation, minted from
/// (client group, server group, op_seq). Every replica of an actively
/// replicated client derives the *same* id for the same logical invocation,
/// so the duplicates' captures join one span tree (begin_named collapses
/// them) instead of each replica opening its own root that nobody closes.
/// The top bit is always set, so derived ids never collide with
/// SpanStore::new_trace()'s sequential ids.
TraceId derived_trace_id(util::GroupId client, util::GroupId server,
                         std::uint64_t op_seq) noexcept;

/// One span. `name` must reference a string literal (the store keeps the
/// view, not a copy — same contract as TraceEvent::kind).
struct Span {
  SpanId id = 0;
  SpanId parent = 0;   ///< 0 for roots
  TraceId trace = 0;   ///< 0 for infrastructure spans outside any invocation
  std::string_view name;
  Layer layer = Layer::kSim;
  util::NodeId node{};
  util::TimePoint start{};
  util::TimePoint end{};
  bool open = true;
  bool instant = false;  ///< zero-duration marker, see SpanStore::instant()
  Fields fields;         ///< opening fields, then those end() appended
};

class SpanStore;

/// Profiles the paper's Figure-5 six-step recovery protocol. Each hook marks
/// a phase boundary on the recovering replica's timeline (the virtual clock
/// is global, so source-side boundaries are directly comparable):
///
///   launched        (§5.1 start)  the replica process re-launched
///   announced       the kAddReplica control delivered — the group agreed
///                   the replica exists and retrieval coordination begins
///   quiescent       the state source reached quiescence and dispatched the
///                   fabricated get_state() (§5.1(ii)-(iii))
///   state_captured  the source captured the state and fabricated the
///                   set_state() (§5.1(iii)-(iv))
///   state_delivered the fragmented set_state finished its ring transit and
///                   was delivered at the recovering replica (§5.1(v))
///   state_applied   set_state() returned; enqueued-message replay begins
///   (drain)         replay ends when the last message enqueued during
///                   recovery is handed to the ORB (§5.1(vi))
///
/// Phases are contiguous, so the six child spans partition the root span
/// exactly: their durations sum to the root's duration by construction.
/// Out-of-order or repeated boundary reports (a retried get_state after a
/// source died, a second source publishing the same epoch) are ignored; a
/// recovery that never completes all boundaries is never emitted.
class RecoveryProfiler {
 public:
  struct PhaseBreakdown {
    util::GroupId group{};
    util::ReplicaId replica{};
    util::NodeId node{};
    util::TimePoint launched_at{};
    util::Duration fault_detection{};  ///< launched → announced
    util::Duration quiesce{};          ///< announced → quiescent
    util::Duration get_state{};        ///< quiescent → state_captured
    util::Duration state_transfer{};   ///< state_captured → state_delivered
    util::Duration set_state{};        ///< state_delivered → state_applied
    util::Duration replay{};           ///< state_applied → drained
    std::size_t state_bytes = 0;
    util::Duration total() const {
      return fault_detection + quiesce + get_state + state_transfer + set_state + replay;
    }
  };

  void launched(util::GroupId group, util::ReplicaId replica, util::NodeId node,
                util::TimePoint at);
  void announced(util::GroupId group, util::ReplicaId replica, util::TimePoint at);
  void quiescent(util::GroupId group, util::ReplicaId subject, util::TimePoint at);
  void state_captured(util::GroupId group, util::ReplicaId subject, util::TimePoint at,
                      std::size_t state_bytes);
  /// One kStateChunk slice of an in-progress chunked transfer delivered:
  /// emits a zero-duration "state-chunk" event inside the state-transfer
  /// phase (no stage advance — that happens at the reassembled delivery).
  void chunk_arrived(util::GroupId group, util::ReplicaId subject, util::TimePoint at,
                     std::uint32_t index, std::uint32_t count, std::size_t bytes);
  /// Out-of-band bulk transfer: splits the state-transfer phase into
  /// contiguous sub-spans. The descriptor's arrival at the recoverer closes a
  /// retroactive "descriptor-wait" (opened at state_captured time) and opens
  /// "bulk-stream"; the last verified extent closes it and opens
  /// "marker-wait", which state_delivered() closes at the ordered marker.
  void bulk_descriptor(util::GroupId group, util::ReplicaId subject, util::TimePoint at,
                       std::uint32_t extents, std::size_t total_bytes);
  /// One verified lane extent: zero-duration "bulk-extent" event.
  void bulk_extent(util::GroupId group, util::ReplicaId subject, util::TimePoint at,
                   std::uint32_t index, std::uint32_t count, std::size_t bytes);
  void bulk_streamed(util::GroupId group, util::ReplicaId subject, util::TimePoint at);
  void state_delivered(util::GroupId group, util::ReplicaId subject, util::TimePoint at);
  /// `replay_backlog`: messages enqueued during recovery still pending. When
  /// zero the replay phase closes immediately (zero duration).
  void state_applied(util::GroupId group, util::ReplicaId subject, util::TimePoint at,
                     std::size_t replay_backlog);
  /// One backlog message handed to the ORB; closes the recovery when the
  /// backlog reported by state_applied() is drained.
  void replayed_one(util::GroupId group, util::ReplicaId replica, util::TimePoint at);

  /// Breakdowns of every recovery that completed all phases, in completion
  /// order.
  const std::vector<PhaseBreakdown>& completed() const noexcept { return completed_; }

 private:
  friend class SpanStore;
  explicit RecoveryProfiler(SpanStore& store) : store_(store) {}

  /// Boundary cursor: which hook the recovery expects next.
  enum class Stage { kAnnounced, kQuiescent, kCaptured, kDelivered, kApplied, kDraining };

  struct Active {
    Stage stage = Stage::kAnnounced;
    util::NodeId node{};
    util::TimePoint at[6] = {};  ///< boundary times: launched .. applied
    std::size_t replay_left = 0;
    std::size_t state_bytes = 0;
    TraceId trace = 0;
    SpanId root = 0;
    SpanId phase = 0;  ///< currently open phase child span
    SpanId bulk_sub = 0;  ///< open bulk sub-span inside state-transfer
    util::TimePoint bulk_mark{};  ///< current bulk sub-span's start time
  };

  Active* find(util::GroupId group, util::ReplicaId replica, Stage expect);
  void next_phase(Active& a, std::string_view name, util::TimePoint at,
                  const Fields& fields = {});
  void finish(util::GroupId group, util::ReplicaId replica, Active& a, util::TimePoint at);

  SpanStore& store_;
  std::map<std::pair<std::uint32_t, std::uint64_t>, Active> active_;
  std::vector<PhaseBreakdown> completed_;
};

/// Bounded span ring + deterministic exporters. Attach to a Recorder via
/// attach_spans(); call sites gate on Recorder::spans() != nullptr, so a
/// detached system pays one pointer test. Attaching it changes what is
/// observed, never what is sent.
class SpanStore {
 public:
  explicit SpanStore(std::size_t capacity);

  TraceId new_trace() noexcept { return next_trace_++; }

  /// Opens a span. `name` must be a string literal.
  SpanId begin(TraceId trace, SpanId parent, util::NodeId node, Layer layer,
               std::string_view name, util::TimePoint at, const Fields& fields = {});

  /// begin() + registration under (trace, name) so another node can close or
  /// re-find the span later. If the pair is already registered and live, the
  /// existing span id is returned and no new span opens — N active replicas
  /// racing to start the same logical phase collapse to one span.
  SpanId begin_named(TraceId trace, SpanId parent, util::NodeId node, Layer layer,
                     std::string_view name, util::TimePoint at, const Fields& fields = {});

  /// Live span registered under (trace, name); 0 when absent or evicted.
  SpanId find_named(TraceId trace, std::string_view name) const;

  /// Closes a span; no-op (returns false) when the id was evicted or already
  /// closed. `extra` is appended to the span's fields.
  bool end(SpanId id, util::TimePoint at, const Fields& extra = {});

  /// Closes the span registered under (trace, name) and unregisters it.
  /// First close wins: replicas racing to close the same logical phase
  /// produce exactly one end time (the earliest delivery).
  bool end_named(TraceId trace, std::string_view name, util::TimePoint at);

  /// Zero-duration marker (duplicate suppressions, discards).
  void instant(TraceId trace, util::NodeId node, Layer layer, std::string_view name,
               util::TimePoint at, const Fields& fields = {});

  std::size_t capacity() const noexcept { return capacity_; }
  std::size_t size() const noexcept { return ring_.size(); }
  /// Spans ever opened, including evicted ones.
  std::uint64_t total() const noexcept { return total_; }
  std::uint64_t dropped() const noexcept { return total_ - ring_.size(); }

  /// Distinct traces whose tree the ring eviction broke: a surviving span
  /// references a parent that is no longer in the store. Consumers (the
  /// critical-path analyzer, the Chrome export) would otherwise silently
  /// undercount those trees; both exports carry this next to dropped().
  std::uint64_t partial_traces() const;

  /// Surviving spans, oldest first.
  std::vector<Span> snapshot() const;

  /// Native JSON: {"capacity","total","dropped","spans":[...]} oldest first.
  std::string to_json() const;

  /// Chrome trace_event JSON ({"displayTimeUnit","traceEvents":[...]}),
  /// loadable in chrome://tracing and Perfetto. pid = node, tid = trace id;
  /// closed spans are complete ("X") events, open spans begin ("B") events,
  /// instants "i" events; timestamps are microseconds with the nanosecond
  /// remainder as a fixed 3-digit fraction, formatted by integer arithmetic
  /// so same-seed runs export byte-identical documents.
  std::string to_chrome_json() const;

  RecoveryProfiler& recovery() noexcept { return recovery_; }
  const RecoveryProfiler& recovery() const noexcept { return recovery_; }

 private:
  SpanId push(const Span& s);
  Span* find(SpanId id);

  std::size_t capacity_;
  std::vector<Span> ring_;
  std::size_t head_ = 0;  // index of the oldest span once the ring wrapped
  std::uint64_t total_ = 0;
  std::unordered_map<std::uint64_t, std::size_t> slot_;  // span id → ring index
  std::map<std::pair<TraceId, std::string_view>, SpanId> named_;
  SpanId next_span_ = 1;
  TraceId next_trace_ = 1;
  RecoveryProfiler recovery_{*this};
};

/// Post-mortem dump of the last N spans and trace events, written when the
/// InvariantChecker fires inside a test (see tests/support/invariant_helpers.hpp).
/// Either source may be null; the dump records what was attached.
class FlightRecorder {
 public:
  FlightRecorder(const TraceBuffer* trace, const SpanStore* spans,
                 std::size_t last_n = 512)
      : trace_(trace), spans_(spans), last_n_(last_n) {}

  /// Embeds the violations that triggered this dump: the JSON gains a
  /// "violations" array (rule, message, event_index, phase), so a flight
  /// file is self-describing — the offending event index and the FOM phase
  /// it was executing in travel with the stream excerpt.
  void attach_violations(std::vector<Violation> violations) {
    violations_ = std::move(violations);
  }

  /// {"flight_recorder":{...},"violations":[...],"events":[last N],
  ///  "spans":[last N]}.
  std::string to_json() const;

  /// to_json() + write to `path`. Returns whether the write succeeded.
  bool write_file(const std::string& path) const;

  /// Collision-free dump path: the first request for `base` in this process
  /// returns it unchanged; every repeat returns "<stem>.<run>.<ext>"
  /// ("flight_chaos_x.json", "flight_chaos_x.2.json", ...). Scenarios run
  /// twice in one process (reruns, parameter sweeps) no longer overwrite
  /// their earlier dump.
  static std::string unique_path(const std::string& base);

 private:
  const TraceBuffer* trace_;
  const SpanStore* spans_;
  std::size_t last_n_;
  std::vector<Violation> violations_;
};

}  // namespace eternal::obs
