// Structured trace-event stream + the Recorder handle threaded through the
// Simulator.
//
// Every layer (Totem, Mechanisms, ORB) appends semantic events —
// deliveries, view installs, duplicate suppressions, state-transfer steps —
// to one ring buffer stamped with the virtual clock. An event's context is a
// short inline list of typed Fields (a key literal plus a u64, text or
// ratio value), kept in call-site order; nothing is formatted when the
// event is recorded. The stream is the input to the InvariantChecker (see
// invariants.hpp), which reads the fields directly, and exports to JSON for
// offline inspection: the exporters are the one place that renders fields
// as the "k=v k=v" detail text. Because the simulation is deterministic,
// two runs with the same seed produce byte-identical streams;
// determinism_test asserts exactly that.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "obs/metrics.hpp"
#include "util/ids.hpp"
#include "util/time.hpp"

namespace eternal::obs {

enum class Layer : std::uint8_t { kSim = 0, kTotem = 1, kMech = 2, kOrb = 3 };

class SpanStore;  // spans.hpp — causal span trees layered on the Recorder

std::string_view to_string(Layer layer);

/// One typed context field: a key literal plus a u64, a text, or a ratio
/// rendered "num/den" (chunk=3/8). Text must outlive the trace — a literal,
/// or a name interned by TraceBuffer::intern. A default Field is absent and
/// Fields skips it, so a conditional field is `when(cond, {"key", value})`.
class Field {
 public:
  enum class Kind : std::uint8_t { kAbsent, kU64, kText, kRatio };

  Field() = default;
  template <std::size_t N, typename T>
    requires std::is_integral_v<T>
  Field(const char (&key)[N], T value) noexcept : Field(key, Kind::kU64) {
    num_ = static_cast<std::uint64_t>(value);
  }
  template <std::size_t N, std::size_t M>
  Field(const char (&key)[N], const char (&text)[M]) noexcept
      : Field(text_field(key, std::string_view(text, M - 1))) {}
  /// Text that is not a literal at the call site (see the class comment).
  template <std::size_t N>
  static Field text_field(const char (&key)[N], std::string_view text) noexcept {
    Field f(key, Kind::kText);
    f.text_ = text.data();
    f.aux_ = static_cast<std::uint32_t>(text.size());
    return f;
  }
  template <std::size_t N>
  static Field ratio(const char (&key)[N], std::uint64_t num, std::uint32_t den) noexcept {
    Field f(key, Kind::kRatio);
    f.num_ = num;
    f.aux_ = den;
    return f;
  }

  Kind kind() const noexcept { return kind_; }
  std::string_view key() const noexcept { return {key_, key_len_}; }
  /// The u64 value, or a ratio's numerator.
  std::uint64_t num() const noexcept { return kind_ == Kind::kText ? 0 : num_; }
  std::uint32_t den() const noexcept { return kind_ == Kind::kRatio ? aux_ : 0; }
  std::string_view text() const noexcept {
    return kind_ == Kind::kText ? std::string_view(text_, aux_) : std::string_view();
  }

 private:
  template <std::size_t N>
  Field(const char (&key)[N], Kind kind) noexcept : key_(key), key_len_(N - 1), kind_(kind) {}

  const char* key_ = nullptr;
  union {
    std::uint64_t num_ = 0;
    const char* text_;
  };
  std::uint32_t aux_ = 0;  ///< text length, or ratio denominator
  std::uint8_t key_len_ = 0;
  Kind kind_ = Kind::kAbsent;
};

inline Field when(bool present, Field field) noexcept { return present ? field : Field(); }

/// Fixed-capacity inline list of Fields in insertion order; records and
/// copies without touching the heap.
class Fields {
 public:
  static constexpr std::size_t kCapacity = 6;

  Fields() = default;
  Fields(std::initializer_list<Field> fields) {
    for (const Field& f : fields) push(f);
  }

  /// Appends `f` unless it is absent; throws std::length_error past
  /// kCapacity (a producer bug, caught by any traced test).
  void push(const Field& f);

  const Field* begin() const noexcept { return items_; }
  const Field* end() const noexcept { return items_ + size_; }
  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }

  /// First field named `key`, or null.
  const Field* find(std::string_view key) const noexcept;
  bool has(std::string_view key) const noexcept { return find(key) != nullptr; }
  /// num() of `key`, or `absent` when the field is missing.
  std::uint64_t num(std::string_view key, std::uint64_t absent = 0) const noexcept {
    const Field* f = find(key);
    return f ? f->num() : absent;
  }
  /// text() of `key`; empty when missing.
  std::string_view text(std::string_view key) const noexcept {
    const Field* f = find(key);
    return f ? f->text() : std::string_view();
  }

 private:
  Field items_[kCapacity];
  std::uint8_t size_ = 0;
};

/// "k1=v1 k2=v2": the detail text the JSON exporters write for `fields`.
std::string render(const Fields& fields);

/// One semantic event. `kind` must reference a string literal (the buffer
/// stores the view, not a copy).
struct TraceEvent {
  util::TimePoint sim_time{};
  util::NodeId node{};
  Layer layer = Layer::kSim;
  std::string_view kind;
  std::uint64_t seq = 0;
  Fields fields;
};

class JsonWriter;

/// Writes one event as a JSON object; `index` (when given) comes first.
void event_to_json(JsonWriter& w, const TraceEvent& ev,
                   std::optional<std::uint64_t> index = std::nullopt);

/// Bounded ring of TraceEvents. When full, the oldest events are dropped
/// (and counted); snapshot() returns the surviving events oldest-first.
class TraceBuffer {
 public:
  explicit TraceBuffer(std::size_t capacity);

  void push(const TraceEvent& ev);

  std::size_t capacity() const noexcept { return capacity_; }
  /// Events currently held (<= capacity).
  std::size_t size() const noexcept { return ring_.size(); }
  /// Events ever pushed, including dropped ones.
  std::uint64_t total() const noexcept { return total_; }
  std::uint64_t dropped() const noexcept { return total_ - ring_.size(); }

  /// Surviving events, oldest first.
  std::vector<TraceEvent> snapshot() const;
  void clear();

  /// JSON array of events (oldest first) wrapped with buffer stats.
  std::string to_json() const;

  /// A stable copy of a run-time name (ChaosScript scenario and action
  /// names) for a text Field: stored once per distinct name and kept for
  /// the buffer's lifetime, so the view outlives the caller's string.
  std::string_view intern(std::string_view name);

 private:
  std::size_t capacity_;
  std::vector<TraceEvent> ring_;
  std::size_t head_ = 0;  // index of oldest event once the ring has wrapped
  std::uint64_t total_ = 0;
  std::set<std::string, std::less<>> interned_;
};

/// The handle the Simulator hands to every layer. Cheap when detached:
/// tracing() is one pointer test, and counter() returns a shared sink
/// instrument so call sites cache a reference once and never branch.
///
/// record() takes its fields inline and drops them when detached, so call
/// sites need no guard unless computing a field is itself costly:
///   rec.record(node, Layer::kTotem, "deliver", f.seq, {{"ring", id}, ...});
class Recorder {
 public:
  void attach_metrics(MetricsRegistry* metrics) noexcept { metrics_ = metrics; }
  void attach_trace(TraceBuffer* trace) noexcept { trace_ = trace; }
  /// Attaches the causal span store (spans.hpp). Like metrics/trace it only
  /// observes: every layer derives trace ids from what it already handles,
  /// so wire traffic is byte-identical with or without a store.
  void attach_spans(SpanStore* spans) noexcept { spans_ = spans; }
  /// Binds the virtual clock; the Simulator points this at its `now_`.
  void bind_clock(const util::TimePoint* now) noexcept { clock_ = now; }

  bool tracing() const noexcept { return trace_ != nullptr; }
  util::TimePoint now() const noexcept {
    return clock_ ? *clock_ : util::TimePoint{};
  }

  /// The list becomes the event's Fields only when a buffer is attached.
  void record(util::NodeId node, Layer layer, std::string_view kind,
              std::uint64_t seq, std::initializer_list<Field> fields = {}) {
    if (!trace_) return;
    trace_->push(TraceEvent{now(), node, layer, kind, seq, Fields(fields)});
  }

  /// TraceBuffer::intern when a trace is attached (else `name` itself:
  /// record() would drop the event anyway).
  std::string_view intern(std::string_view name) {
    return trace_ ? trace_->intern(name) : name;
  }

  /// Returns the named instrument, or a process-wide sink when no registry
  /// is attached — so hot paths can cache `Counter&` unconditionally.
  Counter& counter(std::string_view name) {
    return metrics_ ? metrics_->counter(name) : sink_counter();
  }
  Gauge& gauge(std::string_view name) {
    return metrics_ ? metrics_->gauge(name) : sink_gauge();
  }
  Histogram& histogram(std::string_view name,
                       std::vector<std::uint64_t> bounds = {}) {
    return metrics_ ? metrics_->histogram(name, std::move(bounds))
                    : sink_histogram();
  }

  MetricsRegistry* metrics() const noexcept { return metrics_; }
  TraceBuffer* trace() const noexcept { return trace_; }
  SpanStore* spans() const noexcept { return spans_; }

 private:
  static Counter& sink_counter();
  static Gauge& sink_gauge();
  static Histogram& sink_histogram();

  MetricsRegistry* metrics_ = nullptr;
  TraceBuffer* trace_ = nullptr;
  SpanStore* spans_ = nullptr;
  const util::TimePoint* clock_ = nullptr;
};

}  // namespace eternal::obs
