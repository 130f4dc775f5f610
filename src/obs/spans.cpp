#include "obs/spans.hpp"

#include <cstdio>
#include <set>

#include "obs/json.hpp"

namespace eternal::obs {
namespace {

/// Formats virtual-clock nanoseconds as microseconds with a fixed 3-digit
/// fraction ("1234.056"). Chrome trace_event timestamps are microseconds;
/// integer arithmetic keeps same-seed exports byte-identical, which
/// double-formatting would not guarantee.
std::string us_fixed(std::int64_t ns) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%lld.%03lld",
                static_cast<long long>(ns / 1000),
                static_cast<long long>(ns % 1000));
  return std::string(buf);
}

void span_to_json(JsonWriter& w, const Span& s) {
  w.begin_object();
  w.field("id", s.id);
  w.field("parent", s.parent);
  w.field("trace", s.trace);
  w.field("name", s.name);
  w.field("layer", to_string(s.layer));
  w.field("node", static_cast<std::uint64_t>(s.node.value));
  w.field("start", static_cast<std::uint64_t>(s.start.count()));
  w.field("end", static_cast<std::uint64_t>(s.end.count()));
  w.field("open", s.open);
  if (s.instant) w.field("instant", true);
  w.field("detail", std::string_view(render(s.fields)));
  w.end_object();
}

}  // namespace

TraceId derived_trace_id(util::GroupId client, util::GroupId server,
                         std::uint64_t op_seq) noexcept {
  // FNV-1a over the identifying triple; any replica of the client group
  // computes the same id for the same logical invocation.
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xFF;
      h *= 1099511628211ULL;
    }
  };
  mix(client.value);
  mix(server.value);
  mix(op_seq);
  return h | (std::uint64_t{1} << 63);  // disjoint from new_trace()'s ids
}

// ---------------------------------------------------------------- SpanStore

SpanStore::SpanStore(std::size_t capacity) : capacity_(capacity) {
  if (capacity_ == 0) capacity_ = 1;
}

SpanId SpanStore::push(const Span& s) {
  ++total_;
  const SpanId id = s.id;
  if (ring_.size() < capacity_) {
    slot_[id] = ring_.size();
    ring_.push_back(s);
    return id;
  }
  slot_.erase(ring_[head_].id);  // evict the oldest span, open or not
  slot_[id] = head_;
  ring_[head_] = s;
  head_ = (head_ + 1) % capacity_;
  return id;
}

Span* SpanStore::find(SpanId id) {
  auto it = slot_.find(id);
  return it == slot_.end() ? nullptr : &ring_[it->second];
}

SpanId SpanStore::begin(TraceId trace, SpanId parent, util::NodeId node, Layer layer,
                        std::string_view name, util::TimePoint at, const Fields& fields) {
  Span s;
  s.id = next_span_++;
  s.parent = parent;
  s.trace = trace;
  s.name = name;
  s.layer = layer;
  s.node = node;
  s.start = at;
  s.end = at;
  s.fields = fields;
  return push(s);
}

SpanId SpanStore::begin_named(TraceId trace, SpanId parent, util::NodeId node,
                              Layer layer, std::string_view name, util::TimePoint at,
                              const Fields& fields) {
  const auto key = std::make_pair(trace, name);
  auto it = named_.find(key);
  if (it != named_.end()) {
    if (slot_.count(it->second) != 0) return it->second;
    named_.erase(it);  // registered span was evicted; start over
  }
  const SpanId id = begin(trace, parent, node, layer, name, at, fields);
  named_[key] = id;
  return id;
}

SpanId SpanStore::find_named(TraceId trace, std::string_view name) const {
  auto it = named_.find(std::make_pair(trace, name));
  return it == named_.end() ? 0 : it->second;
}

bool SpanStore::end(SpanId id, util::TimePoint at, const Fields& extra) {
  Span* s = find(id);
  if (s == nullptr || !s->open) return false;
  s->open = false;
  s->end = at;
  for (const Field& f : extra) s->fields.push(f);
  return true;
}

bool SpanStore::end_named(TraceId trace, std::string_view name, util::TimePoint at) {
  auto it = named_.find(std::make_pair(trace, name));
  if (it == named_.end()) return false;
  const SpanId id = it->second;
  named_.erase(it);
  return end(id, at);
}

void SpanStore::instant(TraceId trace, util::NodeId node, Layer layer,
                        std::string_view name, util::TimePoint at, const Fields& fields) {
  const SpanId id = begin(trace, 0, node, layer, name, at, fields);
  if (Span* s = find(id)) {
    s->open = false;
    s->instant = true;
  }
}

std::vector<Span> SpanStore::snapshot() const {
  std::vector<Span> out;
  out.reserve(ring_.size());
  for (std::size_t i = 0; i < ring_.size(); ++i)
    out.push_back(ring_[(head_ + i) % ring_.size()]);
  return out;
}

std::uint64_t SpanStore::partial_traces() const {
  std::set<TraceId> partial;
  for (const Span& s : ring_) {
    if (s.parent != 0 && s.trace != 0 && slot_.count(s.parent) == 0) {
      partial.insert(s.trace);
    }
  }
  return partial.size();
}

std::string SpanStore::to_json() const {
  JsonWriter w;
  w.begin_object();
  w.field("capacity", static_cast<std::uint64_t>(capacity_));
  w.field("total", total_);
  w.field("dropped", dropped());
  w.field("dropped_spans", dropped());
  w.field("partial_traces", partial_traces());
  w.key("spans");
  w.begin_array();
  for (const Span& s : snapshot()) span_to_json(w, s);
  w.end_array();
  w.end_object();
  return std::move(w).take();
}

std::string SpanStore::to_chrome_json() const {
  const std::vector<Span> spans = snapshot();

  JsonWriter w;
  w.begin_object();
  w.field("displayTimeUnit", "ms");
  w.key("traceEvents");
  w.begin_array();

  // Store-health metadata first: viewers ignore unknown "M" events, but a
  // consumer can read how many spans the ring evicted and how many trace
  // trees that eviction left partial (the window undercounts those trees).
  w.begin_object();
  w.field("name", "span_store");
  w.field("ph", "M");
  w.field("pid", std::uint64_t{0});
  w.key("args");
  w.begin_object();
  w.field("dropped_spans", dropped());
  w.field("partial_traces", partial_traces());
  w.end_object();
  w.end_object();

  // Process metadata next: one named row per node, sorted by id.
  std::map<std::uint32_t, bool> pids;
  for (const Span& s : spans) pids[s.node.value] = true;
  for (const auto& [pid, unused] : pids) {
    (void)unused;
    w.begin_object();
    w.field("name", "process_name");
    w.field("ph", "M");
    w.field("pid", static_cast<std::uint64_t>(pid));
    w.key("args");
    w.begin_object();
    w.field("name", "node-" + std::to_string(pid));
    w.end_object();
    w.end_object();
  }

  for (const Span& s : spans) {
    const std::int64_t start_ns = s.start.count();
    const std::int64_t dur_ns = (s.end - s.start).count();
    const bool is_instant = s.instant;
    w.begin_object();
    w.field("name", s.name);
    w.field("cat", to_string(s.layer));
    // Closed spans are complete ("X") events; open spans are begin ("B")
    // events, which Perfetto auto-terminates at the end of the trace.
    w.field("ph", s.open ? "B" : (is_instant ? "i" : "X"));
    w.key("ts");
    w.raw(us_fixed(start_ns));
    if (!s.open && !is_instant) {
      w.key("dur");
      // A span's virtual duration can be 0 ns (same event-loop instant);
      // render at least 1 ns so viewers keep the slice visible.
      w.raw(us_fixed(dur_ns > 0 ? dur_ns : 1));
    }
    if (is_instant) w.field("s", "t");
    w.field("pid", static_cast<std::uint64_t>(s.node.value));
    w.field("tid", s.trace);
    w.key("args");
    w.begin_object();
    w.field("id", s.id);
    w.field("parent", s.parent);
    if (!s.fields.empty()) w.field("detail", std::string_view(render(s.fields)));
    if (s.open) w.field("open", true);
    w.end_object();
    w.end_object();
  }

  w.end_array();
  w.end_object();
  return std::move(w).take();
}

// ---------------------------------------------------------- RecoveryProfiler

RecoveryProfiler::Active* RecoveryProfiler::find(util::GroupId group,
                                                 util::ReplicaId replica,
                                                 Stage expect) {
  auto it = active_.find(std::make_pair(group.value, replica.value));
  if (it == active_.end() || it->second.stage != expect) return nullptr;
  return &it->second;
}

void RecoveryProfiler::next_phase(Active& a, std::string_view name, util::TimePoint at,
                                  const Fields& fields) {
  store_.end(a.phase, at);
  a.phase = store_.begin(a.trace, a.root, a.node, Layer::kMech, name, at, fields);
}

void RecoveryProfiler::launched(util::GroupId group, util::ReplicaId replica,
                                util::NodeId node, util::TimePoint at) {
  // A re-launch under the same ids replaces any stalled older profile.
  Active a;
  a.node = node;
  a.at[0] = at;
  a.trace = store_.new_trace();
  a.root = store_.begin(a.trace, 0, node, Layer::kMech, "recovery", at,
                        {{"group", group.value}, {"replica", replica.value}});
  a.phase = store_.begin(a.trace, a.root, node, Layer::kMech, "fault-detection", at);
  active_[std::make_pair(group.value, replica.value)] = a;
}

void RecoveryProfiler::announced(util::GroupId group, util::ReplicaId replica,
                                 util::TimePoint at) {
  Active* a = find(group, replica, Stage::kAnnounced);
  if (a == nullptr) return;
  a->stage = Stage::kQuiescent;
  a->at[1] = at;
  next_phase(*a, "quiesce", at);
}

void RecoveryProfiler::quiescent(util::GroupId group, util::ReplicaId subject,
                                 util::TimePoint at) {
  Active* a = find(group, subject, Stage::kQuiescent);
  if (a == nullptr) return;
  a->stage = Stage::kCaptured;
  a->at[2] = at;
  next_phase(*a, "get_state", at);
}

void RecoveryProfiler::state_captured(util::GroupId group, util::ReplicaId subject,
                                      util::TimePoint at, std::size_t state_bytes) {
  Active* a = find(group, subject, Stage::kCaptured);
  if (a == nullptr) return;
  a->stage = Stage::kDelivered;
  a->at[3] = at;
  a->state_bytes = state_bytes;
  next_phase(*a, "state-transfer", at, {{"bytes", state_bytes}});
  // Bulk transfers retroactively attribute [state_captured, descriptor
  // arrival) to "descriptor-wait"; remember where that sub-span would start.
  a->bulk_sub = 0;
  a->bulk_mark = at;
}

void RecoveryProfiler::chunk_arrived(util::GroupId group, util::ReplicaId subject,
                                     util::TimePoint at, std::uint32_t index,
                                     std::uint32_t count, std::size_t bytes) {
  Active* a = find(group, subject, Stage::kDelivered);
  if (a == nullptr) return;
  store_.instant(a->trace, a->node, Layer::kMech, "state-chunk", at,
                 {Field::ratio("chunk", index, count), {"bytes", bytes}});
}

void RecoveryProfiler::bulk_descriptor(util::GroupId group, util::ReplicaId subject,
                                       util::TimePoint at, std::uint32_t extents,
                                       std::size_t total_bytes) {
  Active* a = find(group, subject, Stage::kDelivered);
  if (a == nullptr) return;
  // A re-served transfer (source died, fallback raced) restarts the
  // sub-span sequence: close whatever was open; the wait for the new
  // descriptor stays attributed to that interrupted sub-span, so the
  // sub-segments always partition the state-transfer phase exactly.
  if (a->bulk_sub == 0) {
    // Retroactive: everything since state_captured was waiting for the
    // first descriptor to transit the ring.
    store_.end(store_.begin(a->trace, a->phase, a->node, Layer::kMech,
                            "descriptor-wait", a->bulk_mark),
               at);
  } else {
    store_.end(a->bulk_sub, at);
  }
  a->bulk_sub = store_.begin(a->trace, a->phase, a->node, Layer::kMech, "bulk-stream",
                             at, {{"extents", extents}, {"bytes", total_bytes}});
  a->bulk_mark = at;
}

void RecoveryProfiler::bulk_extent(util::GroupId group, util::ReplicaId subject,
                                   util::TimePoint at, std::uint32_t index,
                                   std::uint32_t count, std::size_t bytes) {
  Active* a = find(group, subject, Stage::kDelivered);
  if (a == nullptr) return;
  store_.instant(a->trace, a->node, Layer::kMech, "bulk-extent", at,
                 {Field::ratio("extent", index, count), {"bytes", bytes}});
}

void RecoveryProfiler::bulk_streamed(util::GroupId group, util::ReplicaId subject,
                                     util::TimePoint at) {
  Active* a = find(group, subject, Stage::kDelivered);
  if (a == nullptr || a->bulk_sub == 0) return;
  store_.end(a->bulk_sub, at);
  a->bulk_sub = store_.begin(a->trace, a->phase, a->node, Layer::kMech, "marker-wait", at);
  a->bulk_mark = at;
}

void RecoveryProfiler::state_delivered(util::GroupId group, util::ReplicaId subject,
                                       util::TimePoint at) {
  Active* a = find(group, subject, Stage::kDelivered);
  if (a == nullptr) return;
  store_.end(a->bulk_sub, at);
  a->bulk_sub = 0;
  a->stage = Stage::kApplied;
  a->at[4] = at;
  next_phase(*a, "set_state", at);
}

void RecoveryProfiler::state_applied(util::GroupId group, util::ReplicaId subject,
                                     util::TimePoint at, std::size_t replay_backlog) {
  Active* a = find(group, subject, Stage::kApplied);
  if (a == nullptr) return;
  a->stage = Stage::kDraining;
  a->at[5] = at;
  a->replay_left = replay_backlog;
  next_phase(*a, "replay", at, {{"backlog", replay_backlog}});
  if (replay_backlog == 0) finish(group, subject, *a, at);
}

void RecoveryProfiler::replayed_one(util::GroupId group, util::ReplicaId replica,
                                    util::TimePoint at) {
  Active* a = find(group, replica, Stage::kDraining);
  if (a == nullptr || a->replay_left == 0) return;
  if (--a->replay_left == 0) finish(group, replica, *a, at);
}

void RecoveryProfiler::finish(util::GroupId group, util::ReplicaId replica, Active& a,
                              util::TimePoint at) {
  store_.end(a.phase, at);
  store_.end(a.root, at);
  PhaseBreakdown b;
  b.group = group;
  b.replica = replica;
  b.node = a.node;
  b.launched_at = a.at[0];
  b.fault_detection = a.at[1] - a.at[0];
  b.quiesce = a.at[2] - a.at[1];
  b.get_state = a.at[3] - a.at[2];
  b.state_transfer = a.at[4] - a.at[3];
  b.set_state = a.at[5] - a.at[4];
  b.replay = at - a.at[5];
  b.state_bytes = a.state_bytes;
  completed_.push_back(b);
  active_.erase(std::make_pair(group.value, replica.value));
}

// ------------------------------------------------------------ FlightRecorder

std::string FlightRecorder::to_json() const {
  JsonWriter w;
  w.begin_object();
  w.key("flight_recorder");
  w.begin_object();
  w.field("last_n", static_cast<std::uint64_t>(last_n_));
  w.field("events_total", trace_ != nullptr ? trace_->total() : 0);
  w.field("events_dropped", trace_ != nullptr ? trace_->dropped() : 0);
  w.field("spans_total", spans_ != nullptr ? spans_->total() : 0);
  w.field("spans_dropped", spans_ != nullptr ? spans_->dropped() : 0);
  w.field("partial_traces", spans_ != nullptr ? spans_->partial_traces() : 0);
  w.end_object();

  w.key("violations");
  w.begin_array();
  for (const Violation& v : violations_) {
    w.begin_object();
    w.field("rule", v.rule);
    w.field("message", v.message);
    if (v.event_index != Violation::kNoIndex) {
      w.field("event_index", static_cast<std::uint64_t>(v.event_index));
    }
    if (!v.phase.empty()) w.field("phase", v.phase);
    w.end_object();
  }
  w.end_array();

  w.key("events");
  w.begin_array();
  if (trace_ != nullptr) {
    const std::vector<TraceEvent> events = trace_->snapshot();
    const std::size_t from = events.size() > last_n_ ? events.size() - last_n_ : 0;
    for (std::size_t i = from; i < events.size(); ++i) event_to_json(w, events[i], i);
  }
  w.end_array();

  w.key("spans");
  w.begin_array();
  if (spans_ != nullptr) {
    const std::vector<Span> spans = spans_->snapshot();
    const std::size_t from = spans.size() > last_n_ ? spans.size() - last_n_ : 0;
    for (std::size_t i = from; i < spans.size(); ++i) span_to_json(w, spans[i]);
  }
  w.end_array();
  w.end_object();
  return std::move(w).take();
}

bool FlightRecorder::write_file(const std::string& path) const {
  const std::string doc = to_json();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
  std::fclose(f);
  return ok;
}

std::string FlightRecorder::unique_path(const std::string& base) {
  static std::map<std::string, unsigned> runs;  // per-process run counter
  const unsigned run = ++runs[base];
  if (run == 1) return base;
  const std::size_t dot = base.rfind('.');
  if (dot == std::string::npos || dot == 0) {
    return base + "." + std::to_string(run);
  }
  return base.substr(0, dot) + "." + std::to_string(run) + base.substr(dot);
}

}  // namespace eternal::obs
