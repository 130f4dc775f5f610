#include "obs/trace.hpp"

#include <charconv>
#include <stdexcept>

#include "obs/json.hpp"

namespace eternal::obs {

std::string_view to_string(Layer layer) {
  switch (layer) {
    case Layer::kSim: return "sim";
    case Layer::kTotem: return "totem";
    case Layer::kMech: return "mech";
    case Layer::kOrb: return "orb";
  }
  return "?";
}

void Fields::push(const Field& f) {
  if (f.kind() == Field::Kind::kAbsent) return;
  if (size_ == kCapacity) throw std::length_error("obs::Fields: capacity exceeded");
  items_[size_++] = f;
}

const Field* Fields::find(std::string_view key) const noexcept {
  for (const Field& f : *this)
    if (f.key() == key) return &f;
  return nullptr;
}

std::string render(const Fields& fields) {
  std::string out;
  char buf[24];
  const auto append_num = [&](std::uint64_t v, char sep = 0) {
    if (sep) out += sep;
    out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
  };
  for (const Field& f : fields) {
    (out += out.empty() ? "" : " ").append(f.key()) += '=';
    if (f.kind() == Field::Kind::kText) {
      out += f.text();
      continue;
    }
    append_num(f.num());
    if (f.kind() == Field::Kind::kRatio) append_num(f.den(), '/');
  }
  return out;
}

void event_to_json(JsonWriter& w, const TraceEvent& ev,
                   std::optional<std::uint64_t> index) {
  w.begin_object();
  if (index) w.field("index", *index);
  w.field("t", static_cast<std::uint64_t>(ev.sim_time.count()));
  w.field("node", static_cast<std::uint64_t>(ev.node.value));
  w.field("layer", to_string(ev.layer));
  w.field("kind", ev.kind);
  w.field("seq", ev.seq);
  w.field("detail", std::string_view(render(ev.fields)));
  w.end_object();
}

TraceBuffer::TraceBuffer(std::size_t capacity) : capacity_(capacity) {
  if (capacity_ == 0) capacity_ = 1;
}

void TraceBuffer::push(const TraceEvent& ev) {
  ++total_;
  if (ring_.size() < capacity_) {
    ring_.push_back(ev);
    return;
  }
  ring_[head_] = ev;
  head_ = (head_ + 1) % capacity_;
}

std::vector<TraceEvent> TraceBuffer::snapshot() const {
  std::vector<TraceEvent> out;
  out.reserve(ring_.size());
  for (std::size_t i = 0; i < ring_.size(); ++i)
    out.push_back(ring_[(head_ + i) % ring_.size()]);
  return out;
}

void TraceBuffer::clear() {
  ring_.clear();
  head_ = 0;
  total_ = 0;
}

std::string TraceBuffer::to_json() const {
  JsonWriter w;
  w.begin_object();
  w.field("capacity", static_cast<std::uint64_t>(capacity_));
  w.field("total", total_);
  w.field("dropped", dropped());
  w.key("events");
  w.begin_array();
  for (const auto& ev : snapshot()) event_to_json(w, ev);
  w.end_array();
  w.end_object();
  return std::move(w).take();
}

std::string_view TraceBuffer::intern(std::string_view name) {
  auto it = interned_.find(name);
  if (it == interned_.end()) it = interned_.emplace(name).first;
  return *it;
}

Histogram& Recorder::sink_histogram() {
  static Histogram sink({1});
  return sink;
}

}  // namespace eternal::obs
