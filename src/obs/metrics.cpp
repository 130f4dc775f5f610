#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>

#include "obs/json.hpp"

namespace eternal::obs {

Histogram::Histogram(std::vector<std::uint64_t> bounds)
    : bounds_(std::move(bounds)), counts_(bounds_.size() + 1, 0) {}

void Histogram::observe(std::uint64_t value) noexcept {
  std::size_t i = 0;
  while (i < bounds_.size() && value > bounds_[i]) ++i;
  ++counts_[i];
  ++count_;
  sum_ += value;
  if (value < min_) min_ = value;
  if (value > max_) max_ = value;
}

double Histogram::percentile(double p) const noexcept {
  if (count_ == 0) return 0.0;
  // `!(p > 0.0)` rather than `p <= 0.0`: NaN compares false both ways, so a
  // non-finite p would otherwise fall through and poison the rank arithmetic.
  if (!(p > 0.0)) return static_cast<double>(min());
  if (p >= 100.0) return static_cast<double>(max_);
  const double rank = (p / 100.0) * static_cast<double>(count_);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] == 0) continue;
    const double before = static_cast<double>(cumulative);
    cumulative += counts_[i];
    if (static_cast<double>(cumulative) < rank) continue;
    if (i == bounds_.size()) return static_cast<double>(max_);  // overflow bucket
    // Interpolate within the bucket between its lower and upper edges,
    // clamped to the observed range so a sparse bucket cannot report a
    // value no observation could have had.
    double lo = i == 0 ? 0.0 : static_cast<double>(bounds_[i - 1]);
    double hi = static_cast<double>(bounds_[i]);
    lo = std::max(lo, static_cast<double>(min()));
    hi = std::min(hi, static_cast<double>(max_));
    if (hi < lo) return lo;
    const double frac = (rank - before) / static_cast<double>(counts_[i]);
    return lo + (hi - lo) * frac;
  }
  return static_cast<double>(max_);
}

std::vector<std::uint64_t> Histogram::exponential(std::uint64_t first, double factor,
                                                  std::size_t n) {
  std::vector<std::uint64_t> bounds;
  bounds.reserve(n);
  double edge = static_cast<double>(first);
  std::uint64_t prev = 0;
  for (std::size_t i = 0; i < n; ++i) {
    auto b = static_cast<std::uint64_t>(std::ceil(edge));
    if (b <= prev) b = prev + 1;  // keep edges strictly ascending
    bounds.push_back(b);
    prev = b;
    edge *= factor;
  }
  return bounds;
}

const std::vector<std::uint64_t>& Histogram::default_latency_bounds() {
  // 1 us .. ~8.4 s in powers of two; values are nanoseconds.
  static const std::vector<std::uint64_t> bounds = exponential(1000, 2.0, 24);
  return bounds;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  return counters_[std::string(name)];
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::vector<std::uint64_t> bounds) {
  auto it = histograms_.find(std::string(name));
  if (it != histograms_.end()) return it->second;
  if (bounds.empty()) bounds = Histogram::default_latency_bounds();
  return histograms_.emplace(std::string(name), Histogram(std::move(bounds)))
      .first->second;
}

std::string MetricsRegistry::to_json() const {
  JsonWriter w;
  w.begin_object();
  w.key("counters");
  w.begin_object();
  for (const auto& [name, c] : counters_) w.field(name, c.value());
  w.end_object();
  w.key("histograms");
  w.begin_object();
  for (const auto& [name, h] : histograms_) {
    w.key(name);
    w.begin_object();
    w.field("count", h.count());
    w.field("sum", h.sum());
    w.field("min", h.min());
    w.field("max", h.max());
    w.field("mean", h.mean());
    w.key("bounds");
    w.begin_array();
    for (auto b : h.bounds()) w.value(b);
    w.end_array();
    w.key("counts");
    w.begin_array();
    for (auto c : h.counts()) w.value(c);
    w.end_array();
    w.end_object();
  }
  w.end_object();
  w.end_object();
  return std::move(w).take();
}

}  // namespace eternal::obs
