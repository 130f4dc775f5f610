// Low-overhead metrics: counters and fixed-bucket histograms, keyed
// by static names.
//
// The registry hands out *stable references* — instruments live in a
// std::map whose nodes never move — so hot paths (the Totem token handler,
// the ORB reply matcher) look an instrument up once at construction and
// afterwards pay a single add on a cached pointer, never a hash or a string
// compare. Everything is deterministic: exports are sorted by name, so two
// runs of the same seed produce byte-identical JSON.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace eternal::obs {

/// Monotonically increasing event count.
class Counter {
 public:
  void add(std::uint64_t delta = 1) noexcept { value_ += delta; }
  std::uint64_t value() const noexcept { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Fixed-bucket histogram. Buckets are defined by ascending upper bounds;
/// an observation lands in the first bucket whose bound is >= the value
/// (bounds are inclusive upper edges); values above the last bound land in
/// the implicit overflow bucket, so counts().size() == bounds().size() + 1.
class Histogram {
 public:
  explicit Histogram(std::vector<std::uint64_t> bounds);

  void observe(std::uint64_t value) noexcept;

  const std::vector<std::uint64_t>& bounds() const noexcept { return bounds_; }
  const std::vector<std::uint64_t>& counts() const noexcept { return counts_; }
  std::uint64_t count() const noexcept { return count_; }
  std::uint64_t sum() const noexcept { return sum_; }
  std::uint64_t min() const noexcept { return count_ == 0 ? 0 : min_; }
  std::uint64_t max() const noexcept { return max_; }
  double mean() const noexcept {
    return count_ == 0 ? 0.0 : static_cast<double>(sum_) / static_cast<double>(count_);
  }

  /// Estimated p-th percentile (p in [0,100]), linearly interpolated inside
  /// the bucket holding the rank, with the bucket edges clamped to the
  /// observed min/max so the estimate never leaves the data's range. The
  /// overflow bucket reports max(). 0 when empty.
  double percentile(double p) const noexcept;

  /// `n` bounds starting at `first`, each `factor`x the previous
  /// (rounded up), e.g. exponential(1000, 2.0, 16) spans 1 us .. 32 ms in ns.
  static std::vector<std::uint64_t> exponential(std::uint64_t first, double factor,
                                                std::size_t n);

  /// Default latency buckets in nanoseconds: 1 us .. ~8.4 s, powers of two.
  static const std::vector<std::uint64_t>& default_latency_bounds();

 private:
  std::vector<std::uint64_t> bounds_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t max_ = 0;
};

/// Name → instrument registry. References returned stay valid for the
/// registry's lifetime. Lookups are by string name and belong at setup
/// time, not on hot paths.
class MetricsRegistry {
 public:
  Counter& counter(std::string_view name);
  /// Creates the histogram with `bounds` on first use; subsequent calls
  /// return the existing instrument (bounds argument ignored).
  Histogram& histogram(std::string_view name,
                       std::vector<std::uint64_t> bounds = {});

  const std::map<std::string, Counter>& counters() const noexcept { return counters_; }
  const std::map<std::string, Histogram>& histograms() const noexcept {
    return histograms_;
  }

  /// Deterministic (name-sorted) JSON snapshot of every instrument.
  std::string to_json() const;

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Histogram> histograms_;
};

}  // namespace eternal::obs
