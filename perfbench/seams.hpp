// Host-side instrumentation owned by the benchmark: the two host clocks, the
// process-wide allocation counter (alloc_counter.cpp) and a nesting-aware
// timer for the public seams the benchmark wraps.
//
// Every seam wrapper forwards the call unchanged, so installing them cannot
// move the virtual timeline; the seam_equality check in main.cpp proves that
// on every traced run.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <ctime>
#include <vector>

namespace perfbench {

/// Number of global operator new calls since process start.
std::uint64_t alloc_count() noexcept;

inline std::int64_t wall_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU time of the whole (single-threaded) process.
inline std::int64_t cpu_ns() noexcept {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/// The seams the benchmark times, named after the layer entered.
enum class Seam : std::size_t {
  kTotemRx,  ///< Ethernet station → TotemNode::on_frame
  kOrbSend,  ///< Orb transport → Interceptor::send
  kCapture,  ///< Interceptor diversion → Mechanisms::on_outbound
  kCount,
};

struct SeamTotals {
  std::int64_t self_ns = 0;       ///< inclusive minus nested timed seams
  std::uint64_t self_allocs = 0;  ///< allocations not inside a nested seam
};

/// Stack of open seams. Self time of a seam is its inclusive wall time minus
/// the inclusive time of the timed seams nested inside it; allocations are
/// attributed the same way.
class SeamClock {
 public:
  SeamClock() { stack_.reserve(16); }

  class Scope {
   public:
    Scope(SeamClock* clock, Seam seam) : clock_(clock) {
      if (clock_ != nullptr) clock_->enter(seam);
    }
    ~Scope() {
      if (clock_ != nullptr) clock_->leave();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SeamClock* clock_;
  };

  const SeamTotals& totals(Seam seam) const { return totals_[static_cast<std::size_t>(seam)]; }

 private:
  struct Frame {
    Seam seam;
    std::int64_t start_ns;
    std::uint64_t start_allocs;
    std::int64_t child_ns = 0;
    std::uint64_t child_allocs = 0;
  };

  void enter(Seam seam) { stack_.push_back(Frame{seam, wall_ns(), alloc_count()}); }

  void leave() {
    const Frame f = stack_.back();
    stack_.pop_back();
    const std::int64_t incl_ns = wall_ns() - f.start_ns;
    const std::uint64_t incl_allocs = alloc_count() - f.start_allocs;
    SeamTotals& t = totals_[static_cast<std::size_t>(f.seam)];
    t.self_ns += incl_ns - f.child_ns;
    t.self_allocs += incl_allocs - f.child_allocs;
    if (!stack_.empty()) {
      stack_.back().child_ns += incl_ns;
      stack_.back().child_allocs += incl_allocs;
    }
  }

  std::vector<Frame> stack_;
  std::array<SeamTotals, static_cast<std::size_t>(Seam::kCount)> totals_{};
};

}  // namespace perfbench
