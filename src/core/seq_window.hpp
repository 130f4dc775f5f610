// Duplicate-suppression window over operation sequence numbers.
//
// Eternal-generated operation identifiers (paper §4.3) are (group, sequence)
// pairs; a SeqWindow tracks which sequence numbers of one stream have been
// seen, compacting the contiguous prefix so the table stays small (this is
// the "garbage collection of the log" aspect of infrastructure-level state).
#pragma once

#include <cstdint>
#include <limits>
#include <set>

#include "util/cdr.hpp"

namespace eternal::core {

class SeqWindow {
 public:
  /// Records `seq`; returns true when it was NOT seen before (i.e. the
  /// caller should process it), false for a duplicate.
  bool test_and_insert(std::uint64_t seq) {
    if (seq < next_) return false;
    // In-order fast path: the next number with nothing sparse pending just
    // advances the prefix (what inserting and compacting would do, without
    // the set node). The top of the sequence space takes the slow path.
    if (seq == next_ && sparse_.empty() &&
        next_ != std::numeric_limits<std::uint64_t>::max()) {
      ++next_;
      return true;
    }
    if (!sparse_.insert(seq).second) return false;
    compact();
    return true;
  }

  /// True when `seq` has been recorded.
  bool seen(std::uint64_t seq) const {
    return seq < next_ || sparse_.count(seq) > 0;
  }

  /// All sequence numbers below this value have been seen.
  std::uint64_t contiguous_prefix() const noexcept { return next_; }

  std::size_t sparse_size() const noexcept { return sparse_.size(); }

  /// Adds every number `other` has seen: afterwards this window has seen the
  /// union of both sets.
  void merge(const SeqWindow& other) {
    if (other.next_ > next_) {
      next_ = other.next_;
      sparse_.erase(sparse_.begin(), sparse_.lower_bound(next_));
    }
    for (auto it = other.sparse_.lower_bound(next_); it != other.sparse_.end(); ++it) {
      sparse_.insert(*it);
    }
    compact();
  }

  void encode(util::CdrWriter& w) const {
    w.put_u64(next_);
    w.put_u32(static_cast<std::uint32_t>(sparse_.size()));
    for (std::uint64_t s : sparse_) w.put_u64(s);
  }

  static SeqWindow decode(util::CdrReader& r) {
    SeqWindow win;
    win.next_ = r.get_u64();
    const std::uint32_t n = r.get_count(4);
    for (std::uint32_t i = 0; i < n; ++i) win.sparse_.insert(r.get_u64());
    win.compact();
    return win;
  }

  bool operator==(const SeqWindow&) const = default;

 private:
  void compact() {
    auto it = sparse_.begin();
    while (it != sparse_.end() && *it == next_) {
      // Saturate at the top of the sequence space: advancing past the
      // maximum would wrap next_ to 0 and forget every recorded number.
      // UINT64_MAX itself stays in sparse_ so seen() still reports it.
      if (next_ == std::numeric_limits<std::uint64_t>::max()) break;
      ++next_;
      it = sparse_.erase(it);
    }
  }

  std::uint64_t next_ = 0;       ///< lowest unseen sequence number
  std::set<std::uint64_t> sparse_;  ///< seen numbers above the prefix
};

}  // namespace eternal::core
