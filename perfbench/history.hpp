// Client-visible history of a benchmark run, and the checks over it.
//
// Every workload drives counter objects ("inc" adds 1 and returns the new
// value, "get" returns the value). What clients observed must then be
// explainable by one counter per group executing every operation exactly
// once in one total order:
//   - every replied inc value is unique, lies in 1..(incs sent), and when
//     every inc replied the values are exactly 1..N;
//   - an inc that returned before another inc was sent has a smaller value
//     (the order respects real time);
//   - a get returns at least the incs completed before it was sent and at
//     most the incs sent before it returned;
//   - every live replica that executes requests ends at N (passive backups
//     hold a checkpoint, so they end at most at N).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/time.hpp"

namespace perfbench {

using eternal::util::Duration;
using eternal::util::TimePoint;

enum class OpKind : std::uint8_t { kInc, kGet };

struct OpRecord {
  OpKind kind = OpKind::kInc;
  TimePoint sent{};
  TimePoint returned{};
  bool replied = false;
  bool ok = false;  ///< replied without an exception
  std::int64_t value = 0;
};

class History {
 public:
  explicit History(std::size_t groups = 0) : ops_(groups) {}

  /// Records an invocation; returns its index for complete().
  std::size_t begin(std::size_t group, OpKind kind, TimePoint sent) {
    ops_.at(group).push_back(OpRecord{kind, sent, {}, false, false, 0});
    return ops_[group].size() - 1;
  }

  void complete(std::size_t group, std::size_t op, TimePoint at, bool ok, std::int64_t value) {
    OpRecord& r = ops_.at(group).at(op);
    r.returned = at;
    r.replied = true;
    r.ok = ok;
    r.value = value;
  }

  std::size_t groups() const noexcept { return ops_.size(); }
  const std::vector<OpRecord>& ops(std::size_t group) const { return ops_.at(group); }
  std::uint64_t incs_sent(std::size_t group) const;
  /// Operations with no normal reply (exception, or none at all).
  std::uint64_t failed() const;
  std::uint64_t attempted() const;

  /// Longest interval inside [from, to] without a reply to the group's
  /// clients, counting from `from` (the fault instant) to the first reply
  /// and then between consecutive replies (`to` closes the last interval).
  Duration longest_reply_gap(std::size_t group, TimePoint from, TimePoint to) const;

 private:
  std::vector<std::vector<OpRecord>> ops_;
};

/// Final value of one live replica of a group.
struct ReplicaValue {
  std::string where;  ///< for the report, e.g. "node 2"
  std::int64_t value = 0;
  bool executes = true;  ///< active replica or passive primary: must equal N
};

/// Runs every check above; returns one line per violation (empty = clean).
/// `replicas[g]` lists group g's live replicas.
std::vector<std::string> check_history(const History& history,
                                       const std::vector<std::vector<ReplicaValue>>& replicas);

}  // namespace perfbench
