#include "history.hpp"

#include <algorithm>
#include <unordered_set>

namespace perfbench {

std::uint64_t History::incs_sent(std::size_t group) const {
  std::uint64_t n = 0;
  for (const OpRecord& r : ops_.at(group)) n += r.kind == OpKind::kInc ? 1 : 0;
  return n;
}

std::uint64_t History::failed() const {
  std::uint64_t n = 0;
  for (const auto& group : ops_) {
    for (const OpRecord& r : group) n += r.ok ? 0 : 1;
  }
  return n;
}

std::uint64_t History::attempted() const {
  std::uint64_t n = 0;
  for (const auto& group : ops_) n += group.size();
  return n;
}

Duration History::longest_reply_gap(std::size_t group, TimePoint from, TimePoint to) const {
  std::vector<TimePoint> replies;
  for (const OpRecord& r : ops_.at(group)) {
    if (r.replied && r.returned > from && r.returned <= to) replies.push_back(r.returned);
  }
  std::sort(replies.begin(), replies.end());
  Duration worst{};
  TimePoint prev = from;
  for (TimePoint t : replies) {
    worst = std::max(worst, t - prev);
    prev = t;
  }
  return std::max(worst, to - prev);
}

namespace {

void check_group(const History& h, std::size_t g, const std::vector<ReplicaValue>& replicas,
                 std::vector<std::string>& out) {
  const std::string tag = "group " + std::to_string(g) + ": ";
  const std::vector<OpRecord>& ops = h.ops(g);
  const std::int64_t sent = static_cast<std::int64_t>(h.incs_sent(g));

  std::vector<const OpRecord*> incs;
  std::vector<TimePoint> inc_sent_at;
  std::vector<TimePoint> inc_done_at;
  bool all_incs_replied = true;
  std::unordered_set<std::int64_t> seen;
  std::size_t bad = 0;
  for (const OpRecord& r : ops) {
    if (r.kind != OpKind::kInc) continue;
    inc_sent_at.push_back(r.sent);
    if (!r.ok) {
      all_incs_replied = false;
      continue;
    }
    incs.push_back(&r);
    inc_done_at.push_back(r.returned);
    if (r.value < 1 || r.value > sent) {
      if (bad++ < 3) {
        out.push_back(tag + "inc returned " + std::to_string(r.value) + " outside 1.." +
                      std::to_string(sent));
      }
    } else if (!seen.insert(r.value).second) {
      if (bad++ < 3) {
        out.push_back(tag + "inc value " + std::to_string(r.value) + " returned twice");
      }
    }
  }
  if (bad > 3) out.push_back(tag + std::to_string(bad) + " inc value violations in total");

  // Real-time order: walk incs by send time, tracking the largest value of
  // the incs that had already returned.
  std::vector<const OpRecord*> by_done = incs;
  std::sort(by_done.begin(), by_done.end(),
            [](const OpRecord* a, const OpRecord* b) { return a->returned < b->returned; });
  std::vector<const OpRecord*> by_sent = incs;
  std::sort(by_sent.begin(), by_sent.end(),
            [](const OpRecord* a, const OpRecord* b) { return a->sent < b->sent; });
  std::size_t done_i = 0;
  std::int64_t max_done = 0;
  std::size_t order_bad = 0;
  for (const OpRecord* r : by_sent) {
    while (done_i < by_done.size() && by_done[done_i]->returned < r->sent) {
      max_done = std::max(max_done, by_done[done_i]->value);
      ++done_i;
    }
    if (r->value <= max_done && order_bad++ < 3) {
      out.push_back(tag + "inc sent at " + std::to_string(r->sent.count()) + " ns returned " +
                    std::to_string(r->value) + " after an earlier inc returned " +
                    std::to_string(max_done));
    }
  }

  // Gets: bounded by completed-before-send and sent-before-return incs.
  std::sort(inc_sent_at.begin(), inc_sent_at.end());
  std::sort(inc_done_at.begin(), inc_done_at.end());
  std::size_t get_bad = 0;
  for (const OpRecord& r : ops) {
    if (r.kind != OpKind::kGet || !r.ok) continue;
    const auto lo = static_cast<std::int64_t>(
        std::lower_bound(inc_done_at.begin(), inc_done_at.end(), r.sent) - inc_done_at.begin());
    const auto hi = static_cast<std::int64_t>(
        std::upper_bound(inc_sent_at.begin(), inc_sent_at.end(), r.returned) -
        inc_sent_at.begin());
    if ((r.value < lo || r.value > hi) && get_bad++ < 3) {
      out.push_back(tag + "get returned " + std::to_string(r.value) + ", allowed " +
                    std::to_string(lo) + ".." + std::to_string(hi));
    }
  }

  if (replicas.empty()) {
    out.push_back(tag + "no live replica left");
    return;
  }
  const std::int64_t replied = static_cast<std::int64_t>(incs.size());
  for (const ReplicaValue& rv : replicas) {
    if (rv.executes) {
      const bool fits = all_incs_replied ? rv.value == sent
                                         : rv.value >= replied && rv.value <= sent;
      if (!fits) {
        out.push_back(tag + rv.where + " ends at " + std::to_string(rv.value) +
                      ", expected " + std::to_string(sent));
      }
    } else if (rv.value < 0 || rv.value > sent) {
      out.push_back(tag + rv.where + " (backup) holds " + std::to_string(rv.value) +
                    ", beyond " + std::to_string(sent));
    }
  }
  const ReplicaValue* first = nullptr;
  for (const ReplicaValue& rv : replicas) {
    if (!rv.executes) continue;
    if (first != nullptr && rv.value != first->value) {
      out.push_back(tag + rv.where + " diverges from " + first->where);
    }
    if (first == nullptr) first = &rv;
  }
}

}  // namespace

std::vector<std::string> check_history(const History& history,
                                       const std::vector<std::vector<ReplicaValue>>& replicas) {
  std::vector<std::string> out;
  for (std::size_t g = 0; g < history.groups(); ++g) {
    check_group(history, g, g < replicas.size() ? replicas[g] : std::vector<ReplicaValue>{},
                out);
  }
  return out;
}

}  // namespace perfbench
