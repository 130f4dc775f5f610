#include "obs/invariants.hpp"

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <sstream>
#include <unordered_map>
#include <utility>

namespace eternal::obs {
namespace {

std::string stamp(const TraceEvent& ev) {
  std::ostringstream os;
  os << "t=" << ev.sim_time.count() << "ns node=" << ev.node.value << " ["
     << to_string(ev.layer) << "/" << ev.kind << " seq=" << ev.seq << " "
     << render(ev.fields) << "]";
  return os.str();
}

/// Ring of an event without a "ring" field: a Mechanisms `phase` event on a
/// single-ring deployment, where all groups share one scope.
constexpr std::uint64_t kNoRing = ~std::uint64_t{0};

using Key = std::pair<std::uint64_t, std::uint64_t>;

struct KeyHash {
  std::size_t operator()(const Key& k) const noexcept {
    return std::hash<std::uint64_t>{}(k.first * 0x9E3779B97F4A7C15ULL ^ k.second);
  }
};

/// Per-(node, ring) Totem delivery cursor (rule 1). Keyed by ring as well
/// as node: with multiple rings a node's deliveries interleave across them,
/// and a node-global cursor would flip between rings on every event and
/// never see two consecutive deliveries of the same ring to compare.
struct DeliveryCursor {
  std::uint64_t seq = 0;
  bool has_delivered = false;
  bool install_since = false;
};

/// A delivered frame's identity (rule 1 agreement).
struct FrameIdentity {
  std::uint64_t origin, view, digest, size;
  bool operator==(const FrameIdentity&) const = default;
};

/// An operation: (client group, op_seq).
using OpId = Key;

std::string op_text(const OpId& op) {
  return std::to_string(op.first) + "#" + std::to_string(op.second);
}

/// Per-replica servant history (rules 2 and 4). Keyed by ReplicaId, which
/// is unique per incarnation, so a relaunched replica legitimately re-sees
/// operations its predecessor executed.
struct ReplicaHistory {
  /// One execution: the op, the trace-event index of its request_inject
  /// record and the FOM phase it was injected under. A replay-order
  /// violation reports both, so the offending operation is locatable in the
  /// stream and attributable to a phase.
  struct Injection {
    OpId op;
    std::size_t index;
    std::string_view phase;
  };
  std::set<OpId> injected_ops;          // rule 2: op identity set
  std::vector<OpId> enqueued_order;     // rule 4: recorded total order
  std::vector<Injection> injected;      // rule 4: execution order
  std::uint32_t node = 0;
  std::uint64_t group = 0;
};

}  // namespace

std::vector<Violation> InvariantChecker::check(const std::vector<TraceEvent>& events) {
  std::vector<Violation> out;

  // Rule 1 state: (node, ring) -> cursor, (ring, seq) -> identity and the
  // node that first delivered it.
  std::unordered_map<Key, DeliveryCursor, KeyHash> cursors;
  std::unordered_map<Key, std::pair<FrameIdentity, std::uint32_t>, KeyHash> frames;

  // Rule 3 state: (ring, group) -> replica -> phase, for passive-style
  // groups only. Keyed by ring too: a sharded system scopes primary
  // uniqueness to the ordering domain that elects the primary, not to the
  // whole fleet.
  std::map<Key, std::map<std::uint64_t, std::string_view>> group_phases;

  // Rules 2 and 4 state.
  std::map<std::uint64_t, ReplicaHistory> replicas;  // keyed by replica id

  for (std::size_t idx = 0; idx < events.size(); ++idx) {
    const auto& ev = events[idx];
    const Fields& f = ev.fields;
    if (ev.layer == Layer::kTotem && ev.kind == "view_install") {
      // A membership change legitimises a sequence-number jump on every
      // member that installed it; remote nodes' cursors — and the node's
      // cursors on its *other* rings — are untouched.
      cursors[{ev.node.value, f.num("ring")}].install_since = true;
      continue;
    }

    if (ev.layer == Layer::kTotem && ev.kind == "deliver") {
      const std::uint64_t ring = f.num("ring");
      DeliveryCursor& cur = cursors[{ev.node.value, ring}];
      if (cur.has_delivered && !cur.install_since && ev.seq != cur.seq + 1) {
        out.push_back({"delivery-gap",
                       "node " + std::to_string(ev.node.value) + " jumped from seq " +
                           std::to_string(cur.seq) + " to " + std::to_string(ev.seq) +
                           " on ring " + std::to_string(ring) +
                           " with no view install: " + stamp(ev),
                       idx,
                       {}});
      }
      cur.seq = ev.seq;
      cur.has_delivered = true;
      cur.install_since = false;

      const FrameIdentity id{f.num("origin"), f.num("view"), f.num("digest"), f.num("size")};
      auto [it, inserted] = frames.try_emplace(Key{ring, ev.seq}, id, ev.node.value);
      if (!inserted && !(it->second.first == id)) {
        const auto& [seen, first_node] = it->second;
        out.push_back({"order-agreement",
                       "ring " + std::to_string(ring) + " seq " + std::to_string(ev.seq) +
                           " delivered with different identity than node " +
                           std::to_string(first_node) + " saw (origin " +
                           std::to_string(seen.origin) + "/" + std::to_string(id.origin) +
                           " digest " + std::to_string(seen.digest) + "/" +
                           std::to_string(id.digest) + "): " + stamp(ev),
                       idx,
                       {}});
      }
      continue;
    }

    if (ev.layer != Layer::kMech) continue;

    if (ev.kind == "phase") {
      if (f.text("style") == "active" || !f.has("group")) continue;
      const std::uint64_t group = f.num("group");
      // "ring" is recorded only on multi-ring deployments; its absence means
      // the classic single ring and all groups share one scope.
      auto& phases = group_phases[{f.num("ring", kNoRing), group}];
      phases[f.num("replica")] = f.text("phase");
      std::string list;
      std::size_t primaries = 0;
      for (const auto& [replica, phase] : phases) {
        if (phase != "operational") continue;
        list += (list.empty() ? "" : ",") + std::to_string(replica);
        ++primaries;
      }
      if (primaries > 1) {
        out.push_back({"multi-primary",
                       "passive group " + std::to_string(group) + " has " +
                           std::to_string(primaries) + " operational primaries (" + list +
                           "): " + stamp(ev),
                       idx,
                       {}});
      }
      continue;
    }

    if (ev.kind == "enqueue") {
      ReplicaHistory& hist = replicas[f.num("replica")];
      hist.node = ev.node.value;
      hist.group = f.num("group");
      hist.enqueued_order.emplace_back(f.num("client"), f.num("op_seq"));
      continue;
    }

    if (ev.kind == "request_inject") {
      const std::uint64_t replica = f.num("replica");
      ReplicaHistory& hist = replicas[replica];
      hist.node = ev.node.value;
      hist.group = f.num("group");
      const OpId op{f.num("client"), f.num("op_seq")};
      if (!hist.injected_ops.insert(op).second) {
        out.push_back({"duplicate-op",
                       "operation " + op_text(op) + " delivered twice to replica " +
                           std::to_string(replica) + ": " + stamp(ev),
                       idx,
                       {}});
      }
      hist.injected.push_back({op, idx, f.text("fom_phase")});
      continue;
    }
  }

  // Rule 4: each replica's execution order must be an in-order subsequence
  // of its enqueue order (operations may still be pending at trace end, and
  // duplicates never reach the queue, but nothing may execute out of order).
  for (const auto& [replica, hist] : replicas) {
    std::size_t cursor = 0;
    for (const auto& [op, index, phase] : hist.injected) {
      while (cursor < hist.enqueued_order.size() && hist.enqueued_order[cursor] != op)
        ++cursor;
      if (cursor == hist.enqueued_order.size()) {
        Violation v;
        v.rule = "replay-order";
        v.event_index = index;
        v.phase = std::string(phase);
        v.message = "replica " + std::to_string(replica) + " (group " +
                    std::to_string(hist.group) + ", node " + std::to_string(hist.node) +
                    ") executed " + op_text(op) +
                    " out of enqueue order or without an enqueue record" +
                    " (injected in phase " + v.phase + ")";
        out.push_back(std::move(v));
        break;
      }
      ++cursor;
    }
  }

  return out;
}
std::vector<Violation> InvariantChecker::check(const TraceBuffer& trace) {
  std::vector<Violation> out;
  if (trace.dropped() > 0) {
    out.push_back({"trace-dropped",
                   std::to_string(trace.dropped()) + " of " +
                       std::to_string(trace.total()) +
                       " events dropped; raise trace_capacity to check this run",
                   Violation::kNoIndex,
                   {}});
  }
  auto checked = check(trace.snapshot());
  out.insert(out.end(), checked.begin(), checked.end());
  return out;
}

std::string InvariantChecker::report(const std::vector<Violation>& violations) {
  std::string out;
  for (const auto& v : violations) {
    out += v.rule;
    out += ": ";
    out += v.message;
    out += '\n';
  }
  return out;
}

std::string InvariantChecker::report_with_context(
    const std::vector<Violation>& violations, const std::vector<TraceEvent>& events,
    std::size_t radius) {
  std::string out;
  for (const auto& v : violations) {
    out += v.rule;
    out += ": ";
    out += v.message;
    out += '\n';
    if (v.event_index == Violation::kNoIndex || v.event_index >= events.size())
      continue;
    const std::size_t from = v.event_index > radius ? v.event_index - radius : 0;
    const std::size_t to = std::min(events.size(), v.event_index + radius + 1);
    for (std::size_t i = from; i < to; ++i) {
      out += i == v.event_index ? "  >>> " : "      ";
      out += "[" + std::to_string(i) + "] " + stamp(events[i]);
      out += '\n';
    }
  }
  return out;
}

}  // namespace eternal::obs
