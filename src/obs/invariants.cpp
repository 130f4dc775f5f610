#include "obs/invariants.hpp"

#include <algorithm>
#include <cstdint>
#include <set>
#include <sstream>
#include <unordered_map>

namespace eternal::obs {
namespace {

std::string stamp(const TraceEvent& ev) {
  std::ostringstream os;
  os << "t=" << ev.sim_time.count() << "ns node=" << ev.node.value << " ["
     << to_string(ev.layer) << "/" << ev.kind << " seq=" << ev.seq << " "
     << ev.detail << "]";
  return os.str();
}

std::string lookup(const std::map<std::string, std::string, std::less<>>& kv,
                   std::string_view key) {
  auto it = kv.find(key);
  return it == kv.end() ? std::string() : it->second;
}

/// Per-(node, ring) Totem delivery cursor (rule 1). Keyed by ring as well
/// as node: with multiple rings a node's deliveries interleave across them,
/// and a node-global cursor would flip between rings on every event and
/// never see two consecutive deliveries of the same ring to compare.
struct DeliveryCursor {
  std::uint64_t seq = 0;
  bool has_delivered = false;
  bool install_since = false;
};

/// First-observer record for a (ring, seq) frame (rule 1 agreement).
struct FrameIdentity {
  std::string origin;
  std::string view;
  std::string digest;
  std::string size;
  std::uint32_t first_node = 0;
};

/// Per-replica servant history (rules 2 and 4). Keyed by ReplicaId, which
/// is unique per incarnation, so a relaunched replica legitimately re-sees
/// operations its predecessor executed.
struct ReplicaHistory {
  std::set<std::string> injected_ops;       // rule 2: op identity set
  std::vector<std::string> enqueued_order;  // rule 4: recorded total order
  std::vector<std::string> injected_order;  // rule 4: execution order
  /// Per injected op: the trace-event index of its request_inject record
  /// and the execution phase it was injected under (every FOM injection
  /// stamps "fom_phase=..." into the detail; older streams have none). A
  /// replay-order violation reports both, so the offending operation is
  /// locatable in the stream and attributable to a phase.
  std::vector<std::size_t> injected_index;  // rule 4: event of each injection
  std::vector<std::string> injected_phase;  // rule 4: phase of each injection
  std::uint32_t node = 0;
  std::string group;
};

}  // namespace

std::map<std::string, std::string, std::less<>> parse_detail(std::string_view detail) {
  std::map<std::string, std::string, std::less<>> kv;
  std::size_t pos = 0;
  while (pos < detail.size()) {
    std::size_t end = detail.find(' ', pos);
    if (end == std::string_view::npos) end = detail.size();
    std::string_view token = detail.substr(pos, end - pos);
    std::size_t eq = token.find('=');
    if (eq != std::string_view::npos && eq > 0)
      kv.emplace(std::string(token.substr(0, eq)), std::string(token.substr(eq + 1)));
    pos = end + 1;
  }
  return kv;
}

std::vector<Violation> InvariantChecker::check(const std::vector<TraceEvent>& events) {
  std::vector<Violation> out;

  // Rule 1 state, keyed "node/ring".
  std::map<std::string, DeliveryCursor> cursors;
  std::map<std::string, FrameIdentity> frames;  // "ring/seq" -> identity

  // Rule 3 state: "ring/group" -> replica -> phase, for passive-style groups
  // only. Keyed by ring too: a sharded system scopes primary uniqueness to
  // the ordering domain that elects the primary, not to the whole fleet.
  std::map<std::string, std::map<std::string, std::string>> group_phases;
  std::set<std::string> passive_groups;

  // Rules 2 and 4 state.
  std::map<std::string, ReplicaHistory> replicas;  // keyed by replica id

  for (std::size_t idx = 0; idx < events.size(); ++idx) {
    const auto& ev = events[idx];
    if (ev.layer == Layer::kTotem && ev.kind == "view_install") {
      // A membership change legitimises a sequence-number jump on every
      // member that installed it; remote nodes' cursors — and the node's
      // cursors on its *other* rings — are untouched.
      auto kv = parse_detail(ev.detail);
      cursors[std::to_string(ev.node.value) + "/" + lookup(kv, "ring")].install_since =
          true;
      continue;
    }

    if (ev.layer == Layer::kTotem && ev.kind == "deliver") {
      auto kv = parse_detail(ev.detail);
      const std::string ring = lookup(kv, "ring");

      DeliveryCursor& cur = cursors[std::to_string(ev.node.value) + "/" + ring];
      if (cur.has_delivered && !cur.install_since && ev.seq != cur.seq + 1) {
        out.push_back({"delivery-gap",
                       "node " + std::to_string(ev.node.value) + " jumped from seq " +
                           std::to_string(cur.seq) + " to " + std::to_string(ev.seq) +
                           " on ring " + ring + " with no view install: " + stamp(ev),
                       idx,
                       {}});
      }
      cur.seq = ev.seq;
      cur.has_delivered = true;
      cur.install_since = false;

      FrameIdentity id{lookup(kv, "origin"), lookup(kv, "view"), lookup(kv, "digest"),
                       lookup(kv, "size"), ev.node.value};
      auto [it, inserted] = frames.emplace(ring + "/" + std::to_string(ev.seq), id);
      if (!inserted) {
        const FrameIdentity& seen = it->second;
        if (seen.origin != id.origin || seen.view != id.view ||
            seen.digest != id.digest || seen.size != id.size) {
          out.push_back(
              {"order-agreement",
               "ring " + ring + " seq " + std::to_string(ev.seq) +
                   " delivered with different identity than node " +
                   std::to_string(seen.first_node) + " saw (origin " + seen.origin +
                   "/" + id.origin + " digest " + seen.digest + "/" + id.digest +
                   "): " + stamp(ev),
               idx,
               {}});
        }
      }
      continue;
    }

    if (ev.layer != Layer::kMech) continue;

    if (ev.kind == "phase") {
      auto kv = parse_detail(ev.detail);
      const std::string group = lookup(kv, "group");
      const std::string style = lookup(kv, "style");
      if (style == "active" || group.empty()) continue;
      passive_groups.insert(group);
      // "ring=" appears in the detail only on multi-ring deployments; its
      // absence means the classic single ring and all groups share one scope.
      auto& phases = group_phases[lookup(kv, "ring") + "/" + group];
      phases[lookup(kv, "replica")] = lookup(kv, "phase");
      std::vector<std::string> primaries;
      for (const auto& [replica, phase] : phases)
        if (phase == "operational") primaries.push_back(replica);
      if (primaries.size() > 1) {
        std::string list;
        for (const auto& r : primaries) list += (list.empty() ? "" : ",") + r;
        out.push_back({"multi-primary",
                       "passive group " + group + " has " +
                           std::to_string(primaries.size()) +
                           " operational primaries (" + list + "): " + stamp(ev),
                       idx,
                       {}});
      }
      continue;
    }

    if (ev.kind == "enqueue") {
      auto kv = parse_detail(ev.detail);
      ReplicaHistory& hist = replicas[lookup(kv, "replica")];
      hist.node = ev.node.value;
      hist.group = lookup(kv, "group");
      hist.enqueued_order.push_back(lookup(kv, "client") + "#" + lookup(kv, "op_seq"));
      continue;
    }

    if (ev.kind == "request_inject") {
      auto kv = parse_detail(ev.detail);
      ReplicaHistory& hist = replicas[lookup(kv, "replica")];
      hist.node = ev.node.value;
      hist.group = lookup(kv, "group");
      const std::string op = lookup(kv, "client") + "#" + lookup(kv, "op_seq");
      if (!hist.injected_ops.insert(op).second) {
        out.push_back({"duplicate-op",
                       "operation " + op + " delivered twice to replica " +
                           lookup(kv, "replica") + ": " + stamp(ev),
                       idx,
                       {}});
      }
      hist.injected_order.push_back(op);
      hist.injected_index.push_back(idx);
      const std::string phase = lookup(kv, "fom_phase");
      hist.injected_phase.push_back(phase.empty() ? "sync-upcall" : phase);
      continue;
    }
  }

  // Rule 4: each replica's execution order must be an in-order subsequence
  // of its enqueue order (operations may still be pending at trace end, and
  // duplicates never reach the queue, but nothing may execute out of order).
  for (const auto& [replica, hist] : replicas) {
    std::size_t cursor = 0;
    for (std::size_t i = 0; i < hist.injected_order.size(); ++i) {
      const std::string& op = hist.injected_order[i];
      while (cursor < hist.enqueued_order.size() && hist.enqueued_order[cursor] != op)
        ++cursor;
      if (cursor == hist.enqueued_order.size()) {
        Violation v;
        v.rule = "replay-order";
        v.event_index = hist.injected_index[i];
        v.phase = hist.injected_phase[i];
        v.message = "replica " + replica + " (group " + hist.group + ", node " +
                    std::to_string(hist.node) + ") executed " + op +
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
