// Deployment façade: assembles a complete simulated Eternal system.
//
// One `System` is a network of processors, each running the full paper
// stack — an unmodified mini-ORB plugged into an Interceptor, the
// Replication/Recovery Mechanisms, one Totem ring endpoint per configured
// ring, and a Replication Manager — all inside one deterministic
// discrete-event simulation. Tests, examples and benchmarks use this façade
// to deploy replicated objects, drive workloads, inject faults and measure
// recovery.
//
// Multi-ring scale-out (core/placement.hpp): with `placement.rings > 1` the
// object space is partitioned across independent Totem rings. Every node
// joins every ring, each ring is its own switched multicast domain (its own
// simulated Ethernet segment — the single-segment model would make the
// shared medium, not the token, the bottleneck), and every envelope about a
// group rides exactly the ring the placement assigns that group to. Rings
// fail, reform and flow-control independently; a reformation on ring 2
// never stalls ring 0. With the default single ring the system is
// behaviour-identical to the classic deployment.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/mechanisms.hpp"
#include "core/placement.hpp"
#include "core/replication_manager.hpp"
#include "interceptor/interceptor.hpp"
#include "obs/invariants.hpp"
#include "obs/metrics.hpp"
#include "obs/spans.hpp"
#include "obs/trace.hpp"
#include "orb/orb.hpp"
#include "sim/bulk_lane.hpp"
#include "sim/ethernet.hpp"
#include "sim/simulator.hpp"
#include "totem/totem.hpp"

namespace eternal::core {

struct SystemConfig {
  std::size_t nodes = 4;
  std::uint64_t seed = 42;
  sim::EthernetConfig ethernet;
  /// Out-of-band bulk data lane (always constructed so chaos scripts can
  /// fault it; carries traffic only when mechanisms.bulk_lane is on).
  sim::BulkLaneConfig bulk_lane;
  totem::TotemConfig totem;
  orb::OrbConfig orb;  ///< all nodes run the same vendor's ORB (paper §4.2)
  MechanismsConfig mechanisms;
  /// Group→ring partition (core/placement.hpp). rings = 1 (default) is the
  /// classic single-ring system; rings = N instantiates N independent Totem
  /// rings, each on its own Ethernet segment, every node joining all of
  /// them. Pins must name existing rings (the System constructor throws
  /// otherwise — a pinned group would be routed to an ordering domain no
  /// replica ever joins).
  RingPlacementConfig placement;
  /// When non-empty, each node persists its passive logs under
  /// <root>/node-<id>, enabling whole-system restarts via
  /// Mechanisms::restore_from_storage().
  std::string stable_storage_root;
  /// When non-zero, the System owns a TraceBuffer of this many events and
  /// every layer records structured trace events into it (see src/obs/).
  /// Size it to hold the whole run if the stream feeds the InvariantChecker.
  /// Metrics are always collected; tracing is what this opts into.
  std::size_t trace_capacity = 0;
  /// When non-zero, the System owns a SpanStore of this many spans: each
  /// client invocation gets a causal trace id, which every hop derives from
  /// the envelope it handles through ordering, delivery and reply, and every
  /// recovery is profiled into Figure-5 phase spans. Off by default; a
  /// span-on run sends the same bytes at the same virtual times as a
  /// span-off one.
  std::size_t span_capacity = 0;
};

/// A trivial servant for pure-client application objects: it never receives
/// requests; it exists so the client side is itself a (possibly singleton)
/// object group, exactly as the paper replicates client objects.
class NullServant : public orb::Servant {
 public:
  void invoke(orb::ServerRequestPtr request) override { request->reply(util::Bytes{}); }
};

class System {
 public:
  /// Builds per-node servants; called once per hosting node.
  using FactoryFn = std::function<std::shared_ptr<orb::Servant>(NodeId)>;

  explicit System(SystemConfig config = SystemConfig{});
  ~System();

  System(const System&) = delete;
  System& operator=(const System&) = delete;

  sim::Simulator& sim() noexcept { return sim_; }
  /// Ring `ring`'s Ethernet segment (each ring is its own multicast domain).
  /// The no-argument form is ring 0 — the only segment of a classic system.
  sim::Ethernet& ethernet(std::size_t ring = 0) { return *ethernets_.at(ring); }
  /// The out-of-band bulk data lane: one point-to-point fabric shared by all
  /// rings (lane traffic is unordered and per-group, so it needs no
  /// per-ring isolation).
  sim::BulkLane& bulk_lane() noexcept { return *bulk_lane_; }
  const SystemConfig& config() const noexcept { return config_; }

  /// Number of independent Totem rings (SystemConfig::placement).
  std::size_t rings() const noexcept { return placement_.rings(); }
  const RingPlacement& placement() const noexcept { return placement_; }
  /// The ring that orders every envelope about `group`.
  std::uint32_t ring_of(GroupId group) const { return placement_.ring_of(group); }

  /// System-wide metrics registry (always live; JSON via metrics().to_json()).
  obs::MetricsRegistry& metrics() noexcept { return metrics_; }
  const obs::MetricsRegistry& metrics() const noexcept { return metrics_; }
  /// Trace-event stream; null unless SystemConfig::trace_capacity > 0.
  obs::TraceBuffer* trace() noexcept { return trace_.get(); }
  const obs::TraceBuffer* trace() const noexcept { return trace_.get(); }
  /// Causal span store; null unless SystemConfig::span_capacity > 0.
  obs::SpanStore* spans() noexcept { return spans_.get(); }
  const obs::SpanStore* spans() const noexcept { return spans_.get(); }

  /// All node ids (1..N).
  std::vector<NodeId> all_nodes() const;

  orb::Orb& orb(NodeId node) { return *slot(node).orb; }
  Mechanisms& mech(NodeId node) { return *slot(node).mech; }
  /// `node`'s Totem endpoint on `ring` (default: ring 0, the classic ring).
  totem::TotemNode& totem(NodeId node, std::size_t ring = 0) {
    return *slot(node).totems.at(ring);
  }
  interceptor::Interceptor& tap(NodeId node) { return *slot(node).tap; }
  ReplicationManager& manager(NodeId node) { return *slot(node).manager; }

  // ------------------------------------------------------------- deployment

  /// Deploys a replicated object: registers `factory` on the placement and
  /// backup nodes, multicasts group creation, and runs the simulation until
  /// every initial replica is live. Returns the new group id.
  GroupId deploy(const std::string& object_id, const std::string& type_id,
                 const FtProperties& properties, const std::vector<NodeId>& placement,
                 FactoryFn factory, std::vector<NodeId> backup_nodes = {});

  /// Deploys a singleton pure-client group on `node` (see NullServant) and
  /// binds it as the issuer of invocations to each target group.
  GroupId deploy_client(const std::string& object_id, NodeId node,
                        const std::vector<GroupId>& targets);

  /// Declares that the replica of `client_group` on `node` is the issuer of
  /// this node's invocations on `server_group`.
  void bind_client(NodeId node, GroupId client_group, GroupId server_group);

  /// Client stub for a replicated object, resolved through `node`'s ORB.
  orb::ObjectRef client(NodeId node, GroupId target);

  giop::Ior ior_of(GroupId group);

  // ---------------------------------------------------------------- faults

  /// Kills the replica of `group` hosted on `node` (process kill).
  void kill_replica(NodeId node, GroupId group);

  /// Relaunches a replica of `group` on `node`; recovery starts immediately.
  ReplicaId relaunch_replica(NodeId node, GroupId group);

  /// Crashes a whole processor: every ring endpoint it runs detaches and
  /// every replica it hosts dies with it (detected via view changes on each
  /// ring it was a member of).
  void crash_node(NodeId node);

  /// Crashes one ring endpoint of an otherwise healthy processor (a totem
  /// daemon dies; the node's ORB, Mechanisms, and its endpoints on every
  /// other ring keep running). Ring `ring` reforms without the node and its
  /// replicas of that ring's groups are removed; other rings see nothing —
  /// the fault-isolation property the multi-ring chaos scenario asserts.
  void crash_ring_member(NodeId node, std::size_t ring);

  // --------------------------------------------------------------- running

  void run_for(util::Duration d) { sim_.run_for(d); }

  /// Runs until `predicate` holds or `timeout` of virtual time elapses.
  /// Returns whether the predicate held.
  bool run_until(const std::function<bool()>& predicate, util::Duration timeout,
                 util::Duration poll = util::Duration(100'000));

 private:
  struct NodeSlot {
    NodeId id;
    std::unique_ptr<orb::Orb> orb;
    std::unique_ptr<interceptor::Interceptor> tap;
    std::vector<std::unique_ptr<totem::TotemNode>> totems;  ///< one per ring
    std::unique_ptr<Mechanisms> mech;
    std::unique_ptr<ReplicationManager> manager;
  };

  NodeSlot& slot(NodeId node);

  SystemConfig config_;
  RingPlacement placement_;
  obs::MetricsRegistry metrics_;
  std::unique_ptr<obs::TraceBuffer> trace_;
  std::unique_ptr<obs::SpanStore> spans_;
  sim::Simulator sim_;
  std::vector<std::unique_ptr<sim::Ethernet>> ethernets_;  ///< one per ring
  std::unique_ptr<sim::BulkLane> bulk_lane_;
  std::vector<NodeSlot> slots_;
  std::vector<std::shared_ptr<totem::TotemListener>> shims_;
  std::uint32_t next_group_ = 1;
};

}  // namespace eternal::core
