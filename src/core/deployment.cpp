#include "core/deployment.hpp"

#include <algorithm>
#include <stdexcept>

namespace eternal::core {

System::System(SystemConfig config)
    : config_(config), placement_(config.placement) {
  if (config_.nodes == 0) throw std::invalid_argument("System: need at least one node");
  // Attach the observability sinks before any node's stack is constructed —
  // layers cache their instruments at construction, against this registry.
  sim_.recorder().attach_metrics(&metrics_);
  if (config_.trace_capacity > 0) {
    trace_ = std::make_unique<obs::TraceBuffer>(config_.trace_capacity);
    sim_.recorder().attach_trace(trace_.get());
  }
  if (config_.span_capacity > 0) {
    spans_ = std::make_unique<obs::SpanStore>(config_.span_capacity);
    sim_.recorder().attach_spans(spans_.get());
  }
  // One Ethernet segment per ring: each ring is its own switched multicast
  // domain, so aggregate bandwidth scales with the ring count instead of
  // every ring's tokens and frames contending on one shared medium.
  const std::size_t n_rings = placement_.rings();
  ethernets_.reserve(n_rings);
  for (std::size_t r = 0; r < n_rings; ++r) {
    ethernets_.push_back(std::make_unique<sim::Ethernet>(
        sim_, config_.ethernet, config_.seed + 0x9E3779B9ull * r));
  }
  bulk_lane_ = std::make_unique<sim::BulkLane>(sim_, config_.bulk_lane,
                                               config_.seed ^ 0xb11cu);

  std::vector<NodeId> members;
  members.reserve(config_.nodes);
  for (std::size_t i = 1; i <= config_.nodes; ++i)
    members.push_back(NodeId{(std::uint32_t)i});

  // Mechanisms needs its TotemNodes and vice versa; per-ring listener shims
  // break the construction-order cycle and tag each delivery with the ring
  // it arrived on.
  struct Shim : totem::TotemListener {
    Mechanisms* target = nullptr;
    std::uint32_t ring = 0;
    void on_deliver(const totem::Delivery& d) override {
      if (target != nullptr) target->on_deliver_on(ring, d);
    }
    void on_view_change(const totem::View& v) override {
      if (target != nullptr) target->on_view_change_on(ring, v);
    }
    bool output_imminent() const override {
      return target != nullptr && target->output_imminent_on(ring);
    }
  };

  slots_.reserve(config_.nodes);
  for (NodeId id : members) {
    NodeSlot s;
    s.id = id;
    s.orb = std::make_unique<orb::Orb>(sim_, id, config_.orb);
    s.tap = std::make_unique<interceptor::Interceptor>(*s.orb);
    s.tap->bind_recorder(sim_.recorder());
    s.orb->plug_transport(*s.tap);
    std::vector<Shim*> node_shims;
    std::vector<totem::TotemNode*> endpoints;
    for (std::size_t r = 0; r < n_rings; ++r) {
      auto shim = std::make_shared<Shim>();
      shim->ring = static_cast<std::uint32_t>(r);
      node_shims.push_back(shim.get());
      shims_.push_back(shim);
      totem::TotemConfig tcfg = config_.totem;
      tcfg.ring_index = static_cast<std::uint32_t>(r);
      s.totems.push_back(std::make_unique<totem::TotemNode>(
          sim_, *ethernets_[r], id, tcfg, shim.get()));
      endpoints.push_back(s.totems.back().get());
    }
    MechanismsConfig mech_cfg = config_.mechanisms;
    if (!config_.stable_storage_root.empty()) {
      mech_cfg.stable_storage_dir =
          config_.stable_storage_root + "/node-" + std::to_string(id.value);
    }
    s.mech = std::make_unique<Mechanisms>(sim_, id, *s.tap, std::move(endpoints),
                                          &placement_, mech_cfg);
    s.mech->set_bulk_lane(bulk_lane_.get());
    bulk_lane_->attach(id, s.mech.get());
    for (Shim* shim : node_shims) shim->target = s.mech.get();
    s.manager = std::make_unique<ReplicationManager>(*s.mech, *s.totems.front());
    slots_.push_back(std::move(s));
  }
  for (NodeSlot& s : slots_) {
    for (auto& endpoint : s.totems) endpoint->start(members);
  }
  sim_.run_for(util::Duration(1'000'000));  // let the first token circulate
}

System::~System() = default;

System::NodeSlot& System::slot(NodeId node) {
  for (NodeSlot& s : slots_) {
    if (s.id == node) return s;
  }
  throw std::out_of_range("System: unknown node");
}

std::vector<NodeId> System::all_nodes() const {
  std::vector<NodeId> out;
  out.reserve(slots_.size());
  for (const NodeSlot& s : slots_) out.push_back(s.id);
  return out;
}

GroupId System::deploy(const std::string& object_id, const std::string& type_id,
                       const FtProperties& properties, const std::vector<NodeId>& placement,
                       FactoryFn factory, std::vector<NodeId> backup_nodes) {
  if (placement.empty()) throw std::invalid_argument("System: empty placement");
  // Allocate past any group id the system already knows (e.g. groups
  // restored from stable storage after a whole-system restart).
  for (const NodeSlot& s : slots_) {
    for (const auto& [id, entry] : s.mech->groups().groups()) {
      next_group_ = std::max(next_group_, id + 1);
    }
  }
  const GroupId group{next_group_++};

  GroupDescriptor desc;
  desc.id = group;
  desc.object_id = object_id;
  desc.type_id = type_id;
  desc.properties = properties;
  desc.backup_nodes = backup_nodes.empty() ? all_nodes() : backup_nodes;

  std::vector<ReplicaInfo> members;
  for (NodeId n : placement) {
    ReplicaInfo m;
    m.id = mech(n).allocate_replica_id();
    m.node = n;
    m.status = ReplicaStatus::kOperational;
    members.push_back(m);
  }

  for (NodeId n : placement) {
    mech(n).register_factory(group, [factory, n] { return factory(n); });
  }
  for (NodeId n : desc.backup_nodes) {
    if (std::find(placement.begin(), placement.end(), n) != placement.end()) continue;
    mech(n).register_factory(group, [factory, n] { return factory(n); });
  }

  mech(placement.front()).create_group(desc, members);

  const bool live = run_until(
      [this, group, &placement] {
        return std::all_of(placement.begin(), placement.end(), [this, group](NodeId n) {
          return mech(n).hosts_operational(group);
        });
      },
      util::Duration(500'000'000));
  if (!live) throw std::runtime_error("System: group failed to deploy");
  return group;
}

GroupId System::deploy_client(const std::string& object_id, NodeId node,
                              const std::vector<GroupId>& targets) {
  FtProperties props;
  props.style = ReplicationStyle::kActive;
  props.initial_replicas = 1;
  props.minimum_replicas = 1;
  const GroupId group =
      deploy(object_id, "IDL:EternalClientApp:1.0", props, {node},
             [](NodeId) { return std::make_shared<NullServant>(); }, {node});
  for (GroupId target : targets) bind_client(node, group, target);
  return group;
}

void System::bind_client(NodeId node, GroupId client_group, GroupId server_group) {
  mech(node).bind_client(client_group, server_group);
}

orb::ObjectRef System::client(NodeId node, GroupId target) {
  return orb(node).resolve(ior_of(target));
}

giop::Ior System::ior_of(GroupId group) {
  for (NodeSlot& s : slots_) {
    if (s.mech->groups().find(group) != nullptr) return s.mech->group_ior(group);
  }
  throw std::out_of_range("System: unknown group");
}

void System::kill_replica(NodeId node, GroupId group) { mech(node).kill_replica(group); }

ReplicaId System::relaunch_replica(NodeId node, GroupId group) {
  return mech(node).launch_replica(group);
}

void System::crash_node(NodeId node) {
  NodeSlot& s = slot(node);
  for (auto& endpoint : s.totems) endpoint->crash();
  // Replicas hosted here die with the processor; peers find out through the
  // view change on every ring the node was a member of. Locally we just
  // silence the node — on both media: a crashed processor neither sources
  // nor sinks bulk-lane traffic.
  bulk_lane_->detach(node);
  s.orb->reset_connections();
}

void System::crash_ring_member(NodeId node, std::size_t ring) {
  // Only the one ring endpoint dies. The node itself stays up: its ORB
  // keeps serving, its bulk lane keeps flowing, and its endpoints on every
  // other ring keep circulating their tokens — those rings must observe
  // nothing at all.
  slot(node).totems.at(ring)->crash();
}

bool System::run_until(const std::function<bool()>& predicate, util::Duration timeout,
                       util::Duration poll) {
  const util::TimePoint deadline = sim_.now() + timeout;
  while (true) {
    if (predicate()) return true;
    if (sim_.now() >= deadline) return false;
    sim_.run_for(std::min(poll, deadline - sim_.now()));
  }
}

}  // namespace eternal::core
