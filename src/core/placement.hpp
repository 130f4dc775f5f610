// Ring placement: maps object groups onto independent Totem rings.
//
// One Totem ring is a single token — a hard ceiling on aggregate ordered
// throughput no matter how many groups share it. The scale-out answer is to
// partition the object space across N independent rings: consistency in this
// system is *per group* (per-sender FIFO within a group's clients, total
// order within the group's envelopes), so disjoint groups can ride disjoint
// orderings without weakening any guarantee the paper makes. A group lives
// on exactly one ring for its whole life; every envelope about a group —
// requests, replies, state transfer, control, fault reports — is multicast
// on that group's ring and nowhere else.
//
// The map itself is a consistent hash over group ids with an explicit pin
// override table. Consistent hashing keeps the map stable as rings are
// added: growing from N to N+1 rings moves only ~1/(N+1) of the groups
// (tests/core/placement_test.cpp proves the bound), so a future live
// rebalance migrates a bounded slice of the object space. Pins let a
// deployment co-locate groups that invoke each other or isolate a hot group
// onto a dedicated ring, overriding the hash unconditionally.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "util/ids.hpp"

namespace eternal::core {

struct RingPlacementConfig {
  /// Independent Totem rings the object space is partitioned across.
  /// 1 = the classic single-ring system (every group maps to ring 0).
  std::size_t rings = 1;
  /// Virtual points each ring contributes to the hash circle. More points
  /// flatten the load spread across rings at the cost of a larger (still
  /// tiny) sorted table.
  std::size_t virtual_points = 64;
  /// Explicit overrides: group id → ring index. A pin wins over the hash
  /// unconditionally. Pinning to a ring index >= rings is rejected at
  /// construction — the ring does not exist, so no replica could ever join
  /// the ordering domain the group would be routed to.
  std::map<std::uint32_t, std::uint32_t> pins;
};

/// Immutable group→ring map shared by the deployment layer and every node's
/// Mechanisms (all nodes must agree on it, exactly like the paper's
/// deterministic placement decisions).
class RingPlacement {
 public:
  /// Throws std::invalid_argument on zero rings/points and std::out_of_range
  /// on a pin naming a nonexistent ring.
  explicit RingPlacement(RingPlacementConfig config = RingPlacementConfig{});

  std::size_t rings() const noexcept { return config_.rings; }

  /// The ring that orders every envelope about `group`. Deterministic pure
  /// function of (config, group), identical on every node. Memoised: the
  /// first lookup of a group walks the hash circle, later ones read a table.
  std::uint32_t ring_of(util::GroupId group) const;

  /// Post-construction pin (deployment-time override). Same validation as
  /// config pins; takes effect for all subsequent lookups (it drops the
  /// memo table).
  void pin(util::GroupId group, std::uint32_t ring);

  const RingPlacementConfig& config() const noexcept { return config_; }

 private:
  /// The uncached placement: pin, else the clockwise walk.
  std::uint32_t place(util::GroupId group) const;

  static constexpr std::uint32_t kUnset = ~std::uint32_t{0};
  /// Group ids at or above this are placed on every lookup instead of
  /// growing the memo table. Deployments allocate ids densely from 1, but
  /// lookups also take ids from decoded envelopes, which may be corrupt.
  static constexpr std::uint32_t kMemoLimit = 1u << 16;

  RingPlacementConfig config_;
  /// Sorted hash circle: (point, ring index). Lookup walks clockwise to the
  /// first point at or past the group's hash.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> circle_;
  /// group id → ring, kUnset until first looked up. Grows on demand.
  mutable std::vector<std::uint32_t> memo_;
};

}  // namespace eternal::core
