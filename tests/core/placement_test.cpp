// RingPlacement (core/placement.hpp): the consistent-hash group→ring map,
// plus the multi-ring System deployment it drives — groups partitioned
// across independent Totem rings must behave exactly like the classic
// system from any one group's point of view.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "core/deployment.hpp"
#include "core/placement.hpp"
#include "support/counter_servant.hpp"
#include "support/invariant_helpers.hpp"

namespace eternal {
namespace {

using core::FtProperties;
using core::ReplicationStyle;
using core::RingPlacement;
using core::RingPlacementConfig;
using core::System;
using core::SystemConfig;
using test_support::CounterServant;
using util::Duration;
using util::GroupId;
using util::NodeId;

RingPlacementConfig ring_cfg(std::size_t rings, std::size_t points = 64) {
  RingPlacementConfig cfg;
  cfg.rings = rings;
  cfg.virtual_points = points;
  return cfg;
}

TEST(RingPlacement, SingleRingMapsEverythingToRingZero) {
  RingPlacement p;
  EXPECT_EQ(p.rings(), 1u);
  for (std::uint32_t g = 1; g < 100; ++g) EXPECT_EQ(p.ring_of(GroupId{g}), 0u);
}

TEST(RingPlacement, SpreadsGroupsAcrossRings) {
  RingPlacement p(ring_cfg(4));
  std::map<std::uint32_t, std::size_t> census;
  constexpr std::uint32_t kGroups = 400;
  for (std::uint32_t g = 1; g <= kGroups; ++g) {
    const std::uint32_t ring = p.ring_of(GroupId{g});
    ASSERT_LT(ring, 4u);
    census[ring] += 1;
  }
  // Every ring carries a meaningful share: none starved below a quarter of
  // the fair share, none hoarding more than double it.
  for (std::uint32_t r = 0; r < 4; ++r) {
    EXPECT_GT(census[r], kGroups / 16) << "ring " << r << " starved";
    EXPECT_LT(census[r], kGroups / 2) << "ring " << r << " overloaded";
  }
}

TEST(RingPlacement, DeterministicAcrossInstances) {
  // All nodes build their own RingPlacement from the shared config; the map
  // must not depend on construction order, addresses, or any ambient state.
  RingPlacementConfig cfg = ring_cfg(3, 32);
  cfg.pins[7] = 2;
  RingPlacement a(cfg), b(cfg);
  for (std::uint32_t g = 1; g <= 500; ++g)
    ASSERT_EQ(a.ring_of(GroupId{g}), b.ring_of(GroupId{g})) << "group " << g;
}

TEST(RingPlacement, AddingARingMovesABoundedSliceOfGroups) {
  // The consistent-hash property: growing N → N+1 rings relocates only
  // ~1/(N+1) of the groups. A modulo map would move ~N/(N+1) of them.
  constexpr std::uint32_t kGroups = 1000;
  for (std::size_t n : {2u, 4u, 8u}) {
    RingPlacement before(ring_cfg(n));
    RingPlacement after(ring_cfg(n + 1));
    std::size_t moved = 0;
    for (std::uint32_t g = 1; g <= kGroups; ++g) {
      if (before.ring_of(GroupId{g}) != after.ring_of(GroupId{g})) moved += 1;
    }
    // Expected movement is kGroups/(n+1); allow 2x slack for hash variance
    // but stay far below the ~kGroups*n/(n+1) a naive modulo map would show.
    EXPECT_LT(moved, 2 * kGroups / (n + 1)) << n << " -> " << n + 1 << " rings";
    EXPECT_GT(moved, 0u) << "new ring " << n << " never took ownership";
  }
}

TEST(RingPlacement, PinsWinOverTheHash) {
  RingPlacementConfig cfg = ring_cfg(4);
  RingPlacement hashed(cfg);
  // Pin every group to the ring the hash would NOT pick.
  for (std::uint32_t g = 1; g <= 32; ++g)
    cfg.pins[g] = (hashed.ring_of(GroupId{g}) + 1) % 4;
  RingPlacement pinned(cfg);
  for (std::uint32_t g = 1; g <= 32; ++g) {
    EXPECT_EQ(pinned.ring_of(GroupId{g}), (hashed.ring_of(GroupId{g}) + 1) % 4);
  }
  // Unpinned groups are untouched by the pin table.
  for (std::uint32_t g = 100; g <= 120; ++g)
    EXPECT_EQ(pinned.ring_of(GroupId{g}), hashed.ring_of(GroupId{g}));
}

TEST(RingPlacement, FirstGroupsLandWhereTheyAlwaysHave) {
  // Placement is part of every deployment's wire behaviour (envelopes carry
  // the ring index), so the hash walk may never change silently. Values
  // computed on a little-endian host (hash inputs are host-order words).
  const std::vector<std::uint32_t> two = {0, 1, 0, 1, 1, 0, 0, 1, 0, 0, 1, 1,
                                          0, 0, 0, 0, 1, 0, 1, 1, 0, 1, 1, 0};
  const std::vector<std::uint32_t> four = {2, 1, 3, 3, 2, 3, 0, 2, 0, 0, 2, 3,
                                           3, 2, 2, 0, 2, 2, 2, 1, 2, 2, 1, 3};
  const RingPlacement p2(ring_cfg(2));
  const RingPlacement p4(ring_cfg(4));
  for (int pass = 0; pass < 2; ++pass) {  // first lookup, then the memo
    for (std::uint32_t g = 1; g <= 24; ++g) {
      EXPECT_EQ(p2.ring_of(GroupId{g}), two[g - 1]) << "group " << g;
      EXPECT_EQ(p4.ring_of(GroupId{g}), four[g - 1]) << "group " << g;
    }
  }
}

TEST(RingPlacement, LatePinOverridesAnEarlierLookup) {
  RingPlacement placement(ring_cfg(4));
  const RingPlacement reference(ring_cfg(4));
  // Looked up first (memoised), pinned afterwards: the pin must win.
  for (std::uint32_t g = 1; g <= 32; ++g) (void)placement.ring_of(GroupId{g});
  for (std::uint32_t g = 1; g <= 32; g += 2) {
    placement.pin(GroupId{g}, (reference.ring_of(GroupId{g}) + 1) % 4);
  }
  for (std::uint32_t g = 1; g <= 32; ++g) {
    const std::uint32_t hashed = reference.ring_of(GroupId{g});
    EXPECT_EQ(placement.ring_of(GroupId{g}), g % 2 == 1 ? (hashed + 1) % 4 : hashed) << g;
  }
}

TEST(RingPlacement, RejectsImpossibleConfigurations) {
  EXPECT_THROW(RingPlacement(ring_cfg(0)), std::invalid_argument);
  EXPECT_THROW(RingPlacement(ring_cfg(2, 0)), std::invalid_argument);
  // A pin naming a nonexistent ring would route the group to an ordering
  // domain no replica ever joins — rejected at construction, and again on
  // late pin() calls.
  RingPlacementConfig bad = ring_cfg(2);
  bad.pins[5] = 2;
  EXPECT_THROW(RingPlacement{bad}, std::out_of_range);
  RingPlacement ok(ring_cfg(2));
  EXPECT_THROW(ok.pin(GroupId{5}, 2), std::out_of_range);
  // The System constructor enforces the same rule for whole deployments.
  SystemConfig sys_cfg;
  sys_cfg.placement.rings = 2;
  sys_cfg.placement.pins[1] = 7;
  EXPECT_THROW(System{sys_cfg}, std::out_of_range);
}

TEST(RingPlacement, MultiRingSystemServesGroupsOnEveryRing) {
  SystemConfig cfg;
  cfg.nodes = 4;
  cfg.placement.rings = 2;
  cfg.trace_capacity = 200'000;
  System sys(cfg);
  ASSERT_EQ(sys.rings(), 2u);

  FtProperties props;
  props.style = ReplicationStyle::kActive;
  props.initial_replicas = 2;
  props.minimum_replicas = 1;

  // Deploy groups until both rings own at least one, pinning nothing — the
  // hash spreads them.
  std::vector<GroupId> groups;
  std::set<std::uint32_t> rings_used;
  for (int i = 0; i < 6 && rings_used.size() < 2; ++i) {
    const GroupId g = sys.deploy(
        "counter" + std::to_string(i), "IDL:Counter:1.0", props,
        {NodeId{1}, NodeId{2}},
        [&](NodeId) { return std::make_shared<CounterServant>(sys.sim()); });
    groups.push_back(g);
    rings_used.insert(sys.ring_of(g));
  }
  ASSERT_EQ(rings_used.size(), 2u) << "hash never used the second ring";

  // One client invokes a group on each ring; both invocations complete.
  sys.deploy_client("driver", NodeId{4}, groups);
  int done = 0;
  for (GroupId g : groups) {
    sys.client(NodeId{4}, g).invoke(
        "inc", CounterServant::encode_i32(1), [&](const orb::ReplyOutcome& out) {
          EXPECT_EQ(out.status, giop::ReplyStatus::kNoException);
          done += 1;
        });
  }
  ASSERT_TRUE(sys.run_until([&] { return done == (int)groups.size(); },
                            Duration(200'000'000)));

  // Kill a replica and let the per-ring manager relaunch it: recovery is
  // scoped to the owning ring's machinery.
  sys.kill_replica(NodeId{1}, groups.front());
  ASSERT_TRUE(sys.run_until(
      [&] { return sys.mech(NodeId{1}).hosts_operational(groups.front()) ||
                   sys.mech(NodeId{2}).hosts_operational(groups.front()); },
      Duration(500'000'000)));

  test_support::expect_invariants_hold(sys);
}

TEST(RingPlacement, RingEndpointCrashLeavesOtherRingsUntouched) {
  SystemConfig cfg;
  cfg.nodes = 3;
  cfg.placement.rings = 3;
  System sys(cfg);

  const auto installs_before = [&](std::size_t ring) {
    std::uint64_t total = 0;
    for (NodeId n : sys.all_nodes()) {
      if (!sys.totem(n, ring).is_down()) total += sys.totem(n, ring).stats().view_changes;
    }
    return total;
  };
  const std::uint64_t r0 = installs_before(0), r2 = installs_before(2);

  sys.crash_ring_member(NodeId{2}, 1);
  sys.run_for(Duration(2'000'000'000));

  // Ring 1 reformed without node 2; rings 0 and 2 saw no membership event.
  EXPECT_TRUE(sys.totem(NodeId{2}, 1).is_down());
  EXPECT_EQ(sys.totem(NodeId{1}, 1).view().members.size(), 2u);
  EXPECT_FALSE(sys.totem(NodeId{2}, 0).is_down());
  EXPECT_FALSE(sys.totem(NodeId{2}, 2).is_down());
  EXPECT_EQ(installs_before(0), r0);
  EXPECT_EQ(installs_before(2), r2);
}

}  // namespace
}  // namespace eternal
