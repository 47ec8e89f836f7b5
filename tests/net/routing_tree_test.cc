#include "net/routing_tree.h"

#include <gtest/gtest.h>

namespace scoop::net {
namespace {

BeaconPayload Beacon(NodeId parent, double path_etx, uint8_t depth) {
  BeaconPayload b;
  b.parent = parent;
  b.path_etx_x16 = static_cast<uint16_t>(path_etx * 16);
  b.depth = depth;
  return b;
}

TEST(RoutingTreeTest, BaseIsRoot) {
  RoutingTree tree(0, /*is_base=*/true);
  EXPECT_EQ(tree.parent(), kInvalidNodeId);
  EXPECT_EQ(tree.depth(), 0);
  EXPECT_DOUBLE_EQ(tree.path_etx(), 0.0);
  BeaconPayload b = tree.MakeBeacon();
  EXPECT_EQ(b.depth, 0);
  EXPECT_EQ(b.path_etx_x16, 0);
}

TEST(RoutingTreeTest, NodeStartsWithoutRoute) {
  RoutingTree tree(5, /*is_base=*/false);
  EXPECT_EQ(tree.parent(), kInvalidNodeId);
  EXPECT_EQ(tree.parent(), kInvalidNodeId);
}

TEST(RoutingTreeTest, AdoptsFirstUsableParent) {
  RoutingTree tree(5, false);
  tree.OnBeacon(0, Beacon(kInvalidNodeId, 0.0, 0), /*quality=*/0.8, Seconds(1));
  EXPECT_NE(tree.parent(), kInvalidNodeId);
  EXPECT_EQ(tree.parent(), 0);
  EXPECT_EQ(tree.depth(), 1);
  EXPECT_NEAR(tree.path_etx(), 1.25, 0.01);  // 1/0.8.
}

TEST(RoutingTreeTest, PrefersLowerTotalEtx) {
  RoutingTree tree(5, false);
  // Direct to base over a weak link: ETX 1/0.2 = 5.
  tree.OnBeacon(0, Beacon(kInvalidNodeId, 0.0, 0), 0.2, Seconds(1));
  // Via node 3 (path 1.2) over a strong link: 1.2 + 1/0.9 = 2.3.
  tree.OnBeacon(3, Beacon(0, 1.2, 1), 0.9, Seconds(2));
  EXPECT_EQ(tree.parent(), 3);
  EXPECT_EQ(tree.depth(), 2);
}

TEST(RoutingTreeTest, HysteresisPreventsFlapping) {
  RoutingTree tree(5, false);  // Switches only below 0.85 x the parent's cost.
  tree.OnBeacon(3, Beacon(0, 1.0, 1), 0.5, Seconds(1));  // Cost 3.0.
  ASSERT_EQ(tree.parent(), 3);
  // A marginally better candidate (cost 2.9) must not displace the parent.
  tree.OnBeacon(4, Beacon(0, 0.9, 1), 0.5, Seconds(2));
  EXPECT_EQ(tree.parent(), 3);
  // A clearly better one (cost 1.5) must.
  tree.OnBeacon(6, Beacon(0, 0.5, 1), 1.0, Seconds(3));
  EXPECT_EQ(tree.parent(), 6);
}

TEST(RoutingTreeTest, IgnoresWeakLinks) {
  RoutingTree tree(5, false);  // 0.05 is below the 0.10 usable-link floor.
  tree.OnBeacon(0, Beacon(kInvalidNodeId, 0.0, 0), 0.05, Seconds(1));
  EXPECT_EQ(tree.parent(), kInvalidNodeId);
}

TEST(RoutingTreeTest, LoopGuardRejectsOwnChild) {
  RoutingTree tree(5, false);
  tree.OnBeacon(0, Beacon(kInvalidNodeId, 0.0, 0), 0.9, Seconds(1));
  ASSERT_EQ(tree.parent(), 0);
  // Node 7 routes through us; it must never become our parent, however
  // good its advertised cost.
  tree.OnBeacon(7, Beacon(5, 0.1, 1), 1.0, Seconds(2));
  EXPECT_EQ(tree.parent(), 0);
}

TEST(RoutingTreeTest, ParentSwitchesWhenChildClaimsUs) {
  RoutingTree tree(5, false);
  tree.OnBeacon(3, Beacon(0, 1.0, 1), 0.9, Seconds(1));
  ASSERT_EQ(tree.parent(), 3);
  // Node 3 now says *we* are its parent (stale state on its side); we must
  // drop it to avoid a routing loop.
  tree.OnBeacon(3, Beacon(5, 1.0, 1), 0.9, Seconds(2));
  EXPECT_NE(tree.parent(), 3);
}

TEST(RoutingTreeTest, ParentTimesOut) {
  RoutingTree tree(5, false);  // Abandons a parent silent for 90 s.
  tree.OnBeacon(0, Beacon(kInvalidNodeId, 0.0, 0), 0.9, Seconds(1));
  ASSERT_NE(tree.parent(), kInvalidNodeId);
  tree.MaybeTimeoutParent(Seconds(200));
  EXPECT_EQ(tree.parent(), kInvalidNodeId);
}

TEST(RoutingTreeTest, FallsBackToSecondCandidateOnTimeout) {
  RoutingTree tree(5, false);  // Abandons a parent silent for 90 s.
  tree.OnBeacon(3, Beacon(0, 0.5, 1), 0.9, Seconds(1));
  ASSERT_EQ(tree.parent(), 3);
  tree.OnBeacon(4, Beacon(0, 2.0, 1), 0.9, Seconds(80));
  // Node 3 goes silent; node 4 was heard recently.
  tree.MaybeTimeoutParent(Seconds(120));
  EXPECT_EQ(tree.parent(), 4);
}

TEST(RoutingTreeTest, MakeBeaconAdvertisesRoute) {
  RoutingTree tree(5, false);
  tree.OnBeacon(0, Beacon(kInvalidNodeId, 0.0, 0), 0.5, Seconds(1));
  BeaconPayload b = tree.MakeBeacon();
  EXPECT_EQ(b.parent, 0);
  EXPECT_EQ(b.depth, 1);
  EXPECT_NEAR(static_cast<double>(b.path_etx_x16) / 16.0, 2.0, 0.1);
}

TEST(RoutingTreeTest, RejectsAbsurdDepth) {
  RoutingTree tree(5, false);  // Ignores beacons from depth 64 or more.
  tree.OnBeacon(3, Beacon(0, 1.0, 200), 0.9, Seconds(1));
  EXPECT_EQ(tree.parent(), kInvalidNodeId);
}

TEST(RoutingTreeTest, EtxQuantizationRoundTrips) {
  RoutingTree tree(5, false);
  tree.OnBeacon(0, Beacon(kInvalidNodeId, 0.0, 0), 0.8, Seconds(1));
  // Re-derive from the beacon as a downstream node would.
  BeaconPayload b = tree.MakeBeacon();
  RoutingTree downstream(6, false);
  downstream.OnBeacon(5, b, 0.8, Seconds(2));
  EXPECT_NEAR(downstream.path_etx(), tree.path_etx() + 1.25, 0.05);
}

}  // namespace
}  // namespace scoop::net
