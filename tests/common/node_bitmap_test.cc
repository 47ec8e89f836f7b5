#include "common/node_bitmap.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace scoop {
namespace {

TEST(DynamicNodeBitmapTest, StartsEmptyAndScalesPastWireFormatCap) {
  DynamicNodeBitmap bm(1000);
  EXPECT_TRUE(bm.Empty());
  EXPECT_EQ(bm.Count(), 0);
  bm.Set(0);
  bm.Set(999);
  EXPECT_TRUE(bm.Test(0));
  EXPECT_TRUE(bm.Test(999));
  EXPECT_FALSE(bm.Test(500));
  EXPECT_EQ(bm.Count(), 2);
  bm.Clear(999);
  EXPECT_FALSE(bm.Test(999));
  EXPECT_EQ(bm.ToVector(), (std::vector<NodeId>{0}));
}

TEST(DynamicNodeBitmapTest, TestBeyondCapacityIsFalse) {
  DynamicNodeBitmap bm(64);
  bm.Set(63);
  EXPECT_FALSE(bm.Test(64));
  EXPECT_FALSE(bm.Test(kInvalidNodeId));
  DynamicNodeBitmap empty;
  EXPECT_FALSE(empty.Test(0));
  EXPECT_TRUE(empty.Empty());
}

TEST(DynamicNodeBitmapTest, IntersectsAcrossDifferentCapacities) {
  DynamicNodeBitmap a(700);
  DynamicNodeBitmap b(100);
  a.Set(650);
  b.Set(70);
  auto any = [](NodeId) { return true; };
  EXPECT_FALSE(a.AnyOfIntersection(b, any));
  a.Set(70);
  EXPECT_TRUE(a.AnyOfIntersection(b, any));
  EXPECT_TRUE(b.AnyOfIntersection(a, any));
}

TEST(DynamicNodeBitmapTest, AnyOfIntersectionVisitsAscendingAndStopsEarly) {
  DynamicNodeBitmap a(300);
  DynamicNodeBitmap b(300);
  for (NodeId id : {3, 64, 130, 257}) a.Set(id);
  for (NodeId id : {3, 64, 131, 257}) b.Set(id);

  std::vector<NodeId> visited;
  bool found = a.AnyOfIntersection(b, [&](NodeId id) {
    visited.push_back(id);
    return false;
  });
  EXPECT_FALSE(found);
  EXPECT_EQ(visited, (std::vector<NodeId>{3, 64, 257}));

  visited.clear();
  found = a.AnyOfIntersection(b, [&](NodeId id) {
    visited.push_back(id);
    return id == 64;  // Early exit mid-intersection.
  });
  EXPECT_TRUE(found);
  EXPECT_EQ(visited, (std::vector<NodeId>{3, 64}));
}

TEST(DynamicNodeBitmapTest, Equality) {
  DynamicNodeBitmap a(128);
  DynamicNodeBitmap b(128);
  a.Set(77);
  b.Set(77);
  EXPECT_EQ(a, b);
  b.Set(78);
  EXPECT_FALSE(a == b);
}

TEST(InterfererSetTest, PicksSparseFormBelowDensityThreshold) {
  // 4 of 1000 audible: far under universe / kSparseDensityDivisor.
  InterfererSet sparse = InterfererSet::Of({1, 5, 900, 999}, 1000);
  EXPECT_FALSE(sparse.is_dense());
  EXPECT_EQ(sparse.Count(), 4);
  EXPECT_TRUE(sparse.Test(900));
  EXPECT_FALSE(sparse.Test(901));
  EXPECT_FALSE(sparse.Test(kInvalidNodeId));
}

TEST(InterfererSetTest, PicksDenseFormAboveDensityThreshold) {
  std::vector<NodeId> ids;
  for (NodeId id = 0; id < 40; id += 2) ids.push_back(id);  // 20 of 100.
  InterfererSet dense = InterfererSet::Of(ids, 100);
  EXPECT_TRUE(dense.is_dense());
  EXPECT_EQ(dense.Count(), 20);
  EXPECT_TRUE(dense.Test(38));
  EXPECT_FALSE(dense.Test(39));
}

TEST(InterfererSetTest, FormsAnswerIdentically) {
  // Randomized equivalence: both forms of the same member list must agree
  // on Test/Count/ToVector and visit AnyActive in the same ascending order.
  Rng rng(0xD1CE, 0);
  for (int trial = 0; trial < 50; ++trial) {
    int universe = 64 + static_cast<int>(rng.NextU64() % 1000);
    std::vector<NodeId> ids;
    for (int id = 0; id < universe; ++id) {
      if (rng.UniformDouble() < 0.05) ids.push_back(static_cast<NodeId>(id));
    }
    InterfererSet sparse = InterfererSet::OfForm(ids, universe, /*dense=*/false);
    InterfererSet dense = InterfererSet::OfForm(ids, universe, /*dense=*/true);
    EXPECT_FALSE(sparse.is_dense());
    EXPECT_TRUE(dense.is_dense());
    EXPECT_EQ(sparse.Count(), dense.Count());
    EXPECT_EQ(sparse.ToVector(), dense.ToVector());
    for (int probe = 0; probe < universe; ++probe) {
      ASSERT_EQ(sparse.Test(static_cast<NodeId>(probe)),
                dense.Test(static_cast<NodeId>(probe)));
    }

    DynamicNodeBitmap active(universe);
    for (int id = 0; id < universe; ++id) {
      if (rng.UniformDouble() < 0.5) active.Set(static_cast<NodeId>(id));
    }
    std::vector<NodeId> sparse_visited, dense_visited;
    bool sparse_hit = sparse.AnyActive(active, [&](NodeId id) {
      sparse_visited.push_back(id);
      return false;
    });
    bool dense_hit = dense.AnyActive(active, [&](NodeId id) {
      dense_visited.push_back(id);
      return false;
    });
    EXPECT_EQ(sparse_hit, dense_hit);
    ASSERT_EQ(sparse_visited, dense_visited);
  }
}

TEST(InterfererSetTest, AnyActiveStopsEarlyInBothForms) {
  std::vector<NodeId> ids = {2, 10, 20, 30};
  DynamicNodeBitmap active(64);
  active.Set(10);
  active.Set(20);
  for (bool dense : {false, true}) {
    InterfererSet set = InterfererSet::OfForm(ids, 64, dense);
    std::vector<NodeId> visited;
    bool hit = set.AnyActive(active, [&](NodeId id) {
      visited.push_back(id);
      return true;  // Stop at the first active interferer.
    });
    EXPECT_TRUE(hit);
    EXPECT_EQ(visited, (std::vector<NodeId>{10}));
  }
}

}  // namespace
}  // namespace scoop
