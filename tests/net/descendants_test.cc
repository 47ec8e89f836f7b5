#include "net/descendants.h"

#include <gtest/gtest.h>

namespace scoop::net {
namespace {

TEST(DescendantsTest, LearnAndLookup) {
  DescendantsTable table;
  table.Learn(/*descendant=*/9, /*via_child=*/3, Seconds(1));
  ASSERT_TRUE(table.Contains(9));
  EXPECT_EQ(table.NextHop(9).value(), 3);
  EXPECT_FALSE(table.NextHop(8).has_value());
}

TEST(DescendantsTest, UpdatesRoute) {
  DescendantsTable table;
  table.Learn(9, 3, Seconds(1));
  table.Learn(9, 4, Seconds(2));  // Descendant moved to another branch.
  EXPECT_EQ(table.NextHop(9).value(), 4);
  EXPECT_EQ(table.size(), 1u);
}

constexpr NodeId kFull = DescendantsTable::kCapacity;

TEST(DescendantsTest, CapacityEvictsOldest) {
  DescendantsTable table;
  for (NodeId id = 1; id <= kFull; ++id) table.Learn(id, 1, Seconds(id));
  table.Learn(kFull + 1, 1, Seconds(kFull + 1));  // Evicts descendant 1.
  EXPECT_EQ(table.size(), static_cast<size_t>(kFull));
  EXPECT_FALSE(table.Contains(1));
  EXPECT_TRUE(table.Contains(2));
  EXPECT_TRUE(table.Contains(kFull + 1));
}

TEST(DescendantsTest, EvictionTieGoesToTheLowestId) {
  DescendantsTable table;
  for (NodeId id = 100; id < 100 + kFull - 3; ++id) table.Learn(id, 1, Seconds(5));
  table.Learn(7, 1, Seconds(2));
  table.Learn(4, 1, Seconds(1));
  table.Learn(2, 1, Seconds(1));
  ASSERT_EQ(table.size(), static_cast<size_t>(kFull));
  table.Learn(9, 1, Seconds(3));  // 2 and 4 tie on age; the lower id goes.
  EXPECT_FALSE(table.Contains(2));
  EXPECT_TRUE(table.Contains(4));
  EXPECT_TRUE(table.Contains(7));
  EXPECT_TRUE(table.Contains(9));
}

TEST(DescendantsTest, RefreshProtectsFromEviction) {
  DescendantsTable table;
  for (NodeId id = 1; id <= kFull; ++id) table.Learn(id, 1, Seconds(id));
  table.Learn(1, 1, Seconds(kFull + 1));  // Refresh 1; now 2 is oldest.
  table.Learn(kFull + 1, 1, Seconds(kFull + 2));
  EXPECT_TRUE(table.Contains(1));
  EXPECT_FALSE(table.Contains(2));
}

TEST(DescendantsTest, EvictStale) {
  DescendantsTable table;  // Evicts entries not refreshed for 600 s.
  table.Learn(1, 1, Seconds(0));
  table.Learn(2, 1, Seconds(500));
  table.EvictStale(Seconds(620));
  EXPECT_FALSE(table.Contains(1));
  EXPECT_TRUE(table.Contains(2));
}

TEST(DescendantsTest, IdsListsAll) {
  DescendantsTable table;
  table.Learn(5, 1, Seconds(1));
  table.Learn(6, 2, Seconds(1));
  auto ids = table.Ids();
  EXPECT_EQ(ids.size(), 2u);
}

}  // namespace
}  // namespace scoop::net
