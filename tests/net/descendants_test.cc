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

TEST(DescendantsTest, CapacityEvictsOldest) {
  DescendantsOptions opts;
  opts.capacity = 3;
  DescendantsTable table(opts);
  table.Learn(1, 1, Seconds(1));
  table.Learn(2, 1, Seconds(2));
  table.Learn(3, 1, Seconds(3));
  table.Learn(4, 1, Seconds(4));  // Evicts descendant 1.
  EXPECT_EQ(table.size(), 3u);
  EXPECT_FALSE(table.Contains(1));
  EXPECT_TRUE(table.Contains(4));
}

TEST(DescendantsTest, EvictionTieGoesToTheLowestId) {
  DescendantsOptions opts;
  opts.capacity = 3;
  DescendantsTable table(opts);
  table.Learn(7, 1, Seconds(2));
  table.Learn(4, 1, Seconds(1));
  table.Learn(2, 1, Seconds(1));
  table.Learn(9, 1, Seconds(3));  // 2 and 4 tie on age; the lower id goes.
  EXPECT_FALSE(table.Contains(2));
  EXPECT_TRUE(table.Contains(4));
  EXPECT_TRUE(table.Contains(7));
  EXPECT_TRUE(table.Contains(9));
}

TEST(DescendantsTest, RefreshProtectsFromEviction) {
  DescendantsOptions opts;
  opts.capacity = 2;
  DescendantsTable table(opts);
  table.Learn(1, 1, Seconds(1));
  table.Learn(2, 1, Seconds(2));
  table.Learn(1, 1, Seconds(3));  // Refresh 1; now 2 is oldest.
  table.Learn(3, 1, Seconds(4));
  EXPECT_TRUE(table.Contains(1));
  EXPECT_FALSE(table.Contains(2));
}

TEST(DescendantsTest, EvictStale) {
  DescendantsOptions opts;
  opts.eviction_timeout = Seconds(100);
  DescendantsTable table(opts);
  table.Learn(1, 1, Seconds(0));
  table.Learn(2, 1, Seconds(50));
  table.EvictStale(Seconds(120));
  EXPECT_FALSE(table.Contains(1));
  EXPECT_TRUE(table.Contains(2));
}

TEST(DescendantsTest, ForgetChildDropsWholeBranch) {
  DescendantsTable table;
  table.Learn(1, 7, Seconds(1));
  table.Learn(2, 7, Seconds(1));
  table.Learn(3, 8, Seconds(1));
  table.ForgetChild(7);
  EXPECT_FALSE(table.Contains(1));
  EXPECT_FALSE(table.Contains(2));
  EXPECT_TRUE(table.Contains(3));
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
