#include "core/query_stats.h"

#include <gtest/gtest.h>

namespace scoop::core {
namespace {

TEST(QueryStatsTest, EmptyStats) {
  QueryStats stats;
  EXPECT_DOUBLE_EQ(stats.QueryRate(Seconds(100)), 0.0);
  EXPECT_DOUBLE_EQ(stats.ProbQueries(5, Seconds(100)), 0.0);
  EXPECT_EQ(stats.WindowCount(Seconds(100)), 0);
}

TEST(QueryStatsTest, RateReflectsWindowedCount) {
  QueryStats stats;
  for (int i = 0; i < 10; ++i) {
    stats.RecordQuery({ValueRange{0, 5}}, Seconds(i * 10));
  }
  // 10 queries over the 90s span observed so far.
  EXPECT_NEAR(stats.QueryRate(Seconds(90)), 10.0 / 90.0, 0.01);
  // At 10m45s the five queries issued before 45 s are older than the
  // 10-minute window: the rate counts the other five over the 595 s since
  // the oldest of them (50 s). Asked before any other call that prunes.
  EXPECT_NEAR(stats.QueryRate(Minutes(10) + Seconds(45)), 5.0 / 595.0, 1e-9);
}

TEST(QueryStatsTest, OldQueriesAgeOut) {
  QueryStats stats;  // Counts the last 10 minutes.
  stats.RecordQuery({ValueRange{0, 5}}, Seconds(0));
  stats.RecordQuery({ValueRange{0, 5}}, Minutes(11));
  EXPECT_EQ(stats.WindowCount(Minutes(11) + Seconds(1)), 1);
  EXPECT_EQ(stats.total_queries(), 2u);
}

TEST(QueryStatsTest, ProbQueriesCountsContainingRanges) {
  QueryStats stats;
  stats.RecordQuery({ValueRange{0, 10}}, Seconds(1));
  stats.RecordQuery({ValueRange{5, 15}}, Seconds(2));
  stats.RecordQuery({ValueRange{20, 30}}, Seconds(3));
  EXPECT_NEAR(stats.ProbQueries(7, Seconds(4)), 2.0 / 3.0, 1e-9);
  EXPECT_NEAR(stats.ProbQueries(25, Seconds(4)), 1.0 / 3.0, 1e-9);
  EXPECT_DOUBLE_EQ(stats.ProbQueries(50, Seconds(4)), 0.0);
}

TEST(QueryStatsTest, MultiRangeQueriesCountOncePerQuery) {
  QueryStats stats;
  stats.RecordQuery({ValueRange{0, 5}, ValueRange{3, 8}}, Seconds(1));
  EXPECT_DOUBLE_EQ(stats.ProbQueries(4, Seconds(2)), 1.0);
}

TEST(QueryStatsTest, EmptyRangesMeanWholeDomain) {
  QueryStats stats;
  stats.RecordQuery({}, Seconds(1));
  EXPECT_DOUBLE_EQ(stats.ProbQueries(12345, Seconds(2)), 1.0);
}

TEST(QueryStatsTest, RateEarlyInRunUsesObservedSpan) {
  // Two queries 10s apart must not be diluted by a 10-minute window.
  QueryStats stats;
  stats.RecordQuery({}, Seconds(100));
  stats.RecordQuery({}, Seconds(110));
  EXPECT_NEAR(stats.QueryRate(Seconds(110)), 0.2, 0.02);
}

}  // namespace
}  // namespace scoop::core
