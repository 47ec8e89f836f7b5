#include "workload/data_source.h"

#include <cmath>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace scoop::workload {
namespace {

std::vector<sim::Point> GridPositions(int n) {
  std::vector<sim::Point> pos;
  for (int i = 0; i < n; ++i) {
    pos.push_back({static_cast<double>(i % 8) * 6.0, static_cast<double>(i / 8) * 6.0});
  }
  return pos;
}

TEST(DataSourceTest, KindNames) {
  EXPECT_STREQ(DataSourceKindName(DataSourceKind::kReal), "real");
  EXPECT_STREQ(DataSourceKindName(DataSourceKind::kUnique), "unique");
  EXPECT_STREQ(DataSourceKindName(DataSourceKind::kEqual), "equal");
  EXPECT_STREQ(DataSourceKindName(DataSourceKind::kRandom), "random");
  EXPECT_STREQ(DataSourceKindName(DataSourceKind::kGaussian), "gaussian");
}

TEST(DataSourceTest, UniqueProducesNodeId) {
  auto source = MakeDataSource(DataSourceKind::kUnique, {}, GridPositions(20), 1);
  for (NodeId n = 0; n < 20; ++n) {
    EXPECT_EQ(source->Next(n, Seconds(1)), static_cast<Value>(n));
    EXPECT_EQ(source->Next(n, Minutes(30)), static_cast<Value>(n));
  }
  EXPECT_EQ(source->domain().lo, 0);
  EXPECT_EQ(source->domain().hi, 19);
}

TEST(DataSourceTest, EqualProducesConstant) {
  auto source = MakeDataSource(DataSourceKind::kEqual, {}, GridPositions(5), 1);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(source->Next(static_cast<NodeId>(i % 5), Seconds(i)), 42);
  }
}

TEST(DataSourceTest, RandomStaysInDomainAndLooksUniform) {
  DataSourceOptions opts;
  auto source = MakeDataSource(DataSourceKind::kRandom, opts, GridPositions(5), 7);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    Value v = source->Next(1, Seconds(i));
    ASSERT_GE(v, 0);
    ASSERT_LE(v, 100);
    sum += v;
  }
  EXPECT_NEAR(sum / n, 50.0, 1.5);
}

TEST(DataSourceTest, GaussianPerNodeMeansStable) {
  DataSourceOptions opts;
  auto source = MakeDataSource(DataSourceKind::kGaussian, opts, GridPositions(10), 7);
  // Per §6 each node has variance ~10 around a per-node mean.
  for (NodeId node = 0; node < 10; ++node) {
    double sum = 0, sum_sq = 0;
    const int k = 2000;
    for (int i = 0; i < k; ++i) {
      double v = source->Next(node, Seconds(i));
      sum += v;
      sum_sq += v * v;
    }
    double mean = sum / k;
    double var = sum_sq / k - mean * mean;
    EXPECT_GE(mean, -1);
    EXPECT_LE(mean, 101);
    // Clamping at domain edges can shrink variance; just bound it sanely.
    EXPECT_LT(var, 25.0);
  }
}

TEST(DataSourceTest, GaussianDifferentNodesDifferentMeans) {
  DataSourceOptions opts;
  auto source = MakeDataSource(DataSourceKind::kGaussian, opts, GridPositions(10), 7);
  std::set<Value> first_readings;
  for (NodeId node = 0; node < 10; ++node) {
    first_readings.insert(source->Next(node, Seconds(1)));
  }
  EXPECT_GT(first_readings.size(), 5u);  // Means spread over the domain.
}

TEST(DataSourceTest, RealStaysInDomain) {
  auto source = MakeDataSource(DataSourceKind::kReal, {}, GridPositions(20), 9);
  EXPECT_EQ(source->domain().lo, 0);
  EXPECT_EQ(source->domain().hi, 149);  // The paper's V of about 150.
  for (int i = 0; i < 5000; ++i) {
    Value v = source->Next(static_cast<NodeId>(i % 20), Seconds(i * 3));
    ASSERT_GE(v, source->domain().lo);
    ASSERT_LE(v, source->domain().hi);
  }
}

TEST(DataSourceTest, RealIsTemporallyStable) {
  // Scoop exploits short-horizon stationarity (§4): consecutive readings
  // from the same node must be close most of the time.
  DataSourceOptions opts;
  auto source = MakeDataSource(DataSourceKind::kReal, opts, GridPositions(20), 9);
  int small_steps = 0;
  const int k = 500;
  Value prev = source->Next(3, 0);
  for (int i = 1; i < k; ++i) {
    Value v = source->Next(3, Seconds(15) * i);
    if (std::abs(v - prev) <= 4) ++small_steps;
    prev = v;
  }
  EXPECT_GT(small_steps, k * 8 / 10);
}

TEST(DataSourceTest, RealIsSpatiallyCorrelated) {
  // Nearby nodes see similar light; distant nodes differ more (this is
  // what makes the REAL substitution faithful: the Intel Lab trace it
  // stands in for has the same cross-node correlation).
  DataSourceOptions opts;
  std::vector<sim::Point> pos = {{0, 0}, {2, 0}, {60, 60}};
  auto source = MakeDataSource(DataSourceKind::kReal, opts, pos, 11);
  double near_diff = 0, far_diff = 0;
  const int k = 200;
  for (int i = 0; i < k; ++i) {
    SimTime t = Seconds(15) * i;
    Value a = source->Next(0, t);
    Value b = source->Next(1, t);
    Value c = source->Next(2, t);
    near_diff += std::abs(a - b);
    far_diff += std::abs(a - c);
  }
  EXPECT_LT(near_diff / k, far_diff / k);
}

TEST(DataSourceTest, DeterministicForSeed) {
  for (DataSourceKind kind : {DataSourceKind::kReal, DataSourceKind::kRandom,
                              DataSourceKind::kGaussian}) {
    auto a = MakeDataSource(kind, {}, GridPositions(10), 99);
    auto b = MakeDataSource(kind, {}, GridPositions(10), 99);
    for (int i = 0; i < 200; ++i) {
      NodeId node = static_cast<NodeId>(i % 10);
      ASSERT_EQ(a->Next(node, Seconds(i)), b->Next(node, Seconds(i)))
          << DataSourceKindName(kind);
    }
  }
}

// The sharded engine samples nodes concurrently, in an order that depends
// on the shard count, so a reading must be a pure function of
// (seed, node, now): not of how many calls came before it or in what order.
TEST(DataSourceTest, NextDependsOnlyOnSeedNodeAndTime) {
  constexpr int kNodes = 6;
  constexpr int kSteps = 40;
  for (DataSourceKind kind : {DataSourceKind::kReal, DataSourceKind::kRandom,
                              DataSourceKind::kGaussian}) {
    SCOPED_TRACE(DataSourceKindName(kind));
    auto grid = [](int i) {
      return std::pair<NodeId, SimTime>{static_cast<NodeId>(i % kNodes),
                                        Seconds(15) * (i / kNodes)};
    };
    constexpr int kCalls = kNodes * kSteps;
    auto forward = MakeDataSource(kind, {}, GridPositions(kNodes), 5);
    std::vector<Value> expected;
    for (int i = 0; i < kCalls; ++i) {
      auto [node, t] = grid(i);
      expected.push_back(forward->Next(node, t));
    }
    auto reverse = MakeDataSource(kind, {}, GridPositions(kNodes), 5);
    for (int i = kCalls - 1; i >= 0; --i) {
      auto [node, t] = grid(i);
      ASSERT_EQ(reverse->Next(node, t), expected[i]) << "reverse, call " << i;
    }
    auto repeated = MakeDataSource(kind, {}, GridPositions(kNodes), 5);
    for (int i = 0; i < kCalls; ++i) {
      auto [node, t] = grid(i);
      ASSERT_EQ(repeated->Next(node, t), expected[i]) << "repeated, call " << i;
      ASSERT_EQ(repeated->Next(node, t), expected[i]) << "repeated twice, call " << i;
    }
  }
}

}  // namespace
}  // namespace scoop::workload
