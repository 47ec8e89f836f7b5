#include "core/xmits_estimator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "net/routing_tree.h"

namespace scoop::core {
namespace {

TEST(XmitsEstimatorTest, SelfCostIsZero) {
  XmitsEstimator x(3);
  x.Build();
  EXPECT_DOUBLE_EQ(x.Xmits(1, 1), 0.0);
}

TEST(XmitsEstimatorTest, DirectLinkCostIsInverseQuality) {
  XmitsEstimator x(2);
  x.AddLink(0, 1, 0.5);
  x.Build();
  EXPECT_DOUBLE_EQ(x.Xmits(0, 1), 2.0);
}

TEST(XmitsEstimatorTest, UnknownPairsChargedDefault) {
  XmitsEstimator x(3);
  x.AddLink(0, 1, 1.0);
  x.Build();
  EXPECT_DOUBLE_EQ(x.Xmits(0, 2), 12.0);
  EXPECT_DOUBLE_EQ(x.Xmits(1, 0), 12.0);  // Directional: reverse unknown.
}

TEST(XmitsEstimatorTest, PrefersMultiHopOverLossyDirect) {
  // P4: 0->2 direct at quality 0.15 costs ~6.7; 0->1->2 at 0.8 each costs
  // 2.5. Dijkstra must take the relay.
  XmitsEstimator x(3);
  x.AddLink(0, 2, 0.15);
  x.AddLink(0, 1, 0.8);
  x.AddLink(1, 2, 0.8);
  x.Build();
  EXPECT_NEAR(x.Xmits(0, 2), 2.5, 0.01);
}

TEST(XmitsEstimatorTest, WeakLinksUnusable) {
  XmitsEstimator x(2);
  x.AddLink(0, 1, 0.05);  // Below the 0.10 usable-link floor.
  x.Build();
  EXPECT_DOUBLE_EQ(x.Xmits(0, 1), XmitsEstimator::kUnknownCost);
}

TEST(XmitsEstimatorTest, PerLinkEtxCapped) {
  XmitsEstimator x(2);
  x.AddLink(0, 1, 0.11);  // 1/0.11 = 9.1 > cap.
  x.Build();
  EXPECT_DOUBLE_EQ(x.Xmits(0, 1), 8.0);
}

TEST(XmitsEstimatorTest, BestReportWins) {
  XmitsEstimator x(2);
  x.AddLink(0, 1, 0.25);
  x.AddLink(0, 1, 0.5);  // Better report replaces the worse.
  x.AddLink(0, 1, 0.4);  // Worse report does not.
  x.Build();
  EXPECT_DOUBLE_EQ(x.Xmits(0, 1), 2.0);
}

TEST(XmitsEstimatorTest, TreeEdgesAreBidirectionalDefaults) {
  XmitsEstimator x(3);
  x.AddTreeEdge(2, 1);
  x.Build();
  EXPECT_LT(x.Xmits(2, 1), XmitsEstimator::kUnknownCost);
  EXPECT_LT(x.Xmits(1, 2), XmitsEstimator::kUnknownCost);
}

TEST(XmitsEstimatorTest, TreeEdgeDoesNotOverrideMeasuredLink) {
  XmitsEstimator x(2);
  x.AddLink(0, 1, 0.8);
  x.AddTreeEdge(0, 1);
  x.Build();
  EXPECT_DOUBLE_EQ(x.Xmits(0, 1), 1.25);  // Measured 0.8 kept.
}

TEST(XmitsEstimatorTest, RoundTripSumsBothDirections) {
  XmitsEstimator x(2);
  x.AddLink(0, 1, 0.5);
  x.AddLink(1, 0, 0.25);
  x.Build();
  EXPECT_DOUBLE_EQ(x.RoundTrip(0, 1), 2.0 + 4.0);
}

TEST(XmitsEstimatorTest, ClearForgetsLinks) {
  XmitsEstimator x(2);
  x.AddLink(0, 1, 1.0);
  x.Build();
  ASSERT_DOUBLE_EQ(x.Xmits(0, 1), 1.0);
  x.Clear();
  x.Build();
  EXPECT_DOUBLE_EQ(x.Xmits(0, 1), XmitsEstimator::kUnknownCost);
}

TEST(XmitsEstimatorTest, LongChainAccumulates) {
  const int n = 10;
  XmitsEstimator x(n);
  for (int i = 0; i + 1 < n; ++i) {
    x.AddLink(static_cast<NodeId>(i), static_cast<NodeId>(i + 1), 0.5);
  }
  x.Build();
  EXPECT_NEAR(x.Xmits(0, 9), 18.0, 0.01);  // 9 hops * ETX 2.
}

// --- Repeated Build ---

TEST(XmitsEstimatorTest, ClearAndIdenticalReingestKeepsDistances) {
  const int n = 12;
  XmitsEstimator x(n);
  auto ingest = [&x] {
    for (int i = 0; i + 1 < 12; ++i) {
      x.AddLink(static_cast<NodeId>(i), static_cast<NodeId>(i + 1), 0.5);
      x.AddLink(static_cast<NodeId>(i + 1), static_cast<NodeId>(i), 0.7);
    }
    x.AddTreeEdge(11, 0);
  };
  ingest();
  x.Build();
  EXPECT_NEAR(x.Xmits(0, 11), 2.0, 1e-9);

  // The remap pattern: Clear + byte-identical re-ingest.
  x.Clear();
  ingest();
  x.Build();
  EXPECT_NEAR(x.Xmits(0, 11), 2.0, 1e-9);  // Tree shortcut still there.
}

TEST(XmitsEstimatorTest, NewShortcutLowersDistance) {
  const int n = 16;
  XmitsEstimator x(n);
  for (int i = 0; i + 1 < n; ++i) {
    x.AddLink(static_cast<NodeId>(i), static_cast<NodeId>(i + 1), 0.5);
  }
  x.Build();
  double before = x.Xmits(0, n - 1);
  // Links added without Clear() join the committed graph.
  x.AddLink(0, static_cast<NodeId>(n - 1), 1.0);
  x.Build();
  EXPECT_DOUBLE_EQ(x.Xmits(0, n - 1), 1.0);
  EXPECT_LT(x.Xmits(0, n - 1), before);
  EXPECT_DOUBLE_EQ(x.Xmits(0, 1), 2.0);  // Earlier links kept.
}

/// All-pairs costs by Floyd-Warshall over the edge set the fold rules
/// give for `ops` (kind 0 = AddLink, 1 = AddTreeEdge at quality 0.5).
std::vector<std::vector<double>> FloydWarshallOracle(
    int n, const std::vector<std::tuple<int, NodeId, NodeId, double>>& ops) {
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<std::vector<double>> d(n, std::vector<double>(n, inf));
  std::vector<std::vector<bool>> claimed(n, std::vector<bool>(n, false));
  auto report = [&](NodeId a, NodeId b, double etx, bool tree) {
    if (!claimed[a][b]) {
      claimed[a][b] = true;
      d[a][b] = etx;
    } else if (!tree) {
      d[a][b] = std::min(d[a][b], etx);
    }
  };
  for (const auto& [kind, a, b, q] : ops) {
    if (a == b) continue;
    if (kind == 0) {
      if (q < net::kMinLinkQuality) continue;
      report(a, b, std::min(1.0 / q, net::kMaxLinkEtx), /*tree=*/false);
    } else {
      double etx = std::min(1.0 / q, net::kMaxLinkEtx);
      report(a, b, etx, /*tree=*/true);
      report(b, a, etx, /*tree=*/true);
    }
  }
  for (int k = 0; k < n; ++k) {
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) d[i][j] = std::min(d[i][j], d[i][k] + d[k][j]);
    }
  }
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      d[i][j] = i == j ? 0.0 : (std::isinf(d[i][j]) ? XmitsEstimator::kUnknownCost : d[i][j]);
    }
  }
  return d;
}

TEST(XmitsEstimatorTest, IncrementalBuildMatchesScratchBuildProperty) {
  Rng rng(2024, /*stream=*/0xE57);
  const int n = 18;
  for (int round = 0; round < 30; ++round) {
    XmitsEstimator accumulated(n);
    // Mutation script: a random interleaving of AddLink / AddTreeEdge /
    // Clear with Build checkpoints. The scratch estimator replays the
    // mutations since the last Clear into a fresh instance at every
    // checkpoint, so any stale accumulated state shows up as a mismatch;
    // an in-test Floyd-Warshall over the folded edge set checks both.
    std::vector<std::tuple<int, NodeId, NodeId, double>> since_clear;
    int ops = static_cast<int>(rng.UniformInt(5, 60));
    for (int op = 0; op < ops; ++op) {
      double roll = rng.UniformDouble();
      if (roll < 0.06) {
        accumulated.Clear();
        since_clear.clear();
      } else if (roll < 0.25) {
        NodeId a = static_cast<NodeId>(rng.UniformInt(0, n - 1));
        NodeId b = static_cast<NodeId>(rng.UniformInt(0, n - 1));
        accumulated.AddTreeEdge(a, b);
        since_clear.emplace_back(1, a, b, 0.5);
      } else {
        NodeId a = static_cast<NodeId>(rng.UniformInt(0, n - 1));
        NodeId b = static_cast<NodeId>(rng.UniformInt(0, n - 1));
        double q = rng.UniformDouble();
        accumulated.AddLink(a, b, q);
        since_clear.emplace_back(0, a, b, q);
      }
      if (rng.UniformDouble() < 0.30 || op + 1 == ops) {
        accumulated.Build();
        XmitsEstimator scratch(n);
        for (const auto& [kind, a, b, q] : since_clear) {
          if (kind == 0) {
            scratch.AddLink(a, b, q);
          } else {
            scratch.AddTreeEdge(a, b);
          }
        }
        scratch.Build();
        std::vector<std::vector<double>> oracle =
            FloydWarshallOracle(n, since_clear);
        for (int x = 0; x < n; ++x) {
          for (int y = 0; y < n; ++y) {
            ASSERT_DOUBLE_EQ(
                accumulated.Xmits(static_cast<NodeId>(x), static_cast<NodeId>(y)),
                scratch.Xmits(static_cast<NodeId>(x), static_cast<NodeId>(y)))
                << "round " << round << " op " << op << " pair " << x << "->" << y;
            ASSERT_NEAR(accumulated.Xmits(static_cast<NodeId>(x), static_cast<NodeId>(y)),
                        oracle[x][y], 1e-9)
                << "round " << round << " op " << op << " pair " << x << "->" << y;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace scoop::core
