#include "sim/partition.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "sim/topology.h"
#include "topology_test_util.h"

namespace scoop::sim {
namespace {

Topology Grid(int nodes, uint64_t seed = 1) {
  GridTopologyOptions opts;
  opts.num_nodes = nodes;
  opts.seed = seed;
  return Topology::MakeGrid(opts);
}

Topology Random(int nodes, uint64_t seed = 7) {
  RandomTopologyOptions opts;
  opts.num_nodes = nodes;
  opts.seed = seed;
  return Topology::MakeRandom(opts);
}

std::vector<int> PartSizes(const std::vector<int>& owner, int shards) {
  std::vector<int> sizes(static_cast<size_t>(shards), 0);
  for (int p : owner) {
    EXPECT_GE(p, 0);
    EXPECT_LT(p, shards);
    ++sizes[static_cast<size_t>(p)];
  }
  return sizes;
}

// Undirected audible adjacency (union of in- and out-links), as the
// mincut partitioner sees it.
std::vector<std::vector<int>> Adjacency(const Topology& t) {
  const int n = t.num_nodes();
  std::vector<std::vector<int>> adj(static_cast<size_t>(n));
  for (NodeId u = 0; u < n; ++u) {
    for (const Topology::Link& link : t.audible_from(u)) {
      adj[u].push_back(link.to);
      adj[link.to].push_back(u);
    }
  }
  for (auto& row : adj) {
    std::sort(row.begin(), row.end());
    row.erase(std::unique(row.begin(), row.end()), row.end());
  }
  return adj;
}

// Every part must induce one connected component of the audible graph
// (given the whole graph is connected): BFS within each part.
bool PartsConnected(const Topology& t, const std::vector<int>& owner, int shards) {
  const auto adj = Adjacency(t);
  const int n = t.num_nodes();
  std::vector<bool> visited(static_cast<size_t>(n), false);
  for (int part = 0; part < shards; ++part) {
    int start = -1;
    int members = 0;
    for (int v = 0; v < n; ++v) {
      if (owner[static_cast<size_t>(v)] == part) {
        ++members;
        if (start < 0) start = v;
      }
    }
    if (members == 0) continue;
    std::vector<int> stack = {start};
    visited[static_cast<size_t>(start)] = true;
    int reached = 1;
    while (!stack.empty()) {
      int v = stack.back();
      stack.pop_back();
      for (int w : adj[static_cast<size_t>(v)]) {
        if (owner[static_cast<size_t>(w)] == part && !visited[static_cast<size_t>(w)]) {
          visited[static_cast<size_t>(w)] = true;
          ++reached;
          stack.push_back(w);
        }
      }
    }
    if (reached != members) return false;
  }
  return true;
}

// The documented balance bound from sim/partition.h.
int MaxPartBound(int n, int k) {
  return (n + k - 1) / k + std::max(1, n / (8 * k));
}

TEST(PartitionTest, DeterministicAcrossRuns) {
  for (PartitionKind kind : {PartitionKind::kStrip, PartitionKind::kMincut}) {
    Topology grid = Grid(121);
    Topology rand = Random(63);
    for (int k : {2, 4, 8}) {
      EXPECT_EQ(PartitionNodes(grid, k, kind), PartitionNodes(grid, k, kind));
      EXPECT_EQ(PartitionNodes(rand, k, kind), PartitionNodes(rand, k, kind));
    }
  }
  // And stable against rebuilding the topology from the same options.
  EXPECT_EQ(PartitionNodes(Grid(121), 4, PartitionKind::kMincut),
            PartitionNodes(Grid(121), 4, PartitionKind::kMincut));
}

TEST(PartitionTest, BalanceWithinDocumentedBound) {
  for (PartitionKind kind : {PartitionKind::kStrip, PartitionKind::kMincut}) {
    for (const Topology& t : {Grid(121), Grid(256), Random(63), Random(200)}) {
      for (int k : {2, 3, 4, 8}) {
        std::vector<int> owner = PartitionNodes(t, k, kind);
        std::vector<int> sizes = PartSizes(owner, k);
        const int bound = MaxPartBound(t.num_nodes(), k);
        EXPECT_LE(*std::max_element(sizes.begin(), sizes.end()), bound)
            << PartitionKindName(kind) << " n=" << t.num_nodes() << " k=" << k;
        const double imbalance = PartitionImbalance(owner, k);
        EXPECT_LE(imbalance,
                  static_cast<double>(bound) * k / t.num_nodes() + 1e-9);
        EXPECT_GE(imbalance, 1.0 - 1e-9);
      }
    }
  }
}

TEST(PartitionTest, MincutPartsNonEmptyAndConnected) {
  for (const Topology& t : {Grid(121), Grid(256), Random(63), Random(200)}) {
    ASSERT_TRUE(IsConnected(t, 0.0));
    for (int k : {2, 3, 4, 8}) {
      std::vector<int> owner = PartitionNodes(t, k, PartitionKind::kMincut);
      std::vector<int> sizes = PartSizes(owner, k);
      for (int part = 0; part < k; ++part) {
        EXPECT_GT(sizes[static_cast<size_t>(part)], 0)
            << "empty part " << part << " n=" << t.num_nodes() << " k=" << k;
      }
      EXPECT_TRUE(PartsConnected(t, owner, k))
          << "disconnected part, n=" << t.num_nodes() << " k=" << k;
    }
  }
}

TEST(PartitionTest, MincutCutsNoMoreThanStripOnGrids) {
  // The whole point of the mincut kind: fewer audible links cross shard
  // boundaries than under coordinate strips. On jittered grids the greedy
  // + refine pass must at least never be worse.
  for (int nodes : {121, 256, 1024}) {
    Topology t = Grid(nodes);
    for (int k : {2, 4, 8}) {
      const uint64_t strip =
          CutEdges(t, PartitionNodes(t, k, PartitionKind::kStrip));
      const uint64_t mincut =
          CutEdges(t, PartitionNodes(t, k, PartitionKind::kMincut));
      EXPECT_LE(mincut, strip) << "nodes=" << nodes << " k=" << k;
    }
  }
}

TEST(PartitionTest, SingleShardAndDegenerateK) {
  Topology t = Random(20);
  for (PartitionKind kind : {PartitionKind::kStrip, PartitionKind::kMincut}) {
    // K = 1: everything in part 0, zero cut.
    std::vector<int> one = PartitionNodes(t, 1, kind);
    EXPECT_EQ(one, std::vector<int>(20, 0));
    EXPECT_EQ(CutEdges(t, one), 0u);
    EXPECT_DOUBLE_EQ(PartitionImbalance(one, 1), 1.0);

    // K > n: valid assignment, every node alone-or-grouped but in range;
    // the engine tolerates empty shards.
    std::vector<int> many = PartitionNodes(t, 64, kind);
    std::vector<int> sizes = PartSizes(many, 64);
    EXPECT_EQ(static_cast<int>(many.size()), 20);
    // K = n: strip semantics give exactly one node per part.
    std::vector<int> exact = PartitionNodes(t, 20, kind);
    std::vector<int> exact_sizes = PartSizes(exact, 20);
    EXPECT_EQ(*std::max_element(exact_sizes.begin(), exact_sizes.end()), 1);
  }
  // Empty topology / zero shards degenerate cleanly.
  EXPECT_DOUBLE_EQ(PartitionImbalance({}, 4), 1.0);
}

TEST(PartitionTest, KindNamesMatchScenarioValues) {
  EXPECT_STREQ(PartitionKindName(PartitionKind::kStrip), "strip");
  EXPECT_STREQ(PartitionKindName(PartitionKind::kMincut), "mincut");
}

}  // namespace
}  // namespace scoop::sim
