// Property tests for the topology's neighborhood indexes: the CSR
// audible-neighbor lists and per-receiver interferer bitmaps must agree
// exactly with the flat delivery matrix for every generator -- they are
// the structures the radio hot path trusts instead of walking the matrix.
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "sim/topology.h"

namespace scoop::sim {
namespace {

/// Checks every index invariant against the delivery matrix ground truth.
void ExpectIndexesMatchMatrix(const Topology& topo) {
  int n = topo.num_nodes();
  for (int from = 0; from < n; ++from) {
    auto links = topo.audible_from(static_cast<NodeId>(from));
    // CSR rows are sorted ascending by receiver, with no duplicates.
    for (size_t k = 1; k < links.size(); ++k) {
      EXPECT_LT(links[k - 1].to, links[k].to);
    }
    // Every listed link carries the matrix probability, and every positive
    // matrix entry is listed: walking the list and the row in lockstep
    // checks both directions of the equivalence.
    size_t cursor = 0;
    for (int to = 0; to < n; ++to) {
      double p = topo.delivery_prob(static_cast<NodeId>(from), static_cast<NodeId>(to));
      bool listed = cursor < links.size() && links[cursor].to == to;
      if (p > 0.0) {
        ASSERT_TRUE(listed) << "audible link " << from << "->" << to << " missing from CSR";
        EXPECT_EQ(links[cursor].prob, p);
        ++cursor;
      } else {
        EXPECT_FALSE(listed) << "zero-prob link " << from << "->" << to << " in CSR";
      }
      // Interferer set: exactly the senders clearing the threshold.
      EXPECT_EQ(topo.interferers(static_cast<NodeId>(to)).Test(static_cast<NodeId>(from)),
                p >= Topology::kInterferenceThreshold)
          << "interferer mismatch " << from << "->" << to << " (p=" << p << ")";
    }
    EXPECT_EQ(cursor, links.size());
  }
}

TEST(TopologyIndexTest, RandomTopologyIndexesMatchMatrix) {
  for (uint64_t seed : {1u, 7u, 42u}) {
    RandomTopologyOptions opts;
    opts.num_nodes = 63;
    opts.seed = seed;
    ExpectIndexesMatchMatrix(Topology::MakeRandom(opts));
  }
}

TEST(TopologyIndexTest, TestbedTopologyIndexesMatchMatrix) {
  TestbedTopologyOptions opts;
  opts.num_nodes = 63;
  opts.seed = 3;
  ExpectIndexesMatchMatrix(Topology::MakeTestbed(opts));
}

TEST(TopologyIndexTest, GridTopologyIndexesMatchMatrix) {
  GridTopologyOptions opts;
  opts.num_nodes = 121;
  opts.seed = 5;
  ExpectIndexesMatchMatrix(Topology::MakeGrid(opts));
}

TEST(TopologyIndexTest, FromMatrixIndexesMatchMatrix) {
  // Random matrix with zeros, sub-threshold, and strong entries mixed in.
  Rng rng(99, 0xF00);
  const int n = 17;
  std::vector<Point> positions(n);
  std::vector<std::vector<double>> m(n, std::vector<double>(n, 0.0));
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      if (i == j) continue;
      double roll = rng.UniformDouble();
      if (roll < 0.4) continue;                       // Inaudible.
      m[i][j] = (roll < 0.6) ? 0.03 : roll - 0.25;    // Some below threshold.
    }
  }
  ExpectIndexesMatchMatrix(Topology::FromMatrix(positions, m));
}

TEST(TopologyIndexTest, GeneratorsScalePastTheWireFormatNodeCap) {
  // The old 128-node cap came from the query-packet bitmap, now gone:
  // radio-level benchmarks build 500+-node topologies and the NodeSet codec
  // carries the query sets above them.
  GridTopologyOptions opts;
  opts.num_nodes = 500;
  opts.seed = 2;
  Topology topo = Topology::MakeGrid(opts);
  EXPECT_EQ(topo.num_nodes(), 500);
  ExpectIndexesMatchMatrix(topo);
}

TEST(TopologyIndexTest, LargeGridWithoutDenseMatrixIndexesMatchCsr) {
  // Past kDenseDeliveryMaxNodes no matrix is materialized and
  // delivery_prob() binary-searches the sender's CSR row: the lockstep walk
  // pins that it finds every listed link and returns 0 for every other pair,
  // and that the interferer sets agree with it.
  GridTopologyOptions opts;
  opts.num_nodes = 2100;
  opts.seed = 4;
  Topology topo = Topology::MakeGrid(opts);
  ASSERT_GT(topo.num_nodes(), Topology::kDenseDeliveryMaxNodes);
  ExpectIndexesMatchMatrix(topo);
}

TEST(TopologyIndexTest, InterfererFormTracksAudibleDensity) {
  // The equivalence checks above run against whichever form the density
  // heuristic picks; this pins that the corpus actually exercises both.
  // A 500-node grid hears a constant-degree neighborhood -> sparse lists.
  GridTopologyOptions grid;
  grid.num_nodes = 500;
  grid.seed = 2;
  Topology sparse_topo = Topology::MakeGrid(grid);
  int sparse_count = 0;
  for (const InterfererSet& set : sparse_topo.interferer_sets()) {
    if (!set.is_dense()) ++sparse_count;
  }
  EXPECT_GT(sparse_count, 400);

  // A fully-connected strong-link matrix is maximally dense -> bitmaps.
  const int n = 32;
  std::vector<Point> positions(n);
  std::vector<std::vector<double>> m(n, std::vector<double>(n, 0.9));
  for (int i = 0; i < n; ++i) m[i][i] = 0.0;
  Topology dense_topo = Topology::FromMatrix(positions, m);
  for (const InterfererSet& set : dense_topo.interferer_sets()) {
    EXPECT_TRUE(set.is_dense());
  }
}

}  // namespace
}  // namespace scoop::sim
