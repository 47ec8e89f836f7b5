#include "sim/topology.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "topology_test_util.h"

namespace scoop::sim {
namespace {

/// Brute-force all-pairs reference for Topology::ComputeDelivery, O(N^2),
/// with its own copy of the propagation model (0.78 peak delivery, 2.2
/// falloff exponent, 0.22 shadowing sigma, 0.08 audibility floor) and the
/// same pair-keyed shadowing draws, so the spatial walk must match it to
/// the bit.
Topology::SparseLinks ComputeDeliveryDense(const std::vector<Point>& positions,
                                           double range, uint64_t link_seed) {
  constexpr double kMaxDelivery = 0.78;
  constexpr double kFalloffExp = 2.2;
  constexpr double kShadowingSigma = 0.22;
  constexpr double kMinDelivery = 0.08;
  size_t n = positions.size();
  Topology::SparseLinks links(n);
  if (n < 2 || range <= 0.0) return links;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      double d = std::hypot(positions[i].x - positions[j].x, positions[i].y - positions[j].y);
      if (d >= range) continue;
      double base = kMaxDelivery * (1.0 - std::pow(d / range, kFalloffExp));
      uint64_t pair_key = (static_cast<uint64_t>(i) << 32) | j;
      Rng rng(MixSeed(link_seed, pair_key), /*stream=*/pair_key);
      double p = std::min(base * std::exp(rng.Gaussian(0.0, kShadowingSigma)), kMaxDelivery);
      if (p >= kMinDelivery) links[i].push_back(Topology::Link{static_cast<NodeId>(j), p});
    }
  }
  return links;
}

/// Mean fraction of the network a node hears over links with delivery
/// probability >= 0.1.
double NeighborFraction(const Topology& t) {
  long heard = 0;
  for (NodeId from = 0; from < t.num_nodes(); ++from) {
    for (const Topology::Link& link : t.audible_from(from)) {
      if (link.prob >= 0.1) ++heard;
    }
  }
  double n = t.num_nodes();
  return static_cast<double>(heard) / (n * (n - 1));
}

/// Mean hop distance from the base to the nodes it reaches over links with
/// delivery probability >= 0.1.
double MeanHopsFromBase(const Topology& t) {
  double sum = 0;
  int count = 0;
  for (int hops : HopsFrom(t, 0, 0.1)) {
    if (hops > 0) {
      sum += hops;
      ++count;
    }
  }
  return count == 0 ? 0.0 : sum / count;
}

TEST(TopologyTest, FromMatrixRoundTrip) {
  std::vector<Point> pos = {{0, 0}, {1, 0}, {2, 0}};
  std::vector<std::vector<double>> d = {
      {0.0, 0.9, 0.0}, {0.8, 0.0, 0.7}, {0.0, 0.6, 0.0}};
  Topology t = Topology::FromMatrix(pos, d);
  EXPECT_EQ(t.num_nodes(), 3);
  EXPECT_DOUBLE_EQ(t.delivery_prob(0, 1), 0.9);
  EXPECT_DOUBLE_EQ(t.delivery_prob(1, 0), 0.8);
  EXPECT_DOUBLE_EQ(t.delivery_prob(0, 2), 0.0);
}

TEST(TopologyTest, RandomIsConnected) {
  RandomTopologyOptions opts;
  opts.num_nodes = 63;
  opts.seed = 7;
  Topology t = Topology::MakeRandom(opts);
  EXPECT_EQ(t.num_nodes(), 63);
  EXPECT_TRUE(IsConnected(t, 0.1));
}

TEST(TopologyTest, RandomNeighborFractionNearTarget) {
  RandomTopologyOptions opts;
  opts.num_nodes = 63;
  opts.target_neighbor_fraction = 0.20;
  opts.seed = 11;
  Topology t = Topology::MakeRandom(opts);
  double frac = NeighborFraction(t);
  // The paper reports nodes hear ~20% of the network.
  EXPECT_GT(frac, 0.10);
  EXPECT_LT(frac, 0.35);
}

TEST(TopologyTest, LinksAreLossyAndAsymmetric) {
  RandomTopologyOptions opts;
  opts.num_nodes = 63;
  opts.seed = 13;
  Topology t = Topology::MakeRandom(opts);
  // Paper: audible pairs lose 25%-90% of packets, so delivery stays below
  // ~0.8 even on the best links.
  int audible = 0, asymmetric = 0;
  double max_p = 0;
  for (NodeId i = 0; i < t.num_nodes(); ++i) {
    for (NodeId j = 0; j < t.num_nodes(); ++j) {
      if (i == j) continue;
      double p = t.delivery_prob(i, j);
      if (p <= 0) continue;
      ++audible;
      max_p = std::max(max_p, p);
      double q = t.delivery_prob(j, i);
      if (std::abs(p - q) > 0.02) ++asymmetric;
    }
  }
  EXPECT_GT(audible, 0);
  EXPECT_LE(max_p, 0.79);
  // Most links should differ between directions.
  EXPECT_GT(asymmetric, audible / 2);
}

TEST(TopologyTest, TestbedIsConnectedAndElongated) {
  TestbedTopologyOptions opts;
  opts.seed = 3;
  Topology t = Topology::MakeTestbed(opts);
  EXPECT_EQ(t.num_nodes(), 63);
  EXPECT_TRUE(IsConnected(t, 0.1));
  // Multi-hop: mean hops from the base must exceed 1 (base can't hear all).
  EXPECT_GT(MeanHopsFromBase(t), 1.2);
}

TEST(TopologyTest, DeterministicForSeed) {
  RandomTopologyOptions opts;
  opts.num_nodes = 40;
  opts.seed = 99;
  Topology a = Topology::MakeRandom(opts);
  Topology b = Topology::MakeRandom(opts);
  for (NodeId i = 0; i < a.num_nodes(); ++i) {
    for (NodeId j = 0; j < a.num_nodes(); ++j) {
      ASSERT_DOUBLE_EQ(a.delivery_prob(i, j), b.delivery_prob(i, j));
    }
  }
}

TEST(TopologyTest, DifferentSeedsGiveDifferentTopologies) {
  RandomTopologyOptions opts;
  opts.num_nodes = 40;
  opts.seed = 1;
  Topology a = Topology::MakeRandom(opts);
  opts.seed = 2;
  Topology b = Topology::MakeRandom(opts);
  bool any_diff = false;
  for (NodeId i = 1; i < a.num_nodes() && !any_diff; ++i) {
    if (a.position(i).x != b.position(i).x) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(TopologyTest, GridIsConnectedWithBaseAtCorner) {
  GridTopologyOptions opts;
  opts.num_nodes = 121;
  opts.seed = 5;
  Topology t = Topology::MakeGrid(opts);
  EXPECT_EQ(t.num_nodes(), 121);
  EXPECT_TRUE(IsConnected(t, 0.1));
  // The basestation anchors the (0, 0) corner of the lattice, unjittered.
  EXPECT_DOUBLE_EQ(t.position(0).x, 0.0);
  EXPECT_DOUBLE_EQ(t.position(0).y, 0.0);
  // 121 nodes on an 11x11 lattice at 6 m spacing: the far corner is ~60 m
  // out, so the deployment is multi-hop from the base.
  EXPECT_GT(MeanHopsFromBase(t), 1.2);
}

TEST(TopologyTest, GridIsDenserThanRandom) {
  GridTopologyOptions grid_opts;
  grid_opts.num_nodes = 63;
  grid_opts.seed = 9;
  Topology grid = Topology::MakeGrid(grid_opts);
  RandomTopologyOptions rand_opts;
  rand_opts.num_nodes = 63;
  rand_opts.seed = 9;
  Topology random = Topology::MakeRandom(rand_opts);
  // 6 m lattice spacing packs nodes tighter than the 55 m random square, so
  // a node should hear a larger fraction of the network.
  EXPECT_GT(NeighborFraction(grid), NeighborFraction(random));
}

TEST(TopologyTest, GridDeterministicForSeed) {
  GridTopologyOptions opts;
  opts.num_nodes = 49;
  opts.seed = 31;
  Topology a = Topology::MakeGrid(opts);
  Topology b = Topology::MakeGrid(opts);
  for (NodeId i = 0; i < a.num_nodes(); ++i) {
    for (NodeId j = 0; j < a.num_nodes(); ++j) {
      ASSERT_DOUBLE_EQ(a.delivery_prob(i, j), b.delivery_prob(i, j));
    }
  }
}

// The spatial-hash link walk must be an exact optimization: identical link
// sets and qualities to the brute-force all-pairs reference, because the
// shadowing draw of a directed pair is keyed on (seed, from, to) rather
// than scan order.
TEST(TopologyTest, SpatialDeliveryMatchesDenseReference) {
  Rng rng(77, /*stream=*/0xCE11);
  for (int trial = 0; trial < 4; ++trial) {
    int n = 40 + trial * 60;
    std::vector<Point> positions(static_cast<size_t>(n));
    for (auto& p : positions) {
      p = Point{rng.UniformDouble() * 120.0, rng.UniformDouble() * 80.0};
    }
    double range = 10.0 + trial * 9.0;
    uint64_t link_seed = MixSeed(1234, static_cast<uint64_t>(trial));
    Topology::SparseLinks spatial =
        Topology::ComputeDelivery(positions, range, link_seed);
    Topology::SparseLinks dense = ComputeDeliveryDense(positions, range, link_seed);
    ASSERT_EQ(spatial.size(), dense.size());
    for (size_t i = 0; i < spatial.size(); ++i) {
      ASSERT_EQ(spatial[i].size(), dense[i].size()) << "node " << i;
      for (size_t k = 0; k < spatial[i].size(); ++k) {
        EXPECT_EQ(spatial[i][k].to, dense[i][k].to) << "node " << i;
        EXPECT_EQ(spatial[i][k].prob, dense[i][k].prob)
            << "link " << i << "->" << spatial[i][k].to;
      }
    }
  }
}

// Degenerate geometries must not break (or bloat) the grid hash: all
// nodes in one cell (range larger than the extent), ranges far smaller
// than the extent, and collinear / kilometer-long deployments whose naive
// cell count would dwarf N (the doubling guard caps it at O(N)).
TEST(TopologyTest, SpatialDeliveryDegenerateRanges) {
  Rng rng(5, /*stream=*/0xDE6);
  std::vector<Point> positions(30);
  for (auto& p : positions) {
    p = Point{rng.UniformDouble() * 500.0, rng.UniformDouble() * 2.0};
  }
  for (double range : {0.05, 1.0, 5000.0}) {
    Topology::SparseLinks spatial =
        Topology::ComputeDelivery(positions, range, /*link_seed=*/9);
    Topology::SparseLinks dense = ComputeDeliveryDense(positions, range, /*link_seed=*/9);
    EXPECT_EQ(spatial, dense) << "range " << range;
  }

  // Perfectly collinear million-meter line, centimeter range: zero area,
  // extent/range ~ 1e8. Must complete (and agree with dense) rather than
  // allocate an extent-sized grid.
  std::vector<Point> line(40);
  for (size_t i = 0; i < line.size(); ++i) {
    line[i] = Point{static_cast<double>(i) * 25000.0, 0.0};
  }
  line[1] = Point{0.005, 0.0};  // One in-range pair so links exist.
  EXPECT_EQ(Topology::ComputeDelivery(line, 0.01, /*link_seed=*/3),
            ComputeDeliveryDense(line, 0.01, /*link_seed=*/3));
}

TEST(TopologyTest, MeanHopsFromBasePositive) {
  RandomTopologyOptions opts;
  opts.num_nodes = 63;
  opts.seed = 21;
  Topology t = Topology::MakeRandom(opts);
  double hops = MeanHopsFromBase(t);
  EXPECT_GT(hops, 1.0);
  EXPECT_LT(hops, 10.0);
}

// FNV-1a over a generator's whole output: positions, the CSR links
// (receiver plus the bits of prob) and each link's in-rank.
uint64_t OutputHash(const Topology& t) {
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (word >> (8 * byte)) & 0xFF;
      h *= 0x100000001b3ULL;
    }
  };
  for (const Point& p : t.positions()) {
    mix(std::bit_cast<uint64_t>(p.x));
    mix(std::bit_cast<uint64_t>(p.y));
  }
  for (NodeId from = 0; from < t.num_nodes(); ++from) {
    std::span<const Topology::Link> row = t.audible_from(from);
    for (uint32_t k = 0; k < row.size(); ++k) {
      mix(row[k].to);
      mix(std::bit_cast<uint64_t>(row[k].prob));
      mix(t.in_rank(t.link_base(from) + k));
    }
  }
  return h;
}

// Every preset's output, pinned bit for bit at two sizes and two seeds:
// the positions RNG streams, link-seed offsets, range-tuning steps and the
// propagation arithmetic must not move.
TEST(TopologyTest, GeneratorsArePinned) {
  struct Case {
    const char* preset;
    int nodes;
    uint64_t seed;
    uint64_t hash;
  };
  const Case cases[] = {
      {"testbed", 63, 1, 0xb488a48d7df00efcULL},  {"testbed", 63, 42, 0xd9a44a923d3acc49ULL},
      {"testbed", 150, 1, 0x5ae597b873b994a1ULL}, {"testbed", 150, 42, 0x0232f713de2c3e95ULL},
      {"grid", 121, 1, 0xbe6c81218bbb44eaULL},    {"grid", 121, 42, 0xb1b428efc3af609dULL},
      {"grid", 400, 1, 0xb419c4a3e2a0d3aaULL},    {"grid", 400, 42, 0x5e3c977a38200218ULL},
      {"random", 63, 1, 0xd921e3fb8548664aULL},   {"random", 63, 42, 0xe78710affab4dfffULL},
      {"random", 250, 1, 0xd0b2572ee508e455ULL},  {"random", 250, 42, 0xd7aa8536659d549dULL},
  };
  for (const Case& c : cases) {
    std::string preset = c.preset;
    uint64_t hash = 0;
    if (preset == "testbed") {
      TestbedTopologyOptions opts;
      opts.num_nodes = c.nodes;
      opts.seed = c.seed;
      hash = OutputHash(Topology::MakeTestbed(opts));
    } else if (preset == "grid") {
      GridTopologyOptions opts;
      opts.num_nodes = c.nodes;
      opts.seed = c.seed;
      hash = OutputHash(Topology::MakeGrid(opts));
    } else {
      RandomTopologyOptions opts;
      opts.num_nodes = c.nodes;
      opts.seed = c.seed;
      hash = OutputHash(Topology::MakeRandom(opts));
    }
    EXPECT_EQ(hash, c.hash) << c.preset << " n=" << c.nodes << " seed=" << c.seed
                            << " hash=0x" << std::hex << hash;
  }
}

TEST(TopologyTest, InRankIsTheSendersPositionAmongTheReceiversInLinks) {
  RandomTopologyOptions random;
  random.num_nodes = 63;
  random.seed = 5;
  GridTopologyOptions grid;
  grid.num_nodes = 121;
  for (const Topology& t : {Topology::MakeRandom(random), Topology::MakeGrid(grid)}) {
    // Reference: each receiver's audible senders in ascending id, found by
    // scanning the whole delivery matrix.
    int n = t.num_nodes();
    std::vector<std::vector<NodeId>> in_links(static_cast<size_t>(n));
    for (NodeId from = 0; from < n; ++from) {
      for (NodeId to = 0; to < n; ++to) {
        if (t.delivery_prob(from, to) > 0.0) in_links[to].push_back(from);
      }
    }
    uint32_t expected_base = 0;
    for (NodeId from = 0; from < n; ++from) {
      ASSERT_EQ(t.link_base(from), expected_base);
      std::span<const Topology::Link> row = t.audible_from(from);
      for (uint32_t k = 0; k < row.size(); ++k) {
        const std::vector<NodeId>& senders = in_links[row[k].to];
        auto pos = std::find(senders.begin(), senders.end(), from) - senders.begin();
        EXPECT_EQ(t.in_rank(t.link_base(from) + k), pos) << from << "->" << row[k].to;
      }
      expected_base += static_cast<uint32_t>(row.size());
    }
    EXPECT_EQ(t.num_links(), expected_base);
  }
}

}  // namespace
}  // namespace scoop::sim
