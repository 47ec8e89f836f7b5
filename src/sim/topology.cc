#include "sim/topology.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>

#include "common/check.h"

namespace scoop::sim {

namespace {

// The synthetic radio model behind every preset, fixed at the §6 regime.
/// Delivery probability at distance 0 before noise (<1: even adjacent
/// motes drop packets, per §6: best pairs still lose ~25%).
constexpr double kMaxDelivery = 0.78;
/// Delivery falls off as (1 - (d/range)^kFalloffExp) * kMaxDelivery.
constexpr double kFalloffExp = 2.2;
/// Lognormal shadowing: per-directed-link multiplicative noise stddev.
constexpr double kShadowingSigma = 0.22;
/// Links weaker than this are inaudible (prob clamped to 0).
constexpr double kMinDelivery = 0.08;

/// Links at least this strong count toward a generated network's
/// connectivity and its mean neighbor fraction.
constexpr double kConnectivityThreshold = 0.1;

double Distance(const Point& a, const Point& b) {
  return std::hypot(a.x - b.x, a.y - b.y);
}

/// True iff a BFS from node 0 over links with prob >=
/// kConnectivityThreshold reaches every node.
bool ReachesAllFromBase(const Topology::SparseLinks& links) {
  std::vector<bool> seen(links.size(), false);
  std::queue<int> frontier;
  frontier.push(0);
  seen[0] = true;
  size_t reached = 1;
  while (!frontier.empty()) {
    int u = frontier.front();
    frontier.pop();
    for (const Topology::Link& link : links[static_cast<size_t>(u)]) {
      if (link.prob < kConnectivityThreshold || seen[link.to]) continue;
      seen[link.to] = true;
      ++reached;
      frontier.push(link.to);
    }
  }
  return reached == links.size();
}

/// True iff every node is reachable *from* the base and can reach the
/// base over links with prob >= kConnectivityThreshold. (Asymmetric
/// shadowing can leave clusters with outbound-only links; those are not
/// usable networks.) Two BFS passes, O(links).
bool ConnectedBothWays(const Topology::SparseLinks& links) {
  if (!ReachesAllFromBase(links)) return false;
  Topology::SparseLinks reverse(links.size());
  for (size_t from = 0; from < links.size(); ++from) {
    for (const Topology::Link& link : links[from]) {
      if (link.prob >= kConnectivityThreshold) {
        reverse[link.to].push_back(Topology::Link{static_cast<NodeId>(from), link.prob});
      }
    }
  }
  return ReachesAllFromBase(reverse);
}

/// Mean fraction of the network a node hears over links with prob >=
/// kConnectivityThreshold.
double NeighborFraction(const Topology::SparseLinks& links) {
  size_t n = links.size();
  long total = 0;
  for (const auto& row : links) {
    for (const Topology::Link& link : row) {
      if (link.prob >= kConnectivityThreshold) ++total;
    }
  }
  return static_cast<double>(total) / (static_cast<double>(n) * (n - 1));
}

/// Delivery probability of the directed pair (from, to) at distance `d`.
/// The lognormal shadowing draw comes from a generator keyed on
/// (link_seed, from, to), so any enumeration order produces the same link.
double PairDelivery(uint64_t link_seed, NodeId from, NodeId to, double d, double range) {
  double base = kMaxDelivery * (1.0 - std::pow(d / range, kFalloffExp));
  uint64_t pair_key = (static_cast<uint64_t>(from) << 32) | to;
  Rng rng(MixSeed(link_seed, pair_key), /*stream=*/pair_key);
  double noisy = base * std::exp(rng.Gaussian(0.0, kShadowingSigma));
  noisy = std::min(noisy, kMaxDelivery);
  return (noisy < kMinDelivery) ? 0.0 : noisy;
}

/// The connect-or-widen loop every generator runs: attempt k draws links
/// at `range` with link seed MixSeed(seed, first_offset + k) and returns
/// the first set connected both ways, growing the range 1.12x after each
/// disconnected one. With `target_fraction` > 0 a connected set is also
/// re-tuned toward that mean neighbor fraction (x0.93 when over 1.25x the
/// target, x1.08 when under 0.75x). After 40 attempts the last resort is
/// 4x the range, link seed MixSeed(seed, last_resort_offset): effectively
/// always connected.
Topology::SparseLinks ConnectOrWiden(const std::vector<Point>& positions, uint64_t seed,
                                     uint64_t first_offset, uint64_t last_resort_offset,
                                     double range, double target_fraction) {
  for (int attempt = 0; attempt < 40; ++attempt) {
    uint64_t link_seed = MixSeed(seed, first_offset + static_cast<uint64_t>(attempt));
    Topology::SparseLinks links = Topology::ComputeDelivery(positions, range, link_seed);
    if (!ConnectedBothWays(links)) {
      range *= 1.12;
      continue;
    }
    if (target_fraction > 0) {
      double frac = NeighborFraction(links);
      if (frac > target_fraction * 1.25) {
        range *= 0.93;
        continue;
      }
      if (frac < target_fraction * 0.75) {
        range *= 1.08;
        continue;
      }
    }
    return links;
  }
  return Topology::ComputeDelivery(positions, range * 4,
                                   MixSeed(seed, last_resort_offset));
}

}  // namespace

Topology::SparseLinks Topology::ComputeDelivery(const std::vector<Point>& positions,
                                                double range, uint64_t link_seed) {
  size_t n = positions.size();
  SparseLinks links(n);
  if (n < 2 || range <= 0.0) return links;

  // Uniform grid hash over the bounding box. Cells are at least one radio
  // range wide, so a node's in-range partners all sit in its 3x3 cell
  // neighborhood.
  double min_x = std::numeric_limits<double>::infinity(), min_y = min_x;
  double max_x = -min_x, max_y = -min_x;
  for (const Point& p : positions) {
    min_x = std::min(min_x, p.x);
    min_y = std::min(min_y, p.y);
    max_x = std::max(max_x, p.x);
    max_y = std::max(max_y, p.y);
  }
  double extent_x = max_x - min_x;
  double extent_y = max_y - min_y;
  // Correctness only needs cell >= range (a 3x3 neighborhood then covers
  // the range); doubling the cell until the grid holds O(N) cells bounds
  // the allocation for any extent or aspect ratio -- collinear or
  // kilometer-long deployments with a tiny range included -- at the price
  // of more candidates per neighborhood. All-double arithmetic: the int
  // casts below only happen once the per-dimension counts are small.
  double cell = range;
  while ((std::floor(extent_x / cell) + 1.0) * (std::floor(extent_y / cell) + 1.0) >
         4.0 * static_cast<double>(n) + 64.0) {
    cell *= 2.0;
  }
  int grid_w = static_cast<int>(extent_x / cell) + 1;
  int grid_h = static_cast<int>(extent_y / cell) + 1;
  auto cell_of = [&](const Point& p) {
    int cx = std::min(static_cast<int>((p.x - min_x) / cell), grid_w - 1);
    int cy = std::min(static_cast<int>((p.y - min_y) / cell), grid_h - 1);
    return static_cast<size_t>(cy) * static_cast<size_t>(grid_w) + static_cast<size_t>(cx);
  };

  // Counting-sort nodes into cells: start[c] .. start[c+1] indexes items.
  size_t num_cells = static_cast<size_t>(grid_w) * static_cast<size_t>(grid_h);
  std::vector<uint32_t> node_cell(n);
  std::vector<uint32_t> start(num_cells + 1, 0);
  for (size_t i = 0; i < n; ++i) {
    node_cell[i] = static_cast<uint32_t>(cell_of(positions[i]));
    ++start[node_cell[i] + 1];
  }
  for (size_t c = 0; c < num_cells; ++c) start[c + 1] += start[c];
  std::vector<uint32_t> items(n);
  std::vector<uint32_t> cursor(start.begin(), start.end() - 1);
  for (size_t i = 0; i < n; ++i) items[cursor[node_cell[i]]++] = static_cast<uint32_t>(i);

  for (size_t i = 0; i < n; ++i) {
    int cx = static_cast<int>(node_cell[i] % static_cast<uint32_t>(grid_w));
    int cy = static_cast<int>(node_cell[i] / static_cast<uint32_t>(grid_w));
    std::vector<Link>& out = links[i];
    for (int dy = -1; dy <= 1; ++dy) {
      int ny = cy + dy;
      if (ny < 0 || ny >= grid_h) continue;
      for (int dx = -1; dx <= 1; ++dx) {
        int nx = cx + dx;
        if (nx < 0 || nx >= grid_w) continue;
        size_t c = static_cast<size_t>(ny) * static_cast<size_t>(grid_w) +
                   static_cast<size_t>(nx);
        for (uint32_t k = start[c]; k < start[c + 1]; ++k) {
          size_t j = items[k];
          if (j == i) continue;
          double d = Distance(positions[i], positions[j]);
          if (d >= range) continue;
          double p = PairDelivery(link_seed, static_cast<NodeId>(i),
                                  static_cast<NodeId>(j), d, range);
          if (p > 0.0) out.push_back(Link{static_cast<NodeId>(j), p});
        }
      }
    }
    std::sort(out.begin(), out.end(),
              [](const Link& a, const Link& b) { return a.to < b.to; });
  }
  return links;
}

Topology::Topology(std::vector<Point> positions, SparseLinks links)
    : positions_(std::move(positions)) {
  size_t n = positions_.size();
  SCOOP_CHECK_EQ(links.size(), n);

  // CSR audible-neighbor lists straight from the sparse rows (ascending
  // receiver, no self-links: a self-link would add a self Bernoulli draw
  // in the radio's delivery walk and break reproducibility).
  size_t audible = 0;
  for (const auto& row : links) audible += row.size();
  out_offsets_.assign(n + 1, 0);
  out_links_.reserve(audible);
  for (size_t from = 0; from < n; ++from) {
    out_offsets_[from] = static_cast<uint32_t>(out_links_.size());
    for (size_t k = 0; k < links[from].size(); ++k) {
      const Link& link = links[from][k];
      SCOOP_CHECK_NE(static_cast<size_t>(link.to), from);
      SCOOP_CHECK_LT(static_cast<size_t>(link.to), n);
      SCOOP_CHECK_GT(link.prob, 0.0);
      if (k > 0) SCOOP_CHECK_GT(link.to, links[from][k - 1].to);
      out_links_.push_back(link);
    }
  }
  out_offsets_[n] = static_cast<uint32_t>(out_links_.size());

  // Senders walk in ascending id, so counting each receiver's in-links as
  // they appear ranks them in ascending sender order.
  std::vector<uint32_t> in_degree(n, 0);
  in_ranks_.reserve(out_links_.size());
  for (const Link& link : out_links_) {
    uint32_t rank = in_degree[link.to]++;
    SCOOP_CHECK_LE(rank, std::numeric_limits<uint16_t>::max());
    in_ranks_.push_back(static_cast<uint16_t>(rank));
  }

  // Dense matrix for O(1) lookups, scattered from the CSR -- but only up
  // to the cap: at 10k nodes the 800 MB zero-fill alone would eat the
  // whole generation budget.
  if (n <= static_cast<size_t>(kDenseDeliveryMaxNodes)) {
    delivery_.assign(n * n, 0.0);
    for (size_t from = 0; from < n; ++from) {
      double* row = delivery_.data() + from * n;
      for (const Link& link : audible_from(static_cast<NodeId>(from))) {
        row[link.to] = link.prob;
      }
    }
  }

  interferers_ = BuildInterfererSets();
}

std::vector<InterfererSet> Topology::BuildInterfererSets() const {
  size_t n = positions_.size();
  // Walking senders in ascending id keeps every receiver's list sorted
  // without a per-receiver sort.
  std::vector<std::vector<NodeId>> lists(n);
  for (size_t from = 0; from < n; ++from) {
    for (const Link& link : audible_from(static_cast<NodeId>(from))) {
      if (link.prob >= kInterferenceThreshold) lists[link.to].push_back(static_cast<NodeId>(from));
    }
  }
  std::vector<InterfererSet> sets;
  sets.reserve(n);
  for (size_t to = 0; to < n; ++to) {
    sets.push_back(InterfererSet::Of(std::move(lists[to]), static_cast<int>(n)));
  }
  return sets;
}

Topology Topology::MakeRandom(const RandomTopologyOptions& options) {
  // Starting radio range, before tuning toward the neighbor fraction.
  constexpr double kRadioRange = 18.0;
  SCOOP_CHECK_GE(options.num_nodes, 2);
  Rng rng(options.seed, /*stream=*/0x70F0);
  std::vector<Point> positions(static_cast<size_t>(options.num_nodes));
  // Basestation near a corner of the area, like a sink at the edge of a
  // deployment.
  positions[0] = Point{options.area_width * 0.05, options.area_height * 0.05};
  for (int i = 1; i < options.num_nodes; ++i) {
    positions[static_cast<size_t>(i)] =
        Point{rng.UniformDouble() * options.area_width,
              rng.UniformDouble() * options.area_height};
  }
  SparseLinks links = ConnectOrWiden(positions, options.seed, /*first_offset=*/7,
                                     /*last_resort_offset=*/999, kRadioRange,
                                     options.target_neighbor_fraction);
  return Topology(std::move(positions), std::move(links));
}

Topology Topology::MakeTestbed(const TestbedTopologyOptions& options) {
  constexpr double kFloorLength = 90.0;
  constexpr double kFloorWidth = 18.0;
  constexpr double kRadioRange = 22.0;
  SCOOP_CHECK_GE(options.num_nodes, 2);
  Rng rng(options.seed, /*stream=*/0xBED);
  int n = options.num_nodes;
  std::vector<Point> positions(static_cast<size_t>(n));
  // Base near the left end of the floor (the paper's PC-attached mote).
  positions[0] = Point{1.5, kFloorWidth / 2};
  // Motes laid out roughly in a grid down the floor (offices along a
  // corridor), with placement jitter.
  int rows = std::max(2, static_cast<int>(std::floor(kFloorWidth / 4.5)));
  int cols = (n - 2 + rows) / rows;
  double dx = kFloorLength / (cols + 1);
  double dy = kFloorWidth / (rows + 1);
  for (int i = 1; i < n; ++i) {
    int k = i - 1;
    int c = k / rows;
    int r = k % rows;
    double jx = rng.Gaussian(0, dx * 0.18);
    double jy = rng.Gaussian(0, dy * 0.18);
    positions[static_cast<size_t>(i)] =
        Point{std::clamp((c + 1) * dx + jx, 0.0, kFloorLength),
              std::clamp((r + 1) * dy + jy, 0.0, kFloorWidth)};
  }
  SparseLinks links = ConnectOrWiden(positions, options.seed, /*first_offset=*/1000,
                                     /*last_resort_offset=*/2999, kRadioRange,
                                     /*target_fraction=*/0);
  return Topology(std::move(positions), std::move(links));
}

Topology Topology::MakeGrid(const GridTopologyOptions& options) {
  // Meters between lattice neighbors.
  constexpr double kSpacing = 6.0;
  // Per-node placement jitter as a fraction of kSpacing (small jitter
  // avoids degenerate equidistant link ties).
  constexpr double kJitterFraction = 0.10;
  constexpr double kRadioRange = 18.0;
  SCOOP_CHECK_GE(options.num_nodes, 2);
  Rng rng(options.seed, /*stream=*/0x6B1D);
  int n = options.num_nodes;
  int cols = static_cast<int>(std::ceil(std::sqrt(static_cast<double>(n))));
  std::vector<Point> positions(static_cast<size_t>(n));
  // Node 0 (the basestation) sits at the (0, 0) corner of the lattice;
  // sensors fill the grid row-major with a little placement jitter.
  for (int i = 0; i < n; ++i) {
    int r = i / cols;
    int c = i % cols;
    double jx = (i == 0) ? 0.0 : rng.Gaussian(0, kSpacing * kJitterFraction);
    double jy = (i == 0) ? 0.0 : rng.Gaussian(0, kSpacing * kJitterFraction);
    positions[static_cast<size_t>(i)] =
        Point{std::max(0.0, c * kSpacing + jx), std::max(0.0, r * kSpacing + jy)};
  }
  SparseLinks links = ConnectOrWiden(positions, options.seed, /*first_offset=*/3000,
                                     /*last_resort_offset=*/3999, kRadioRange,
                                     /*target_fraction=*/0);
  return Topology(std::move(positions), std::move(links));
}

Topology Topology::FromMatrix(std::vector<Point> positions,
                              std::vector<std::vector<double>> delivery) {
  SCOOP_CHECK_EQ(positions.size(), delivery.size());
  size_t n = positions.size();
  SparseLinks links(n);
  for (size_t from = 0; from < n; ++from) {
    SCOOP_CHECK_EQ(delivery[from].size(), n);
    SCOOP_CHECK_EQ(delivery[from][from], 0.0);
    for (size_t to = 0; to < n; ++to) {
      if (delivery[from][to] > 0.0) {
        links[from].push_back(Link{static_cast<NodeId>(to), delivery[from][to]});
      }
    }
  }
  return Topology(std::move(positions), std::move(links));
}

}  // namespace scoop::sim
