// Network topologies: node placement plus a directed per-pair delivery
// probability model. Generators reproduce the radio regime the paper
// reports for its 62-node testbed and TOSSIM runs (§6): each node hears
// ~20% of the network, audible pairs lose 25-90% of packets, and links are
// slightly asymmetric.
//
// The regime is sparse, so link generation never walks all N^2 pairs:
// positions are bucketed into a uniform grid hash with range-sized cells
// and each node tests only its 9-cell neighborhood, making one
// range-tuning attempt O(N * degree). The lognormal shadowing draw for a
// directed pair is keyed on (seed, from, to) -- not on scan order -- so
// the spatial walk produces bit-identical links to a dense all-pairs scan
// (pinned by the ComputeDelivery equivalence test).
//
// Every topology precomputes the neighborhood indexes the radio hot path
// runs on: CSR-style audible-neighbor lists (per sender, the links with
// p > 0 in ascending receiver order) and per-receiver interferer sets (the
// senders loud enough to trigger carrier sense or corrupt a reception --
// a sorted sparse list below the audible-density threshold, a bitmap
// above it). A flat row-major delivery matrix backs O(1) delivery_prob()
// lookups up to kDenseDeliveryMaxNodes; past that (10k-node benchmarks)
// the matrix would dominate wall time and memory, so lookups fall back to
// a binary search of the sender's CSR row. Every link also carries its
// rank among the receiver's in-links, so receive-side per-link state is
// found by index rather than by searching for the sender.
#ifndef SCOOP_SIM_TOPOLOGY_H_
#define SCOOP_SIM_TOPOLOGY_H_

#include <algorithm>
#include <span>
#include <vector>

#include "common/node_bitmap.h"
#include "common/rng.h"
#include "common/types.h"

namespace scoop::sim {

/// Planar position of a node, in meters.
struct Point {
  double x = 0;
  double y = 0;
};

/// Options for the random square-area generator. The radio model and each
/// preset's radio range and geometry are constants in topology.cc.
struct RandomTopologyOptions {
  int num_nodes = 63;  ///< Including the basestation (node 0).
  double area_width = 55.0;
  double area_height = 55.0;
  /// If >0, the radio range is auto-tuned so the mean node hears
  /// approximately this fraction of the network (paper: ~0.2).
  double target_neighbor_fraction = 0.20;
  uint64_t seed = 1;
};

/// Options for the dense-grid preset: nodes on a regular 6 m square
/// lattice with the basestation at a corner (a machine-room or
/// agricultural deployment; the densest regime Scoop's neighbor shortcut
/// can exploit).
struct GridTopologyOptions {
  int num_nodes = 121;  ///< Including the basestation; laid out row-major.
  uint64_t seed = 1;
};

/// Options for the "testbed" preset: one elongated 90 x 18 m office floor
/// with the basestation near one end (the paper's 62-node indoor
/// deployment).
struct TestbedTopologyOptions {
  int num_nodes = 63;  ///< 62 motes + basestation.
  uint64_t seed = 1;
};

/// Immutable topology: positions, directed delivery probabilities, and the
/// precomputed neighborhood indexes the radio hot path runs on.
///
/// The generators are size-agnostic up to the 16-bit NodeId space
/// (kMaxSupportedNodes) -- radio-level benchmarks simulate networks of
/// 10000+ nodes, and since the query wire format moved to the variadic
/// NodeSet codec the agent layers scale with them.
class Topology {
 public:
  /// One audible directed link in a sender's CSR neighbor list.
  struct Link {
    NodeId to = 0;
    double prob = 0.0;

    friend bool operator==(const Link&, const Link&) = default;
  };

  /// Sparse link sets as produced by ComputeDelivery: links[from] holds
  /// `from`'s audible out-links (prob > 0) in ascending receiver order.
  using SparseLinks = std::vector<std::vector<Link>>;

  /// Senders whose delivery probability to a receiver is at least this can
  /// interfere there (carrier sense and collisions).
  static constexpr double kInterferenceThreshold = 0.05;

  /// The flat row-major delivery matrix is materialized only up to this
  /// many nodes (33 MB at the cap); larger topologies answer
  /// delivery_prob() from the CSR rows.
  static constexpr int kDenseDeliveryMaxNodes = 2048;

  /// Generates nodes uniformly in a rectangle. Guarantees the audible-link
  /// graph is connected (re-rolls shadowing with growing range if needed).
  static Topology MakeRandom(const RandomTopologyOptions& options);

  /// Generates the office-floor testbed preset.
  static Topology MakeTestbed(const TestbedTopologyOptions& options);

  /// Generates the dense square-lattice preset.
  static Topology MakeGrid(const GridTopologyOptions& options);

  /// Builds a topology directly from a delivery matrix (tests).
  static Topology FromMatrix(std::vector<Point> positions,
                             std::vector<std::vector<double>> delivery);

  /// Computes the audible link set for `positions` at radio range `range`:
  /// grid-hash bucketed, O(N * degree). The shadowing draw of a directed
  /// pair is keyed on (link_seed, from, to), so results are independent of
  /// enumeration order. Public so benches and the equivalence test can
  /// target it directly.
  static SparseLinks ComputeDelivery(const std::vector<Point>& positions, double range,
                                     uint64_t link_seed);

  /// Number of nodes, including the basestation.
  int num_nodes() const { return static_cast<int>(positions_.size()); }

  /// Delivery probability of a packet sent by `from` arriving at `to`.
  /// O(1) from the dense matrix up to kDenseDeliveryMaxNodes, else a
  /// binary search of `from`'s CSR row.
  double delivery_prob(NodeId from, NodeId to) const {
    if (!delivery_.empty()) {
      return delivery_[static_cast<size_t>(from) * positions_.size() + to];
    }
    std::span<const Link> row = audible_from(from);
    auto it = std::lower_bound(row.begin(), row.end(), to,
                               [](const Link& l, NodeId t) { return l.to < t; });
    return (it != row.end() && it->to == to) ? it->prob : 0.0;
  }

  /// The audible out-links of `from` (delivery probability > 0), in
  /// ascending receiver id -- the order the radio's delivery walk draws
  /// its per-link Bernoullis in.
  std::span<const Link> audible_from(NodeId from) const {
    return {out_links_.data() + out_offsets_[from],
            out_links_.data() + out_offsets_[static_cast<size_t>(from) + 1]};
  }

  /// Global CSR index of `from`'s first out-link: the link at position k
  /// of audible_from(from) is link number link_base(from) + k. Link
  /// numbers index per-link state (the engine's duplicate filter).
  uint32_t link_base(NodeId from) const { return out_offsets_[from]; }

  /// Total number of audible directed links (the CSR length).
  size_t num_links() const { return out_links_.size(); }

  /// Rank of link `link`'s sender among its receiver's audible in-links,
  /// in ascending sender order: 0 for the lowest-id sender the receiver
  /// can hear. A dense per-receiver index of who can be heard.
  uint16_t in_rank(uint32_t link) const { return in_ranks_[link]; }

  /// Senders whose delivery probability to `to` clears
  /// kInterferenceThreshold: the only nodes whose transmissions `to` can
  /// carrier-sense or be corrupted by. Sparse-list form below the audible
  /// density threshold, bitmap form above it (InterfererSet picks).
  const InterfererSet& interferers(NodeId to) const { return interferers_[to]; }

  /// All precomputed interferer sets, indexed by receiver.
  const std::vector<InterfererSet>& interferer_sets() const { return interferers_; }

  /// Position of `id` in meters.
  const Point& position(NodeId id) const { return positions_[id]; }

  /// All node positions.
  const std::vector<Point>& positions() const { return positions_; }

 private:
  Topology(std::vector<Point> positions, SparseLinks links);

  /// Per-receiver interferer sets at kInterferenceThreshold, from the CSR.
  std::vector<InterfererSet> BuildInterfererSets() const;

  std::vector<Point> positions_;
  /// Flat row-major delivery matrix, num_nodes^2 entries; empty above
  /// kDenseDeliveryMaxNodes (delivery_prob then searches the CSR).
  std::vector<double> delivery_;
  /// CSR audible-neighbor index: node i's out-links are
  /// out_links_[out_offsets_[i] .. out_offsets_[i+1]).
  std::vector<uint32_t> out_offsets_;
  std::vector<Link> out_links_;
  /// Parallel to out_links_: each link's in_rank(). Kept out of Link so
  /// the walk's 16-byte {to, prob} stride stays as it is.
  std::vector<uint16_t> in_ranks_;
  /// Per-receiver interferer sets at kInterferenceThreshold.
  std::vector<InterfererSet> interferers_;
};

}  // namespace scoop::sim

#endif  // SCOOP_SIM_TOPOLOGY_H_
