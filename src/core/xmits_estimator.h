// Estimates xmits(x→y) -- the expected number of transmissions to move a
// packet from x to y (§4 P4, §5.2) -- from the link qualities reported in
// summary messages and the parent pointers carried in every packet header.
// All-pairs expected-transmission-count shortest paths via Dijkstra.
//
// Reports are appended to per-source lists. Build() folds each list (the
// first report for a receiver claims it, later measured links take the
// min, later tree edges never overwrite), packs the folded edges into a
// flat CSR adjacency and runs one Dijkstra per source into a row-major
// distance buffer. Every Build() is a full rebuild: real remaps re-ingest
// summaries in which most link qualities have moved, so repairing the
// previous distances does not pay.
#ifndef SCOOP_CORE_XMITS_ESTIMATOR_H_
#define SCOOP_CORE_XMITS_ESTIMATOR_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/types.h"

namespace scoop::core {

/// Directed expected-transmissions graph + all-pairs shortest paths. Link
/// costs follow the routing tree's rule (net::LinkEtx, net::kMinLinkQuality).
class XmitsEstimator {
 public:
  /// Cost charged for pairs with no known path (keeps the optimizer from
  /// treating unknown nodes as free).
  static constexpr double kUnknownCost = 12.0;

  explicit XmitsEstimator(int num_nodes);

  /// Clears all edges (e.g., before re-ingesting fresh statistics).
  void Clear();

  /// Records that packets sent by `from` reach `to` with probability
  /// `quality` (as reported in summaries: each node lists the inbound
  /// quality of its best neighbors).
  void AddLink(NodeId from, NodeId to, double quality);

  /// Records a routing-tree edge learned from packet headers. Tree links
  /// are known-usable, so absent better information both directions get a
  /// conservative default quality.
  void AddTreeEdge(NodeId node, NodeId parent);

  /// Computes all-pairs costs. Must be called after mutations and before
  /// Xmits() queries.
  void Build();

  /// Expected transmissions x→y along the cheapest known path.
  double Xmits(NodeId x, NodeId y) const;

  /// Round-trip cost base→o→base used by the query term of Figure 2.
  double RoundTrip(NodeId base, NodeId o) const {
    return Xmits(base, o) + Xmits(o, base);
  }

  int num_nodes() const { return num_nodes_; }

 private:
  /// One link report. After Build() folds a list, every entry is marked
  /// measured, so a committed edge keeps its slot against later tree
  /// edges and takes the min with later measured links.
  struct Report {
    NodeId to;
    double etx;
    bool tree;
  };

  /// Folds `source`'s reports in place to one measured entry per receiver,
  /// sorted by receiver.
  void FoldReports(int source);
  /// Runs one Dijkstra from `source` over the CSR into its dist_ row.
  void DijkstraRow(int source);

  int num_nodes_;

  std::vector<std::vector<Report>> reports_;  ///< Per-source, insertion order.
  // Flat CSR of the folded graph: source s's out-edges are
  // [csr_offsets_[s], csr_offsets_[s + 1]).
  std::vector<uint32_t> csr_offsets_;
  std::vector<NodeId> csr_to_;
  std::vector<double> csr_etx_;

  /// Row-major all-pairs distances, num_nodes_^2 entries once built.
  std::vector<double> dist_;
  bool built_ = false;
  std::vector<std::pair<double, NodeId>> heap_;  ///< DijkstraRow scratch.
};

}  // namespace scoop::core

#endif  // SCOOP_CORE_XMITS_ESTIMATOR_H_
