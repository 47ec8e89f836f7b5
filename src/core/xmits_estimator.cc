#include "core/xmits_estimator.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>

#include "common/check.h"
#include "net/routing_tree.h"

namespace scoop::core {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
/// Delivery quality assumed for both directions of a routing-tree edge.
constexpr double kTreeEdgeQuality = 0.5;
}  // namespace

XmitsEstimator::XmitsEstimator(int num_nodes)
    : num_nodes_(num_nodes), reports_(static_cast<size_t>(num_nodes)) {
  SCOOP_CHECK_GT(num_nodes, 0);
}

void XmitsEstimator::Clear() {
  for (auto& list : reports_) list.clear();
  built_ = false;
}

void XmitsEstimator::AddLink(NodeId from, NodeId to, double quality) {
  SCOOP_CHECK_LT(static_cast<int>(from), num_nodes_);
  SCOOP_CHECK_LT(static_cast<int>(to), num_nodes_);
  if (from == to) return;
  if (quality < net::kMinLinkQuality) return;
  double etx = net::LinkEtx(quality);
  reports_[from].push_back(Report{to, etx, /*tree=*/false});
  built_ = false;
}

void XmitsEstimator::AddTreeEdge(NodeId node, NodeId parent) {
  if (node == parent) return;
  if (static_cast<int>(node) >= num_nodes_ || static_cast<int>(parent) >= num_nodes_) return;
  double etx = net::LinkEtx(kTreeEdgeQuality);
  reports_[node].push_back(Report{parent, etx, /*tree=*/true});
  reports_[parent].push_back(Report{node, etx, /*tree=*/true});
  built_ = false;
}

void XmitsEstimator::FoldReports(int source) {
  // A stable sort by receiver keeps insertion order within each receiver,
  // so the first report in it claims the slot.
  std::vector<Report>& list = reports_[static_cast<size_t>(source)];
  std::stable_sort(list.begin(), list.end(),
                   [](const Report& a, const Report& b) { return a.to < b.to; });
  size_t kept = 0;
  for (const Report& r : list) {
    if (kept > 0 && list[kept - 1].to == r.to) {
      if (!r.tree) list[kept - 1].etx = std::min(list[kept - 1].etx, r.etx);
    } else {
      list[kept++] = Report{r.to, r.etx, /*tree=*/false};
    }
  }
  list.resize(kept);
}

void XmitsEstimator::DijkstraRow(int source) {
  size_t n = static_cast<size_t>(num_nodes_);
  double* dist = dist_.data() + static_cast<size_t>(source) * n;
  std::fill(dist, dist + n, kInf);
  auto later = std::greater<std::pair<double, NodeId>>();
  heap_.clear();
  dist[source] = 0;
  heap_.emplace_back(0.0, static_cast<NodeId>(source));
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), later);
    auto [d, u] = heap_.back();
    heap_.pop_back();
    if (d > dist[u]) continue;
    for (uint32_t k = csr_offsets_[u]; k < csr_offsets_[u + 1]; ++k) {
      NodeId v = csr_to_[k];
      double nd = d + csr_etx_[k];
      if (nd < dist[v]) {
        dist[v] = nd;
        heap_.emplace_back(nd, v);
        std::push_heap(heap_.begin(), heap_.end(), later);
      }
    }
  }
}

void XmitsEstimator::Build() {
  size_t n = static_cast<size_t>(num_nodes_);
  csr_offsets_.assign(n + 1, 0);
  csr_to_.clear();
  csr_etx_.clear();
  for (size_t s = 0; s < n; ++s) {
    FoldReports(static_cast<int>(s));
    for (const Report& r : reports_[s]) {
      csr_to_.push_back(r.to);
      csr_etx_.push_back(r.etx);
    }
    csr_offsets_[s + 1] = static_cast<uint32_t>(csr_to_.size());
  }
  dist_.resize(n * n);
  for (size_t s = 0; s < n; ++s) DijkstraRow(static_cast<int>(s));
  built_ = true;
}

double XmitsEstimator::Xmits(NodeId x, NodeId y) const {
  SCOOP_CHECK(built_);
  SCOOP_CHECK_LT(static_cast<int>(x), num_nodes_);
  SCOOP_CHECK_LT(static_cast<int>(y), num_nodes_);
  if (x == y) return 0.0;
  double d = dist_[static_cast<size_t>(x) * static_cast<size_t>(num_nodes_) + y];
  return std::isinf(d) ? kUnknownCost : d;
}

}  // namespace scoop::core
