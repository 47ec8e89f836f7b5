// Test-only graph queries over a Topology's audible links: hop distances
// and two-way connectivity to the basestation, from one BFS.
#ifndef SCOOP_TESTS_SIM_TOPOLOGY_TEST_UTIL_H_
#define SCOOP_TESTS_SIM_TOPOLOGY_TEST_UTIL_H_

#include <queue>
#include <vector>

#include "sim/topology.h"

namespace scoop::sim {

/// Hop distance from `from` to every node over audible links with
/// delivery probability >= `threshold`; -1 where unreachable.
inline std::vector<int> HopsFrom(const Topology& t, NodeId from, double threshold) {
  std::vector<int> dist(static_cast<size_t>(t.num_nodes()), -1);
  std::queue<NodeId> frontier;
  dist[from] = 0;
  frontier.push(from);
  while (!frontier.empty()) {
    NodeId u = frontier.front();
    frontier.pop();
    for (const Topology::Link& link : t.audible_from(u)) {
      if (link.prob < threshold || dist[link.to] >= 0) continue;
      dist[link.to] = dist[u] + 1;
      frontier.push(link.to);
    }
  }
  return dist;
}

/// True iff every node is reachable from the base (node 0) and can reach
/// it over links with delivery probability >= `threshold`.
inline bool IsConnected(const Topology& t, double threshold) {
  for (int hops : HopsFrom(t, 0, threshold)) {
    if (hops < 0) return false;
  }
  for (NodeId v = 1; v < t.num_nodes(); ++v) {
    if (HopsFrom(t, v, threshold)[0] < 0) return false;
  }
  return true;
}

}  // namespace scoop::sim

#endif  // SCOOP_TESTS_SIM_TOPOLOGY_TEST_UTIL_H_
