// Spanning-tree routing in the style of Woo et al. (§2.2, §5.1): periodic
// beacons advertise each node's path cost to the basestation in expected
// transmissions (ETX); nodes pick the parent minimizing advertised cost
// plus the local link's ETX, with hysteresis to avoid flapping.
//
// This class is a pure state machine: the hosting agent feeds it beacons
// and link-quality estimates and asks it for the current parent and for
// beacon payloads to broadcast.
#ifndef SCOOP_NET_ROUTING_TREE_H_
#define SCOOP_NET_ROUTING_TREE_H_

#include <algorithm>
#include <vector>

#include "common/sim_time.h"
#include "common/types.h"
#include "net/wire.h"

namespace scoop::net {

/// The one link-cost rule, shared by the tree's parent choice and the
/// base's xmits() estimate (core/xmits_estimator.h): links whose estimated
/// delivery probability is below kMinLinkQuality are unusable, and a
/// usable link costs 1/quality expected transmissions, capped at
/// kMaxLinkEtx (1/q explodes as q -> 0).
inline constexpr double kMinLinkQuality = 0.10;
inline constexpr double kMaxLinkEtx = 8.0;

/// Expected transmissions over a link of delivery probability `quality`.
inline double LinkEtx(double quality) { return std::min(1.0 / quality, kMaxLinkEtx); }

/// Per-node routing-tree state.
class RoutingTree {
 public:
  /// `is_base` nodes are the root: depth 0, path cost 0, no parent.
  RoutingTree(NodeId self, bool is_base);

  /// Processes a beacon from `from`, whose inbound link quality we estimate
  /// as `link_quality_in` (from the neighbor table).
  void OnBeacon(NodeId from, const BeaconPayload& beacon, double link_quality_in,
                SimTime now);

  /// Drops the parent (and stale candidates) if not refreshed recently.
  void MaybeTimeoutParent(SimTime now);

  /// Current parent, or kInvalidNodeId if none (base never has a parent).
  NodeId parent() const { return parent_; }

  /// This node's path cost to the base in expected transmissions.
  double path_etx() const { return path_etx_; }

  /// Hop count to the base (0 at the base).
  uint8_t depth() const { return depth_; }

  /// Beacon payload advertising our current route.
  BeaconPayload MakeBeacon() const;

  /// Fault injection (base failover): toggles root status at runtime. Both
  /// directions clear the parent, path cost, and remembered candidates, so
  /// the node re-learns its route from subsequent beacons.
  void SetRoot(bool is_base);


 private:
  struct Candidate {
    double advertised_etx = 0;  // Path cost the candidate advertised.
    double link_etx = 0;        // ETX of the link candidate→self.
    uint8_t depth = 0;
    SimTime last_heard = 0;
  };

  /// One remembered candidate, keyed by the advertising neighbor.
  struct Slot {
    NodeId id;
    Candidate candidate;
  };

  /// Total cost of routing through `c`.
  static double CostThrough(const Candidate& c) { return c.advertised_etx + c.link_etx; }

  /// Iterator to the slot for `id`, or end() if absent.
  std::vector<Slot>::iterator Find(NodeId id);

  /// Re-evaluates the best candidate and installs it as parent if warranted.
  void ReselectParent(SimTime now);

  NodeId self_;
  bool is_base_;
  NodeId parent_ = kInvalidNodeId;
  double path_etx_ = 0;
  uint8_t depth_ = 0;
  // Candidates are radio neighbors: a couple dozen entries at most, scanned
  // in full on every beacon by ReselectParent. A flat vector sorted by id
  // makes that scan contiguous (the map version spent more time walking
  // hash buckets than comparing costs) and gives a canonical ascending-id
  // iteration order, so cost ties resolve identically on every platform.
  std::vector<Slot> candidates_;
};

}  // namespace scoop::net

#endif  // SCOOP_NET_ROUTING_TREE_H_
