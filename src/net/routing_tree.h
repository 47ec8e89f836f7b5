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

#include <vector>

#include "common/sim_time.h"
#include "common/types.h"
#include "net/wire.h"

namespace scoop::net {

/// Tunables for RoutingTree.
struct RoutingTreeOptions {
  /// Beacon broadcast period (plus jitter applied by the agent).
  SimTime beacon_interval = Seconds(10);
  /// A parent not heard for this long is abandoned.
  SimTime parent_timeout = Seconds(90);
  /// Switch parents only when the challenger's cost is below
  /// `hysteresis * current cost` (guards against flapping).
  double hysteresis = 0.85;
  /// Links with estimated quality below this are unusable for routing.
  double min_usable_quality = 0.10;
  /// Per-link ETX is clamped to this many expected transmissions.
  double max_link_etx = 8.0;
  /// Depth sanity cap: beacons advertising deeper paths are ignored.
  int max_depth = 64;
};

/// Per-node routing-tree state.
class RoutingTree {
 public:
  /// `is_base` nodes are the root: depth 0, path cost 0, no parent.
  RoutingTree(NodeId self, bool is_base, const RoutingTreeOptions& options = {});

  /// Processes a beacon from `from`, whose inbound link quality we estimate
  /// as `link_quality_in` (from the neighbor table).
  void OnBeacon(NodeId from, const BeaconPayload& beacon, double link_quality_in,
                SimTime now);

  /// Drops the parent (and stale candidates) if not refreshed recently.
  void MaybeTimeoutParent(SimTime now);

  /// Current parent, or kInvalidNodeId if none (base never has a parent).
  NodeId parent() const { return parent_; }

  /// True iff this node can route toward the base (is base, or has parent).
  bool HasRoute() const { return is_base_ || parent_ != kInvalidNodeId; }

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
  RoutingTreeOptions options_;
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
