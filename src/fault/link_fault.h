// Time-windowed link faults: a partition window severs every link crossing
// a region boundary for the window's duration.
//
// The channel is evaluated at the radio's existing per-link loss and ACK
// verdicts (a severed link fails its verdict; no draw is added or
// removed), so a null or empty channel leaves the engine's event and RNG
// sequence exactly as it was -- the property the campaign goldens and the
// K-equivalence suite pin.
#ifndef SCOOP_FAULT_LINK_FAULT_H_
#define SCOOP_FAULT_LINK_FAULT_H_

#include <vector>

#include "common/check.h"
#include "common/sim_time.h"
#include "common/types.h"

namespace scoop::fault {

/// A set of partition windows. Built once per trial (deterministically
/// from the scenario), then read-only and thread-safe: every shard may
/// query it concurrently.
class LinkFaultChannel {
 public:
  /// Adds a window over [start, end). `inside` marks the nodes of the
  /// region (sized to the node count). Every link whose endpoints are on
  /// opposite sides of the region boundary is severed; both islands stay
  /// internally connected.
  void AddWindow(SimTime start, SimTime end, std::vector<bool> inside) {
    SCOOP_CHECK_LT(start, end);
    windows_.push_back(Window{start, end, std::move(inside)});
  }

  bool active() const { return !windows_.empty(); }

  /// True iff a window open at time `t` severs the link from -> to.
  bool Severed(NodeId from, NodeId to, SimTime t) const {
    for (const Window& w : windows_) {
      if (t >= w.start && t < w.end && w.inside[from] != w.inside[to]) return true;
    }
    return false;
  }

 private:
  struct Window {
    SimTime start = 0;
    SimTime end = 0;
    std::vector<bool> inside;
  };

  std::vector<Window> windows_;
};

}  // namespace scoop::fault

#endif  // SCOOP_FAULT_LINK_FAULT_H_
