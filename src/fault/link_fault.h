// Time-windowed link-quality faults: degradation intervals scale the
// delivery probability of links touching a node region, and partitions
// sever every link crossing a region boundary for the window's duration.
//
// The channel is evaluated inside the radio's existing Bernoulli draws
// (it multiplies probabilities, never adds or removes draws), so a null
// or empty channel leaves the engine's event and RNG sequence exactly as
// it was -- the property the campaign goldens and the K-equivalence suite
// pin.
#ifndef SCOOP_FAULT_LINK_FAULT_H_
#define SCOOP_FAULT_LINK_FAULT_H_

#include <vector>

#include "common/check.h"
#include "common/sim_time.h"
#include "common/types.h"

namespace scoop::fault {

/// A set of time windows scaling link delivery probabilities. Built once
/// per trial (deterministically from the scenario), then read-only and
/// thread-safe: every shard may query it concurrently.
class LinkFaultChannel {
 public:
  /// Adds a window over [start, end). `inside` marks the affected nodes
  /// (sized to the node count). A degradation window (partition = false)
  /// multiplies by `factor` every link with at least one endpoint inside.
  /// A partition window (partition = true) zeroes every link whose
  /// endpoints are on opposite sides of the region boundary; both islands
  /// stay internally connected.
  void AddWindow(SimTime start, SimTime end, double factor,
                 std::vector<bool> inside, bool partition) {
    SCOOP_CHECK_LT(start, end);
    windows_.push_back(Window{start, end, factor, std::move(inside), partition});
  }

  bool active() const { return !windows_.empty(); }

  /// Multiplicative scale for the link from -> to at time `t`. 1.0 when no
  /// window applies; 0.0 severs the link outright.
  double Scale(NodeId from, NodeId to, SimTime t) const {
    double f = 1.0;
    for (const Window& w : windows_) {
      if (t < w.start || t >= w.end) continue;
      bool from_in = w.inside[from];
      bool to_in = w.inside[to];
      if (w.partition) {
        if (from_in != to_in) return 0.0;
      } else if (from_in || to_in) {
        f *= w.factor;
      }
    }
    return f;
  }

 private:
  struct Window {
    SimTime start = 0;
    SimTime end = 0;
    double factor = 1.0;
    std::vector<bool> inside;
    bool partition = false;
  };

  std::vector<Window> windows_;
};

}  // namespace scoop::fault

#endif  // SCOOP_FAULT_LINK_FAULT_H_
