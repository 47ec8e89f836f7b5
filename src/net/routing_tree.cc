#include "net/routing_tree.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace scoop::net {

namespace {

/// A parent not heard for this long is abandoned.
constexpr SimTime kParentTimeout = Seconds(90);
/// Switch parents only when the challenger's cost is below
/// kHysteresis * current cost (guards against flapping).
constexpr double kHysteresis = 0.85;
/// Depth sanity cap: beacons advertising deeper paths are ignored.
constexpr int kMaxDepth = 64;

}  // namespace

RoutingTree::RoutingTree(NodeId self, bool is_base) : self_(self), is_base_(is_base) {
  if (is_base_) {
    path_etx_ = 0;
    depth_ = 0;
  } else {
    path_etx_ = std::numeric_limits<double>::infinity();
    depth_ = 255;
  }
}

std::vector<RoutingTree::Slot>::iterator RoutingTree::Find(NodeId id) {
  auto it = std::lower_bound(
      candidates_.begin(), candidates_.end(), id,
      [](const Slot& slot, NodeId key) { return slot.id < key; });
  if (it != candidates_.end() && it->id == id) return it;
  return candidates_.end();
}

void RoutingTree::OnBeacon(NodeId from, const BeaconPayload& beacon, double link_quality_in,
                           SimTime now) {
  if (is_base_) return;  // The root never selects a parent.
  if (from == self_) return;
  // Loop guard: never consider a node that routes through us.
  if (beacon.parent == self_) {
    auto it = Find(from);
    if (it != candidates_.end()) candidates_.erase(it);
    if (parent_ == from) {
      parent_ = kInvalidNodeId;
      ReselectParent(now);
    }
    return;
  }
  if (beacon.depth >= kMaxDepth) return;

  double quality = std::max(link_quality_in, 0.0);
  if (quality < kMinLinkQuality) {
    // Link too weak to route over; forget the candidate.
    auto it = Find(from);
    if (it != candidates_.end()) candidates_.erase(it);
    if (parent_ == from) {
      parent_ = kInvalidNodeId;
      ReselectParent(now);
    }
    return;
  }

  Candidate c;
  c.advertised_etx = static_cast<double>(beacon.path_etx_x16) / 16.0;
  c.link_etx = LinkEtx(quality);
  c.depth = beacon.depth;
  c.last_heard = now;
  auto it = std::lower_bound(
      candidates_.begin(), candidates_.end(), from,
      [](const Slot& slot, NodeId key) { return slot.id < key; });
  if (it != candidates_.end() && it->id == from) {
    it->candidate = c;
  } else {
    candidates_.insert(it, Slot{from, c});
  }
  ReselectParent(now);
}

void RoutingTree::MaybeTimeoutParent(SimTime now) {
  if (is_base_) return;
  auto keep = candidates_.begin();
  for (auto it = candidates_.begin(); it != candidates_.end(); ++it) {
    if (now - it->candidate.last_heard > kParentTimeout) {
      if (it->id == parent_) parent_ = kInvalidNodeId;
    } else {
      if (keep != it) *keep = *it;
      ++keep;
    }
  }
  candidates_.erase(keep, candidates_.end());
  ReselectParent(now);
}

void RoutingTree::ReselectParent(SimTime now) {
  (void)now;
  if (is_base_) return;

  auto best = candidates_.end();
  double best_cost = std::numeric_limits<double>::infinity();
  for (auto it = candidates_.begin(); it != candidates_.end(); ++it) {
    double cost = CostThrough(it->candidate);
    // Ascending-id iteration: strict < keeps the lowest id on cost ties,
    // the same deterministic tie-break the unordered scan spelled out.
    if (cost < best_cost) {
      best_cost = cost;
      best = it;
    }
  }

  if (best == candidates_.end()) {
    parent_ = kInvalidNodeId;
    path_etx_ = std::numeric_limits<double>::infinity();
    depth_ = 255;
    return;
  }

  auto current = Find(parent_);
  if (current != candidates_.end()) {
    double current_cost = CostThrough(current->candidate);
    // Keep the incumbent unless the challenger is clearly better.
    if (best->id != parent_ && best_cost >= kHysteresis * current_cost) {
      best = current;
      best_cost = current_cost;
    }
  }

  parent_ = best->id;
  path_etx_ = best_cost;
  depth_ = static_cast<uint8_t>(std::min<int>(best->candidate.depth + 1, 255));
}

void RoutingTree::SetRoot(bool is_base) {
  is_base_ = is_base;
  parent_ = kInvalidNodeId;
  candidates_.clear();
  if (is_base_) {
    path_etx_ = 0;
    depth_ = 0;
  } else {
    path_etx_ = std::numeric_limits<double>::infinity();
    depth_ = 255;
  }
}

BeaconPayload RoutingTree::MakeBeacon() const {
  BeaconPayload b;
  b.parent = parent_;
  b.depth = depth_;
  double etx = std::isinf(path_etx_) ? 4095.0 : path_etx_;
  b.path_etx_x16 = static_cast<uint16_t>(std::min(etx * 16.0, 65535.0));
  return b;
}

}  // namespace scoop::net
