// The "descendants list" of §5.1/§5.4: a bounded table mapping each known
// descendant in the routing subtree to the child branch that leads to it,
// learned passively from traffic forwarded up the tree. Used by routing
// rule 5 to send data *down* the tree and by the modified Trickle to decide
// whether re-broadcasting a query can reach any of its targets.
#ifndef SCOOP_NET_DESCENDANTS_H_
#define SCOOP_NET_DESCENDANTS_H_

#include <algorithm>
#include <optional>
#include <vector>

#include "common/sim_time.h"
#include "common/types.h"

namespace scoop::net {

/// Bounded descendant→child routing table.
class DescendantsTable {
 public:
  /// Maximum tracked descendants (paper: 32). Overflow degrades routing
  /// gracefully (§5.1): unknown destinations fall back to the basestation.
  static constexpr int kCapacity = 32;
  static_assert(kCapacity > 0);
  /// Entries not refreshed within this window are evicted.
  static constexpr SimTime kEvictionTimeout = Seconds(600);

  DescendantsTable();

  /// Records that traffic originated by `descendant` arrived via direct
  /// child `via_child` (the link-layer sender of the forwarded packet).
  void Learn(NodeId descendant, NodeId via_child, SimTime now);

  /// The child branch leading to `dst`, if known.
  std::optional<NodeId> NextHop(NodeId dst) const;

  /// True iff `dst` is a known descendant.
  bool Contains(NodeId dst) const { return Find(dst) != entries_.end(); }

  /// Drops entries not refreshed within the eviction timeout.
  void EvictStale(SimTime now);

  /// All known descendant ids (unordered).
  std::vector<NodeId> Ids() const;

  /// True iff `fn(id)` holds for some known descendant, called in ascending id
  /// order up to the first hit. Allocation-free, unlike Ids().
  template <typename Fn>
  bool AnyOf(Fn&& fn) const {
    return std::any_of(entries_.begin(), entries_.end(), [&fn](const Slot& s) { return fn(s.id); });
  }

  size_t size() const { return entries_.size(); }

 private:
  /// One known descendant and the child branch leading to it.
  struct Slot {
    NodeId id;
    NodeId via_child;
    SimTime last_update;
  };

  /// The slot for `id`, or end() if absent.
  std::vector<Slot>::const_iterator Find(NodeId id) const;

  /// Drops the entry with the smallest (last_update, id).
  void EvictOldest();

  // Bounded and consulted per forwarded packet, so it is kept like
  // NeighborTable's: a vector sorted by id and reserved at capacity, where
  // a lookup is a binary search and an insert never allocates.
  std::vector<Slot> entries_;
};

}  // namespace scoop::net

#endif  // SCOOP_NET_DESCENDANTS_H_
