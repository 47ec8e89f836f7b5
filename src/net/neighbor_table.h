// Neighbor discovery and passive link-quality estimation (§5.1-5.2).
//
// Every outgoing packet carries a per-sender monotonically increasing
// sequence number; by snooping all traffic a node counts the packets it
// missed from each neighbor (gaps in the sequence) and derives an inbound
// delivery-probability estimate. The table is bounded (32 entries in the
// paper) and evicts nodes it has not heard from in a long time.
//
// Per-packet lookups also take the sender's in-link rank
// (sim::ReceiveInfo::in_link: a dense index of the senders this node can
// hear). A small direct-mapped hint array caches each rank's slot
// position, so a snoop finds its slot with one load and one id compare; a
// miss falls back to the binary search and refreshes the hint. The hint
// is only a cache: any value, right, wrong or stale, gives the same
// results.
#ifndef SCOOP_NET_NEIGHBOR_TABLE_H_
#define SCOOP_NET_NEIGHBOR_TABLE_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/sim_time.h"
#include "common/types.h"
#include "net/wire.h"

namespace scoop::net {

/// Bounded table of radio neighbors with passive inbound link estimates.
class NeighborTable {
 public:
  /// Maximum tracked neighbors (paper: 32). Slot positions are cached in
  /// bytes.
  static constexpr int kCapacity = 32;
  static_assert(kCapacity > 0 && kCapacity <= 256);
  /// Entries not heard for this long are evicted.
  static constexpr SimTime kEvictionTimeout = Seconds(240);
  /// Number of (received + inferred missed) packets per estimation window.
  static constexpr int kEstimationWindow = 8;
  static_assert(kEstimationWindow > 0);
  /// EWMA weight of the newest window when folding into the estimate.
  static constexpr double kEwmaAlpha = 0.4;
  /// Estimate assigned after the very first packet from a neighbor.
  static constexpr double kInitialQuality = 0.5;
  /// The in-link argument for callers that have none. Any value gives the
  /// same results; this one only names the case.
  static constexpr uint16_t kNoInLink = 0xFFFF;

  NeighborTable();

  /// Records that a packet from `src` with sequence number `seq` was heard
  /// at time `now` (receive or snoop); `in_link` is src's in-link rank
  /// here. Retransmissions reuse the sequence number and are ignored for
  /// loss accounting.
  void OnPacketSeen(NodeId src, uint16_t seq, SimTime now, uint16_t in_link);

  /// Records that `neighbor` (in-link rank `in_link`) reported hearing us
  /// with probability `quality_they_hear_us` (from its beacon link
  /// report): the quality of the *outbound* link self→neighbor.
  void OnReverseReport(NodeId neighbor, double quality_they_hear_us, uint16_t in_link);

  /// Estimated delivery probability of the link src→self if `src` is
  /// tracked: one lookup for callers that must tell an unknown neighbor
  /// from a zero estimate.
  std::optional<double> TrackedQuality(NodeId src) const;

  /// Estimated delivery probability of the link src→self; 0 if unknown.
  double Quality(NodeId src) const { return TrackedQuality(src).value_or(0.0); }


  /// Expected per-attempt success of a unicast self→dst including the link
  /// ACK returning on dst→self (what routing costs should be based on).
  double UnicastQuality(NodeId dst, uint16_t in_link = kNoInLink) const;

  /// True iff `src` is currently tracked.
  bool Contains(NodeId src) const { return Locate(src, kNoInLink) != entries_.size(); }

  /// The `k` best neighbors by quality, as summary-ready entries (§5.2).
  std::vector<NeighborEntry> BestNeighbors(int k) const;

  /// All tracked neighbor ids (unordered).
  std::vector<NodeId> Ids() const;

  /// True iff `fn(id)` holds for some tracked neighbor, called in ascending id
  /// order up to the first hit. Allocation-free, unlike Ids().
  template <typename Fn>
  bool AnyOf(Fn&& fn) const {
    return std::any_of(entries_.begin(), entries_.end(), [&fn](const Slot& s) { return fn(s.id); });
  }

  /// Drops entries not heard from within the eviction timeout.
  void EvictStale(SimTime now);

  /// Number of tracked neighbors.
  size_t size() const { return entries_.size(); }

 private:
  struct Entry {
    uint16_t last_seq = 0;
    int window_received = 0;
    int window_missed = 0;
    double quality = 0;
    bool has_estimate = false;
    double reverse_quality = 0;
    bool has_reverse = false;
    SimTime last_heard = 0;
  };

  /// One tracked neighbor, keyed by its node id.
  struct Slot {
    NodeId id;
    Entry entry;
  };

  /// Position of `id`'s slot, or size() if absent: the hint for
  /// `in_link` when it names `id`, else a binary search.
  size_t Locate(NodeId id, uint16_t in_link) const;

  /// First slot whose id is not below `id` (the binary search).
  std::vector<Slot>::const_iterator LowerBound(NodeId id) const;

  uint8_t& HintFor(uint16_t in_link) { return hint_[in_link % hint_.size()]; }

  /// Evicts the worst entry to make room, preferring stale + low quality.
  void EvictWorst();

  // Direct-mapped slot-position cache, indexed by in-link rank mod 32.
  // Lattices hear at most 26 senders, the 63-node random and testbed
  // presets at most 32, so no two of their neighbors share an entry; in
  // denser networks (100-node testbed: up to 49) ranks r and r + 32 do,
  // and a collision costs the binary search.
  std::array<uint8_t, 32> hint_{};
  // The table is bounded at kCapacity (32 in the paper), so a flat vector
  // sorted by id beats a hash map: inserts never allocate past the
  // reserved capacity, the binary search behind a hint miss covers a few
  // cache lines, and iteration is a canonical ascending-id order, which
  // makes eviction tie-breaks and Ids() deterministic by construction
  // rather than by bucket layout.
  std::vector<Slot> entries_;
};

}  // namespace scoop::net

#endif  // SCOOP_NET_NEIGHBOR_TABLE_H_
