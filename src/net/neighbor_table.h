// Neighbor discovery and passive link-quality estimation (§5.1-5.2).
//
// Every outgoing packet carries a per-sender monotonically increasing
// sequence number; by snooping all traffic a node counts the packets it
// missed from each neighbor (gaps in the sequence) and derives an inbound
// delivery-probability estimate. The table is bounded (32 entries in the
// paper) and evicts nodes it has not heard from in a long time.
#ifndef SCOOP_NET_NEIGHBOR_TABLE_H_
#define SCOOP_NET_NEIGHBOR_TABLE_H_

#include <vector>

#include "common/sim_time.h"
#include "common/types.h"
#include "net/wire.h"

namespace scoop::net {

/// Tunables for NeighborTable.
struct NeighborTableOptions {
  /// Maximum tracked neighbors (paper: 32).
  int capacity = 32;
  /// Entries not heard for this long are evicted.
  SimTime eviction_timeout = Seconds(240);
  /// Number of (received + inferred missed) packets per estimation window.
  int estimation_window = 8;
  /// EWMA weight of the newest window when folding into the estimate.
  double ewma_alpha = 0.4;
  /// Estimate assigned after the very first packet from a neighbor.
  double initial_quality = 0.5;
};

/// Bounded table of radio neighbors with passive inbound link estimates.
class NeighborTable {
 public:
  explicit NeighborTable(const NeighborTableOptions& options = {});

  /// Records that a packet from `src` with sequence number `seq` was heard
  /// at time `now` (receive or snoop). Retransmissions reuse the sequence
  /// number and are ignored for loss accounting.
  void OnPacketSeen(NodeId src, uint16_t seq, SimTime now);

  /// Records that `neighbor` reported hearing us with probability
  /// `quality_they_hear_us` (from its beacon link report): the quality of
  /// the *outbound* link self→neighbor.
  void OnReverseReport(NodeId neighbor, double quality_they_hear_us);

  /// Estimated delivery probability of the link src→self; 0 if unknown.
  double Quality(NodeId src) const;

  /// Estimated delivery probability of the link self→dst: the neighbor's
  /// reverse report when available, else the inbound estimate as a proxy.
  double OutboundQuality(NodeId dst) const;

  /// Expected per-attempt success of a unicast self→dst including the link
  /// ACK returning on dst→self (what routing costs should be based on).
  double UnicastQuality(NodeId dst) const;

  /// True iff `src` is currently tracked.
  bool Contains(NodeId src) const { return Find(src) != entries_.end(); }

  /// The `k` best neighbors by quality, as summary-ready entries (§5.2).
  std::vector<NeighborEntry> BestNeighbors(int k) const;

  /// All tracked neighbor ids (unordered).
  std::vector<NodeId> Ids() const;

  /// Drops entries not heard from within the eviction timeout.
  void EvictStale(SimTime now);

  /// Number of tracked neighbors.
  size_t size() const { return entries_.size(); }

  /// Start of the slot storage OnPacketSeen searches. Reserved at
  /// construction, so it stays put for the table's lifetime.
  const void* storage() const { return entries_.data(); }

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

  /// Iterator to the slot for `id`, or end() if absent.
  std::vector<Slot>::iterator Find(NodeId id);
  std::vector<Slot>::const_iterator Find(NodeId id) const;

  /// Evicts the worst entry to make room, preferring stale + low quality.
  void EvictWorst();

  NeighborTableOptions options_;
  // The table is bounded at `capacity` (32 in the paper) and looked up on
  // every packet a node hears, so a flat vector sorted by id beats a hash
  // map: the find is a binary search over one or two cache lines, inserts
  // never allocate past the reserved capacity, and iteration is a
  // canonical ascending-id order, which makes eviction tie-breaks and
  // Ids() deterministic by construction rather than by bucket layout.
  std::vector<Slot> entries_;
};

}  // namespace scoop::net

#endif  // SCOOP_NET_NEIGHBOR_TABLE_H_
