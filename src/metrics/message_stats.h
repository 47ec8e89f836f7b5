// The link-layer traffic ledger. The paper's cost metric is the total
// number of link-layer transmissions, broken down by packet type (Figure
// 3). Each shard's radio (sim/shard.h) owns one ledger and updates it
// inline where the events happen: at transmission start, in the reception
// verdict pass and at the MAC's two drop sites. The engine merges the K
// ledgers between runs; the harness reads the merged one for the CSV
// totals, the root-skew analysis (§6) and the lifetime estimate, and the
// metrics registry samples the same counters as gauges. One ledger feeds
// both, so the JSONL time series and the CSV cannot disagree.
#ifndef SCOOP_METRICS_MESSAGE_STATS_H_
#define SCOOP_METRICS_MESSAGE_STATS_H_

#include <array>
#include <cstdint>
#include <vector>

#include "common/types.h"
#include "net/wire.h"

namespace scoop::metrics {

/// Why the MAC abandoned a frame without delivering it.
enum class DropReason : uint8_t {
  kChannelBusy,  ///< Exceeded max channel-acquisition attempts.
  kNoAck,        ///< Unicast exhausted all retransmissions.
};

/// Counters for one packet type.
struct TypeCounters {
  uint64_t sent = 0;  ///< Transmissions, including retransmissions.
  uint64_t retransmissions = 0;
  uint64_t bytes_sent = 0;  ///< Wire bytes transmitted (incl. retx).
};

/// Whole-network (or one shard's) link-layer traffic for one run.
class MessageStats {
 public:
  explicit MessageStats(int num_nodes);

  /// Wire bytes `packet` costs its sender and addressed receivers in the
  /// workload energy: its wire size, 0 for routing beacons.
  static uint64_t WorkloadBytes(const Packet& packet) {
    return packet.hdr.type == PacketType::kBeacon ? 0
                                                  : static_cast<uint64_t>(packet.WireSize());
  }

  /// One transmission start by `src` (the paper's cost unit).
  void OnTransmit(NodeId src, const Packet& packet, bool retransmission);

  /// One node latching a frame; `addressed` is false for an overheard
  /// unicast. Duplicates count: this is the channel's view, before the
  /// link-layer duplicate filter. `workload_bytes` is the frame's
  /// WorkloadBytes(), computed once per frame by the caller.
  void OnReceive(NodeId dst, bool addressed, uint64_t workload_bytes) {
    ++receptions_;
    if (!addressed) return;
    NodeCounters& n = per_node_[dst];
    ++n.received;
    n.workload_bytes += workload_bytes;
  }

  /// A frame abandoned by the MAC.
  void OnDrop(DropReason reason) { ++drops_[static_cast<size_t>(reason)]; }

  const TypeCounters& ByType(PacketType type) const {
    return by_type_[static_cast<size_t>(type)];
  }

  /// Total transmissions across all packet types.
  uint64_t TotalSent() const;

  /// Total transmissions excluding routing beacons. Figure 3 reports only
  /// data/summary/mapping/query/reply traffic; the tree-maintenance
  /// substrate is identical across policies.
  uint64_t TotalSentExclBeacons() const;

  /// Every frame latched by a live receiver, addressed or overheard.
  uint64_t receptions() const { return receptions_; }

  uint64_t drops(DropReason reason) const { return drops_[static_cast<size_t>(reason)]; }

  /// Frames the MAC abandoned, for either reason.
  uint64_t TotalDrops() const { return drops_[0] + drops_[1]; }

  /// Transmissions by node `id`.
  uint64_t SentBy(NodeId id) const { return per_node_[id].sent; }

  /// Receptions addressed to node `id`.
  uint64_t ReceivedBy(NodeId id) const { return per_node_[id].received; }

  /// Workload bytes handled by node `id`: transmissions plus *addressed*
  /// receptions, excluding routing beacons. This isolates the energy the
  /// storage policy itself causes (the §6 lifetime comparison), as opposed
  /// to the always-on listening cost common to every policy.
  uint64_t WorkloadBytesBy(NodeId id) const { return per_node_[id].workload_bytes; }

  int num_nodes() const { return static_cast<int>(per_node_.size()); }

  /// Accumulates another ledger's counters into this one (elementwise
  /// sums; both must cover the same node count).
  void MergeFrom(const MessageStats& other);

 private:
  struct NodeCounters {
    uint64_t sent = 0;
    uint64_t received = 0;
    uint64_t workload_bytes = 0;
  };

  std::array<TypeCounters, kNumPacketTypes> by_type_{};
  uint64_t receptions_ = 0;
  std::array<uint64_t, 2> drops_{};
  std::vector<NodeCounters> per_node_;
};

}  // namespace scoop::metrics

#endif  // SCOOP_METRICS_MESSAGE_STATS_H_
