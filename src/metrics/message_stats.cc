#include "metrics/message_stats.h"

#include "common/check.h"

namespace scoop::metrics {

MessageStats::MessageStats(int num_nodes) : per_node_(static_cast<size_t>(num_nodes)) {
  SCOOP_CHECK_GT(num_nodes, 0);
}

void MessageStats::OnTransmit(NodeId src, const Packet& packet, bool retransmission) {
  TypeCounters& c = by_type_[static_cast<size_t>(packet.hdr.type)];
  ++c.sent;
  if (retransmission) ++c.retransmissions;
  c.bytes_sent += static_cast<uint64_t>(packet.WireSize());
  NodeCounters& n = per_node_[src];
  ++n.sent;
  n.workload_bytes += WorkloadBytes(packet);
}

void MessageStats::MergeFrom(const MessageStats& other) {
  SCOOP_CHECK_EQ(num_nodes(), other.num_nodes());
  for (size_t t = 0; t < by_type_.size(); ++t) {
    TypeCounters& a = by_type_[t];
    const TypeCounters& b = other.by_type_[t];
    a.sent += b.sent;
    a.retransmissions += b.retransmissions;
    a.bytes_sent += b.bytes_sent;
  }
  receptions_ += other.receptions_;
  for (size_t r = 0; r < drops_.size(); ++r) drops_[r] += other.drops_[r];
  for (size_t i = 0; i < per_node_.size(); ++i) {
    NodeCounters& a = per_node_[i];
    const NodeCounters& b = other.per_node_[i];
    a.sent += b.sent;
    a.received += b.received;
    a.workload_bytes += b.workload_bytes;
  }
}

uint64_t MessageStats::TotalSent() const {
  uint64_t total = 0;
  for (const TypeCounters& c : by_type_) total += c.sent;
  return total;
}

uint64_t MessageStats::TotalSentExclBeacons() const {
  return TotalSent() - by_type_[static_cast<size_t>(PacketType::kBeacon)].sent;
}

}  // namespace scoop::metrics
