#include "metrics/message_stats.h"

#include <sstream>

#include "common/check.h"

namespace scoop::metrics {

MessageStats::MessageStats(int num_nodes)
    : per_node_sent_(static_cast<size_t>(num_nodes), 0),
      per_node_recv_(static_cast<size_t>(num_nodes), 0),
      per_node_bytes_sent_(static_cast<size_t>(num_nodes), 0),
      per_node_bytes_recv_(static_cast<size_t>(num_nodes), 0),
      per_node_workload_bytes_(static_cast<size_t>(num_nodes), 0),
      per_node_sent_by_type_(static_cast<size_t>(num_nodes)),
      per_node_recv_by_type_(static_cast<size_t>(num_nodes)) {
  SCOOP_CHECK_GT(num_nodes, 0);
}

void MessageStats::OnTransmit(NodeId src, const Packet& packet, bool retransmission) {
  size_t type = static_cast<size_t>(packet.hdr.type);
  TypeCounters& c = by_type_[type];
  ++c.sent;
  if (retransmission) ++c.retransmissions;
  uint64_t bytes = static_cast<uint64_t>(packet.WireSize());
  c.bytes_sent += bytes;
  ++per_node_sent_[src];
  per_node_bytes_sent_[src] += bytes;
  if (packet.hdr.type != PacketType::kBeacon) per_node_workload_bytes_[src] += bytes;
  per_node_sent_by_type_[src][type] += 1;
}

void MessageStats::OnDeliver(NodeId dst, const Packet& packet, bool addressed) {
  size_t type = static_cast<size_t>(packet.hdr.type);
  uint64_t bytes = static_cast<uint64_t>(packet.WireSize());
  if (addressed) {
    ++by_type_[type].delivered;
    ++per_node_recv_[dst];
    per_node_recv_by_type_[dst][type] += 1;
    if (packet.hdr.type != PacketType::kBeacon) per_node_workload_bytes_[dst] += bytes;
  } else {
    ++by_type_[type].snooped;
  }
  per_node_bytes_recv_[dst] += bytes;
}

void MessageStats::OnDrop(NodeId src, const Packet& packet) {
  (void)src;
  ++by_type_[static_cast<size_t>(packet.hdr.type)].dropped;
}

void MessageStats::MergeFrom(const MessageStats& other) {
  SCOOP_CHECK_EQ(num_nodes(), other.num_nodes());
  for (size_t t = 0; t < by_type_.size(); ++t) {
    TypeCounters& a = by_type_[t];
    const TypeCounters& b = other.by_type_[t];
    a.sent += b.sent;
    a.retransmissions += b.retransmissions;
    a.delivered += b.delivered;
    a.snooped += b.snooped;
    a.dropped += b.dropped;
    a.bytes_sent += b.bytes_sent;
  }
  for (size_t i = 0; i < per_node_sent_.size(); ++i) {
    per_node_sent_[i] += other.per_node_sent_[i];
    per_node_recv_[i] += other.per_node_recv_[i];
    per_node_bytes_sent_[i] += other.per_node_bytes_sent_[i];
    per_node_bytes_recv_[i] += other.per_node_bytes_recv_[i];
    per_node_workload_bytes_[i] += other.per_node_workload_bytes_[i];
    for (size_t t = 0; t < per_node_sent_by_type_[i].size(); ++t) {
      per_node_sent_by_type_[i][t] += other.per_node_sent_by_type_[i][t];
      per_node_recv_by_type_[i][t] += other.per_node_recv_by_type_[i][t];
    }
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

std::string MessageStats::ToString() const {
  std::ostringstream out;
  out << "messages sent (incl. retx):\n";
  for (int t = 0; t < kNumPacketTypes; ++t) {
    const TypeCounters& c = by_type_[static_cast<size_t>(t)];
    out << "  " << PacketTypeName(static_cast<PacketType>(t)) << ": " << c.sent
        << " (retx " << c.retransmissions << ", delivered " << c.delivered << ", dropped "
        << c.dropped << ")\n";
  }
  out << "  total: " << TotalSent() << " (excl beacons: " << TotalSentExclBeacons() << ")";
  return out.str();
}

}  // namespace scoop::metrics
