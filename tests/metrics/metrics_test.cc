#include <cmath>

#include <gtest/gtest.h>

#include "metrics/energy_model.h"
#include "metrics/message_stats.h"
#include "metrics/telemetry.h"

namespace scoop::metrics {
namespace {

Packet DataPacket(NodeId origin) {
  DataPayload d;
  d.producer = origin;
  d.readings.push_back(Reading{5, Seconds(1)});
  return MakePacket(origin, 0, d);
}

TEST(MessageStatsTest, CountsByTypeAndNode) {
  MessageStats stats(4);
  Packet data = DataPacket(1);
  uint64_t data_bytes = MessageStats::WorkloadBytes(data);
  stats.OnTransmit(1, data, false);
  stats.OnTransmit(1, data, true);
  stats.OnTransmit(2, MakePacket(2, 0, BeaconPayload{}), false);
  stats.OnReceive(3, /*addressed=*/true, data_bytes);
  stats.OnReceive(2, /*addressed=*/false, data_bytes);  // Snooped.
  stats.OnDrop(DropReason::kNoAck);

  const TypeCounters& d = stats.ByType(PacketType::kData);
  EXPECT_EQ(d.sent, 2u);
  EXPECT_EQ(d.retransmissions, 1u);
  EXPECT_EQ(stats.ByType(PacketType::kBeacon).sent, 1u);
  EXPECT_EQ(stats.TotalSent(), 3u);
  EXPECT_EQ(stats.TotalSentExclBeacons(), 2u);
  EXPECT_EQ(stats.SentBy(1), 2u);
  EXPECT_EQ(stats.SentBy(2), 1u);
  EXPECT_EQ(stats.receptions(), 2u);  // Snoops count on the channel...
  EXPECT_EQ(stats.ReceivedBy(3), 1u);
  EXPECT_EQ(stats.ReceivedBy(2), 0u);  // ...but are not addressed receipts.
  EXPECT_EQ(stats.drops(DropReason::kNoAck), 1u);
  EXPECT_EQ(stats.drops(DropReason::kChannelBusy), 0u);
  EXPECT_EQ(stats.TotalDrops(), 1u);
}

TEST(MessageStatsTest, ByteAccounting) {
  MessageStats stats(2);
  Packet data = DataPacket(0);
  Packet beacon = MakePacket(0, 0, BeaconPayload{});
  uint64_t size = static_cast<uint64_t>(data.WireSize());
  EXPECT_EQ(MessageStats::WorkloadBytes(data), size);
  EXPECT_EQ(MessageStats::WorkloadBytes(beacon), 0u);
  stats.OnTransmit(0, data, false);
  stats.OnTransmit(0, beacon, false);
  // Wire bytes count every type; workload bytes leave beacons out.
  EXPECT_EQ(stats.ByType(PacketType::kData).bytes_sent, size);
  EXPECT_EQ(stats.ByType(PacketType::kBeacon).bytes_sent,
            static_cast<uint64_t>(beacon.WireSize()));
  EXPECT_EQ(stats.WorkloadBytesBy(0), size);
  stats.OnReceive(1, /*addressed=*/true, size);
  stats.OnReceive(1, /*addressed=*/false, size);  // Snoops cost no workload.
  EXPECT_EQ(stats.WorkloadBytesBy(1), size);
}

TEST(EnergyModelTest, LifetimeInverselyProportionalToPower) {
  double one_unit = LifetimeDays(1000, Minutes(30));
  double two_units = LifetimeDays(2000, Minutes(30));
  EXPECT_DOUBLE_EQ(one_unit, 2 * two_units);
}

TEST(EnergyModelTest, IdleNodeLivesForever) {
  EXPECT_TRUE(std::isinf(LifetimeDays(0, Minutes(30))));
}

TEST(TelemetryTest, Rates) {
  Telemetry t;
  EXPECT_DOUBLE_EQ(t.StorageSuccessRate(), 0.0);
  EXPECT_DOUBLE_EQ(t.OwnerHitRate(), 0.0);
  EXPECT_DOUBLE_EQ(t.QuerySuccessRate(), 0.0);
  t.readings_produced = 100;
  t.readings_stored = 90;
  t.stored_local_no_index = 10;
  t.stored_at_owner = 72;
  EXPECT_DOUBLE_EQ(t.StorageSuccessRate(), 0.9);
  EXPECT_DOUBLE_EQ(t.OwnerHitRate(), 0.9);  // 72 / (90 - 10).
  t.query_targets_total = 50;
  t.replies_received = 39;
  EXPECT_DOUBLE_EQ(t.QuerySuccessRate(), 0.78);
  t.summaries_sent = 10;
  t.summaries_received_at_base = 6;
  EXPECT_DOUBLE_EQ(t.SummaryDeliveryRate(), 0.6);
}

}  // namespace
}  // namespace scoop::metrics
