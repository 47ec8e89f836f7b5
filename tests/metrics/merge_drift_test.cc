// Field-drift guards for the per-shard merge paths. The sharded engine
// keeps one Telemetry / MessageStats per shard and folds them together
// after the run; a counter added to either struct but forgotten in its
// MergeFrom would silently vanish from sharded results while K=1 stayed
// correct. Two complementary tripwires:
//
//  1. A static_assert on sizeof(Telemetry): adding or removing a field
//     changes the size, forcing whoever does it to revisit MergeFrom (and
//     then update the expected size here).
//  2. Sentinel-fill merge tests: every field gets a distinct nonzero
//     value, and the merge result is checked field by field, so a MergeFrom
//     that drops (or double-adds) a field fails even at constant sizeof.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <type_traits>

#include "metrics/message_stats.h"
#include "metrics/telemetry.h"

namespace scoop::metrics {
namespace {

// Telemetry is a flat bag of uint64_t counters; its MergeFrom must sum
// every one of them. Count the words and pin the layout.
constexpr size_t kTelemetryWords = 26;
static_assert(sizeof(Telemetry) == kTelemetryWords * sizeof(uint64_t),
              "Telemetry gained or lost a counter: update MergeFrom "
              "(telemetry.h), then the expected word count here and the "
              "sentinel test below");
static_assert(std::is_trivially_copyable_v<Telemetry>,
              "the sentinel-fill test memcpys Telemetry as a word array");

TEST(TelemetryMergeDriftTest, MergeFromSumsEveryField) {
  // Fill the source with distinct sentinels (word i holds i + 1) through a
  // word array, so a field missed by MergeFrom shows up as a wrong word no
  // matter where it sits in the struct.
  uint64_t sentinels[kTelemetryWords];
  for (size_t i = 0; i < kTelemetryWords; ++i) {
    sentinels[i] = static_cast<uint64_t>(i) + 1;
  }
  Telemetry source;
  std::memcpy(&source, sentinels, sizeof(source));

  Telemetry target;  // All zeros.
  target.MergeFrom(source);
  uint64_t merged[kTelemetryWords];
  std::memcpy(merged, &target, sizeof(target));
  for (size_t i = 0; i < kTelemetryWords; ++i) {
    EXPECT_EQ(merged[i], sentinels[i]) << "Telemetry word " << i
                                       << " not carried over by MergeFrom";
  }

  // Merging twice must double every field (no saturating or overwritten
  // counters).
  target.MergeFrom(source);
  std::memcpy(merged, &target, sizeof(target));
  for (size_t i = 0; i < kTelemetryWords; ++i) {
    EXPECT_EQ(merged[i], 2 * sentinels[i]) << "Telemetry word " << i;
  }
}

// MessageStats hides its counters behind accessors, so the sentinel fill
// goes through the event hooks instead: pump a distinct event mix into the
// source, merge, and check every accessor-visible counter on the target.
TEST(MessageStatsMergeDriftTest, MergeFromCarriesEveryCounter) {
  constexpr int kNodes = 3;
  MessageStats source(kNodes);

  DataPayload d;
  d.producer = 1;
  d.readings.push_back(Reading{5, Seconds(1)});
  Packet data = MakePacket(1, 0, d);
  Packet beacon = MakePacket(2, 0, BeaconPayload{});

  source.OnTransmit(1, data, false);
  source.OnTransmit(1, data, true);  // Retransmission.
  source.OnTransmit(2, beacon, false);
  source.OnReceive(0, /*addressed=*/true, MessageStats::WorkloadBytes(data));
  source.OnReceive(2, /*addressed=*/false, MessageStats::WorkloadBytes(data));
  source.OnDrop(DropReason::kNoAck);
  source.OnDrop(DropReason::kChannelBusy);
  source.OnDrop(DropReason::kChannelBusy);

  MessageStats target(kNodes);
  target.MergeFrom(source);

  for (int t = 0; t < kNumPacketTypes; ++t) {
    PacketType type = static_cast<PacketType>(t);
    const TypeCounters& a = target.ByType(type);
    const TypeCounters& b = source.ByType(type);
    EXPECT_EQ(a.sent, b.sent) << PacketTypeName(type);
    EXPECT_EQ(a.retransmissions, b.retransmissions) << PacketTypeName(type);
    EXPECT_EQ(a.bytes_sent, b.bytes_sent) << PacketTypeName(type);
  }
  EXPECT_EQ(target.receptions(), source.receptions());
  EXPECT_EQ(target.drops(DropReason::kNoAck), source.drops(DropReason::kNoAck));
  EXPECT_EQ(target.drops(DropReason::kChannelBusy), source.drops(DropReason::kChannelBusy));
  for (NodeId n = 0; n < kNodes; ++n) {
    EXPECT_EQ(target.SentBy(n), source.SentBy(n)) << "node " << n;
    EXPECT_EQ(target.ReceivedBy(n), source.ReceivedBy(n)) << "node " << n;
    EXPECT_EQ(target.WorkloadBytesBy(n), source.WorkloadBytesBy(n)) << "node " << n;
  }
  EXPECT_EQ(target.TotalSent(), source.TotalSent());
  EXPECT_EQ(target.TotalSentExclBeacons(), source.TotalSentExclBeacons());

  // Merging on top of existing counts sums rather than overwrites.
  target.MergeFrom(source);
  EXPECT_EQ(target.TotalSent(), 2 * source.TotalSent());
  EXPECT_EQ(target.SentBy(1), 2 * source.SentBy(1));
  EXPECT_EQ(target.receptions(), 2 * source.receptions());
  EXPECT_EQ(target.TotalDrops(), 2 * source.TotalDrops());
  EXPECT_EQ(target.ByType(PacketType::kData).bytes_sent,
            2 * source.ByType(PacketType::kData).bytes_sent);
}

}  // namespace
}  // namespace scoop::metrics
