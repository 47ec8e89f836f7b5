#include "storage/flash_store.h"

#include <gtest/gtest.h>

#include "storage/summary_builder.h"

namespace scoop::storage {
namespace {

QueryPayload TimeRangeQuery(SimTime lo, SimTime hi) {
  QueryPayload q;
  q.time_lo = lo;
  q.time_hi = hi;
  return q;
}

TEST(FlashStoreTest, StoreAndScanByTime) {
  FlashStore store;
  store.Store({1, 10, Seconds(5)});
  store.Store({2, 20, Seconds(10)});
  store.Store({3, 30, Seconds(15)});
  auto hits = store.Scan(TimeRangeQuery(Seconds(8), Seconds(12)));
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].producer, 2);
  EXPECT_EQ(hits[0].value, 20);
}

TEST(FlashStoreTest, ScanByValueRange) {
  FlashStore store;
  for (Value v = 0; v < 100; ++v) store.Store({1, v, Seconds(v)});
  QueryPayload q = TimeRangeQuery(0, Seconds(1000));
  q.ranges.push_back(ValueRange{10, 19});
  q.ranges.push_back(ValueRange{90, 95});
  auto hits = store.Scan(q);
  EXPECT_EQ(hits.size(), 16u);
}

TEST(FlashStoreTest, EmptyRangesMatchAllValues) {
  FlashStore store;
  for (Value v = 0; v < 10; ++v) store.Store({1, v, Seconds(1)});
  auto hits = store.Scan(TimeRangeQuery(0, Seconds(10)));
  EXPECT_EQ(hits.size(), 10u);
}

TEST(FlashStoreTest, RingOverwriteDropsOldest) {
  FlashStore store;
  const Value total = static_cast<Value>(FlashStore::kCapacityTuples) + 6;
  for (Value v = 0; v < total; ++v) store.Store({1, v, Seconds(v)});
  EXPECT_EQ(store.size(), FlashStore::kCapacityTuples);
  EXPECT_EQ(store.tuples_overwritten(), 6u);
  auto hits = store.Scan(TimeRangeQuery(0, Seconds(total)));
  ASSERT_EQ(hits.size(), FlashStore::kCapacityTuples);
  EXPECT_EQ(hits[0].value, 6);
  EXPECT_EQ(hits.back().value, total - 1);
}

TEST(SummaryBuilderTest, BuildsFromRecentReadings) {
  RingBuffer<Reading> recent(30);
  for (int i = 0; i < 10; ++i) {
    recent.Push(Reading{static_cast<Value>(10 + i), Seconds(i)});
  }
  net::NeighborTable neighbors;
  for (uint16_t s = 1; s < 20; ++s) neighbors.OnPacketSeen(7, s, Seconds(s), 7);
  SummaryPayload summary = BuildSummary(0, recent, 10, neighbors, 3);
  EXPECT_EQ(summary.vmin, 10);
  EXPECT_EQ(summary.vmax, 19);
  EXPECT_EQ(summary.sum, 145);
  EXPECT_EQ(summary.sample_count, 10);
  EXPECT_EQ(summary.last_index_id, 3u);
  EXPECT_EQ(summary.bins.size(), 10u);
  ASSERT_EQ(summary.neighbors.size(), 1u);
  EXPECT_EQ(summary.neighbors[0].id, 7);
}

TEST(SummaryBuilderTest, EmptyReadingsGiveEmptySummary) {
  RingBuffer<Reading> recent(30);
  net::NeighborTable neighbors;
  SummaryPayload summary = BuildSummary(0, recent, 0, neighbors, kNoIndex);
  EXPECT_TRUE(summary.bins.empty());
  EXPECT_EQ(summary.sum, 0);
}

TEST(SummaryBuilderTest, NeighborListCapped) {
  RingBuffer<Reading> recent(30);
  recent.Push(Reading{5, 0});
  net::NeighborTable neighbors;
  for (NodeId id = 1; id <= 20; ++id) neighbors.OnPacketSeen(id, 1, Seconds(1), id);
  SummaryPayload summary = BuildSummary(0, recent, 1, neighbors, kNoIndex);
  EXPECT_EQ(summary.neighbors.size(), 12u);  // The paper's 12 best.
}

}  // namespace
}  // namespace scoop::storage
