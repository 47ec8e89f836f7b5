// Regression tests for the event queue's slab/generation scheme: a queue
// that leaves a stale entry behind on every Cancel() until it is popped
// grows without bound under cancel/reschedule patterns (Trickle timers,
// radio timeouts) over long runs. These tests pin the bounded-occupancy
// guarantee and the generation checks on EventIds. The determinism
// contract itself is covered by event_queue_test.cc.
#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "queue_test_util.h"

namespace scoop::sim {
namespace {

TEST(EventQueueCompactionTest, CancelHeavyWorkloadKeepsHeapBounded) {
  TestQueue q;
  // A Trickle-like pattern: every step cancels its pending event and
  // reschedules further out, so the seed queue would accumulate one stale
  // heap entry per step -- 200k entries by the end of this loop.
  EventId pending = q.ScheduleAfter(10, [] {});
  size_t max_heap = 0;
  for (int step = 0; step < 200000; ++step) {
    q.Cancel(pending);
    pending = q.ScheduleAfter(10 + step % 7, [] {});
    max_heap = std::max(max_heap, q.heap_size());
    ASSERT_EQ(q.size(), 1u);
  }
  // Compaction triggers once stale entries outnumber live ones (with a
  // small constant floor), so the heap must stay O(1) here, not O(steps).
  EXPECT_LE(max_heap, 256u);
  q.RunUntil(1000000);
  EXPECT_EQ(q.processed(), 1u);  // Only the last survivor ran.
}

TEST(EventQueueCompactionTest, CancelAllReclaimsHeapWithoutRunning) {
  TestQueue q;
  std::vector<EventId> ids;
  for (int i = 0; i < 10000; ++i) {
    ids.push_back(q.ScheduleAt(100 + i, [] {}));
  }
  for (EventId id : ids) q.Cancel(id);
  EXPECT_EQ(q.size(), 0u);
  EXPECT_TRUE(q.empty());
  // No RunOne() ever happened, yet compaction reclaimed the heap.
  EXPECT_LE(q.heap_size(), 128u);
}

TEST(EventQueueCompactionTest, StaleIdDoesNotCancelSlotReuse) {
  TestQueue q;
  // Exhaust and recycle slots so a later event reuses the first id's slot.
  EventId old_id = q.ScheduleAt(10, [] {});
  q.Cancel(old_id);
  bool ran = false;
  for (int i = 0; i < 100; ++i) {
    EventId fresh = q.ScheduleAt(20 + i, [&ran] { ran = true; });
    q.Cancel(old_id);  // Generation mismatch: must not touch the new event.
    ASSERT_EQ(q.size(), 1u);
    if (i < 99) q.Cancel(fresh);
  }
  while (q.RunOne()) {
  }
  EXPECT_TRUE(ran);
}

TEST(EventQueueCompactionTest, StaleIdAfterRunDoesNotCancelReuse) {
  TestQueue q;
  int runs = 0;
  EventId first = q.ScheduleAt(10, [&runs] { ++runs; });
  while (q.RunOne()) {
  }
  // The slot is free again; the next schedule will likely reuse it.
  q.ScheduleAt(20, [&runs] { ++runs; });
  q.Cancel(first);  // Handle of an event that already ran: must be a no-op.
  while (q.RunOne()) {
  }
  EXPECT_EQ(runs, 2);
}

TEST(EventQueueCompactionTest, CancelInvalidIdIsNoop) {
  TestQueue q;
  q.Cancel(kInvalidEventId);  // Empty queue: must not touch anything.
  int runs = 0;
  EventId id = q.ScheduleAt(10, [&runs] { ++runs; });
  q.Cancel(id);
  // Slot 0 is free again, so its key is 0; cancelling the invalid id must
  // not re-release it (that would corrupt the free list).
  q.Cancel(kInvalidEventId);
  q.ScheduleAt(20, [&runs] { ++runs; });
  q.ScheduleAt(30, [&runs] { ++runs; });
  ASSERT_EQ(q.size(), 2u);
  while (q.RunOne()) {
  }
  EXPECT_EQ(runs, 2);
}

TEST(EventQueueCompactionTest, OrderingSurvivesCompaction) {
  TestQueue q;
  // Force several compaction cycles between schedules, then check that
  // same-time events still run in scheduling order (the determinism
  // contract) even though make_heap rebuilt the heap in between.
  std::vector<int> order;
  q.ScheduleAt(500, [&order] { order.push_back(1); });
  for (int round = 0; round < 5; ++round) {
    std::vector<EventId> chaff;
    for (int i = 0; i < 300; ++i) chaff.push_back(q.ScheduleAt(400, [] {}));
    for (EventId id : chaff) q.Cancel(id);
  }
  q.ScheduleAt(500, [&order] { order.push_back(2); });
  q.ScheduleAt(500, [&order] { order.push_back(3); });
  q.RunUntil(500);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueCompactionTest, CancelFromInsideCallbackCompactsSafely) {
  TestQueue q;
  // A callback cancels a large batch of later events, pushing the queue
  // over its compaction threshold while RunUntil is mid-flight.
  std::vector<EventId> victims;
  int survivors = 0;
  for (int i = 0; i < 500; ++i) {
    victims.push_back(q.ScheduleAt(100 + i, [&survivors] { ++survivors; }));
  }
  q.ScheduleAt(50, [&q, &victims] {
    for (EventId id : victims) q.Cancel(id);
  });
  q.ScheduleAt(1000, [&survivors] { ++survivors; });
  q.RunUntil(2000);
  EXPECT_EQ(survivors, 1);
  EXPECT_TRUE(q.empty());
}

}  // namespace
}  // namespace scoop::sim
