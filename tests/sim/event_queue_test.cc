// The simulator event queue's (ShardQueue's) scheduling contract. Every
// event here is a phase-2 event of one origin, where the canonical
// (time, phase, origin, counter) key reduces to FIFO by (time, schedule
// order): the ordering invariant protocol code leans on (Trickle
// suppression windows, MAC backoff expiry, ack timeouts).
#include <functional>
#include <vector>

#include <gtest/gtest.h>

#include "queue_test_util.h"

namespace scoop::sim {
namespace {

TEST(EventQueueTest, RunsInTimeOrder) {
  TestQueue q;
  std::vector<int> order;
  q.ScheduleAt(30, [&] { order.push_back(3); });
  q.ScheduleAt(10, [&] { order.push_back(1); });
  q.ScheduleAt(20, [&] { order.push_back(2); });
  while (q.RunOne()) {
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), 30);
}

TEST(EventQueueTest, TiesBreakByScheduleOrder) {
  TestQueue q;
  std::vector<int> order;
  q.ScheduleAt(10, [&] { order.push_back(1); });
  q.ScheduleAt(10, [&] { order.push_back(2); });
  q.ScheduleAt(10, [&] { order.push_back(3); });
  while (q.RunOne()) {
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, CancelPreventsExecution) {
  TestQueue q;
  bool ran = false;
  EventId id = q.ScheduleAt(5, [&] { ran = true; });
  q.Cancel(id);
  while (q.RunOne()) {
  }
  EXPECT_FALSE(ran);
}

TEST(EventQueueTest, CancelAfterRunIsNoop) {
  TestQueue q;
  int runs = 0;
  EventId id = q.ScheduleAt(5, [&] { ++runs; });
  while (q.RunOne()) {
  }
  q.Cancel(id);  // Must not crash.
  EXPECT_EQ(runs, 1);
}

TEST(EventQueueTest, ScheduleAfterUsesCurrentTime) {
  TestQueue q;
  SimTime observed = -1;
  q.ScheduleAt(100, [&] {
    q.ScheduleAfter(50, [&] { observed = q.now(); });
  });
  q.RunUntil(1000);
  EXPECT_EQ(observed, 150);
}

TEST(EventQueueTest, RunUntilAdvancesClockEvenWhenIdle) {
  TestQueue q;
  q.RunUntil(500);
  EXPECT_EQ(q.now(), 500);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, RunUntilStopsAtBoundary) {
  TestQueue q;
  int runs = 0;
  q.ScheduleAt(10, [&] { ++runs; });
  q.ScheduleAt(20, [&] { ++runs; });
  q.ScheduleAt(21, [&] { ++runs; });
  q.RunUntil(20);
  EXPECT_EQ(runs, 2);
  EXPECT_EQ(q.now(), 20);
  q.RunUntil(21);
  EXPECT_EQ(runs, 3);
}

TEST(EventQueueTest, EventsCanScheduleEvents) {
  TestQueue q;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 10) q.ScheduleAfter(1, recurse);
  };
  q.ScheduleAt(0, recurse);
  q.RunUntil(100);
  EXPECT_EQ(depth, 10);
  EXPECT_EQ(q.processed(), 10u);
}

TEST(EventQueueTest, CancelOneOfManyAtSameTime) {
  TestQueue q;
  std::vector<int> order;
  q.ScheduleAt(10, [&] { order.push_back(1); });
  EventId id = q.ScheduleAt(10, [&] { order.push_back(2); });
  q.ScheduleAt(10, [&] { order.push_back(3); });
  q.Cancel(id);
  q.RunUntil(10);
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

// The documented ordering invariant: same-timestamp events run FIFO by
// schedule order, including events scheduled at the current time from
// inside a handler (zero delay). The in-handler event must run after every
// event already queued at that instant.
TEST(EventQueueTest, ZeroDelayFromHandlerRunsAfterQueuedPeers) {
  TestQueue q;
  std::vector<int> order;
  q.ScheduleAt(10, [&] {
    order.push_back(1);
    q.ScheduleAt(10, [&] { order.push_back(4); });  // Zero delay: to the back.
    q.ScheduleAfter(0, [&] { order.push_back(5); });
  });
  q.ScheduleAt(10, [&] { order.push_back(2); });
  q.ScheduleAt(10, [&] { order.push_back(3); });
  q.RunUntil(10);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
}

// A zero-delay chain still interleaves FIFO with pre-queued peers: each
// link goes to the back of the timestamp class, so peers are never starved.
TEST(EventQueueTest, ZeroDelayChainDoesNotStarvePeers) {
  TestQueue q;
  std::vector<int> order;
  int depth = 0;
  std::function<void()> link = [&] {
    order.push_back(100 + depth);
    if (++depth < 3) q.ScheduleAfter(0, [&] { link(); });
  };
  q.ScheduleAt(5, [&] { link(); });
  q.ScheduleAt(5, [&] { order.push_back(1); });
  q.ScheduleAt(5, [&] { order.push_back(2); });
  q.RunUntil(5);
  EXPECT_EQ(order, (std::vector<int>{100, 1, 2, 101, 102}));
}

// Cancel + re-schedule assigns a fresh sequence number, moving the event
// behind same-time peers that were scheduled in between.
TEST(EventQueueTest, RescheduleMovesToBackOfTimestampClass) {
  TestQueue q;
  std::vector<int> order;
  EventId id = q.ScheduleAt(10, [&] { order.push_back(1); });
  q.ScheduleAt(10, [&] { order.push_back(2); });
  q.Cancel(id);
  q.ScheduleAt(10, [&] { order.push_back(1); });  // Re-armed: now behind 2.
  q.RunUntil(10);
  EXPECT_EQ(order, (std::vector<int>{2, 1}));
}

}  // namespace
}  // namespace scoop::sim
