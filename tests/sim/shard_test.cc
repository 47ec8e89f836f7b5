// ShardQueue ordering unit tests. Rather than FIFO by schedule order at
// equal times (which holds only within one origin), ShardQueue orders
// same-time events canonically by (phase, origin, per-origin counter) so
// the execution order is a pure function of simulation content -- the
// property the K-equivalence suite rests on. The radio death test at the
// end pins the receiving side of the conservative-sync contract.
#include "sim/shard.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace scoop::sim {
namespace {

TEST(ShardQueueTest, RunsInTimeOrder) {
  ShardQueue q(/*num_origins=*/4);
  std::vector<int> order;
  q.ScheduleRegular(30, 0, [&] { order.push_back(3); });
  q.ScheduleRegular(10, 0, [&] { order.push_back(1); });
  q.ScheduleRegular(20, 0, [&] { order.push_back(2); });
  while (!q.empty()) q.RunOne();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(ShardQueueTest, SameTimeRegularsRunInOriginOrderNotScheduleOrder) {
  // Origins scheduled in reverse; execution must follow origin ids.
  ShardQueue q(/*num_origins=*/4);
  std::vector<int> order;
  q.ScheduleRegular(10, 3, [&] { order.push_back(3); });
  q.ScheduleRegular(10, 1, [&] { order.push_back(1); });
  q.ScheduleRegular(10, 2, [&] { order.push_back(2); });
  q.ScheduleRegular(10, 0, [&] { order.push_back(0); });
  while (!q.empty()) q.RunOne();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(ShardQueueTest, SameOriginSameTimeRunsInScheduleOrder) {
  // Within one origin the per-origin counter preserves FIFO.
  ShardQueue q(/*num_origins=*/2);
  std::vector<int> order;
  q.ScheduleRegular(10, 1, [&] { order.push_back(1); });
  q.ScheduleRegular(10, 1, [&] { order.push_back(2); });
  q.ScheduleRegular(10, 1, [&] { order.push_back(3); });
  while (!q.empty()) q.RunOne();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(ShardQueueTest, EvalsBeforeFinishesBeforeRegularsAtEqualTime) {
  // Phase order at one instant: reception evaluations (phase 0), sender
  // completions (phase 1), regular events (phase 2) -- regardless of the
  // order they were scheduled in. Mutual cross-shard ack stalls resolve
  // only because both sides' evals precede both sides' finishes.
  ShardQueue q(/*num_origins=*/8);
  std::vector<std::string> order;
  q.ScheduleRegular(10, 0, [&] { order.push_back("regular"); });
  q.ScheduleFinish(10, /*sender=*/5, /*gen=*/1, [&] { order.push_back("finish"); });
  q.ScheduleEval(10, /*sender=*/7, /*gen=*/2, [&] { order.push_back("eval"); });
  while (!q.empty()) q.RunOne();
  EXPECT_EQ(order, (std::vector<std::string>{"eval", "finish", "regular"}));
}

TEST(ShardQueueTest, EvalsOrderBySenderThenGeneration) {
  ShardQueue q(/*num_origins=*/8);
  std::vector<std::string> order;
  q.ScheduleEval(10, 3, 2, [&] { order.push_back("3/2"); });
  q.ScheduleEval(10, 1, 9, [&] { order.push_back("1/9"); });
  q.ScheduleEval(10, 3, 1, [&] { order.push_back("3/1"); });
  while (!q.empty()) q.RunOne();
  EXPECT_EQ(order, (std::vector<std::string>{"1/9", "3/1", "3/2"}));
}

TEST(ShardQueueTest, CancelPreventsExecutionAndStaleCancelIsNoop) {
  ShardQueue q(/*num_origins=*/2);
  int runs = 0;
  uint64_t id = q.ScheduleRegular(10, 0, [&] { ++runs; });
  q.Cancel(id);
  q.ScheduleRegular(10, 1, [&] { ++runs; });
  while (!q.empty()) q.RunOne();
  EXPECT_EQ(runs, 1);
  q.Cancel(id);  // Already gone: must not disturb anything.
  EXPECT_EQ(q.processed(), 1u);
}

TEST(ShardQueueTest, HeadFinishInfoExposesOnlyFinishHeads) {
  ShardQueue q(/*num_origins=*/4);
  q.ScheduleFinish(10, /*sender=*/2, /*gen=*/7, [] {});
  NodeId sender = 0;
  uint32_t gen = 0;
  ASSERT_TRUE(q.HeadFinishInfo(&sender, &gen));
  EXPECT_EQ(sender, 2);
  EXPECT_EQ(gen, 7u);

  // An eval at the same time outranks the finish; the head is no longer a
  // finish event.
  q.ScheduleEval(10, /*sender=*/1, /*gen=*/1, [] {});
  EXPECT_FALSE(q.HeadFinishInfo(&sender, &gen));
}

TEST(ShardQueueTest, ClockAdvancesAndNeverRetreats) {
  ShardQueue q(/*num_origins=*/2);
  q.ScheduleRegular(10, 0, [] {});
  q.ScheduleRegular(20, 0, [] {});
  EXPECT_EQ(q.now(), 0);
  q.RunOne();
  EXPECT_EQ(q.now(), 10);
  q.RunOne();
  EXPECT_EQ(q.now(), 20);
  EXPECT_EQ(q.HeadTime(), kSimTimeHorizon);  // Empty queue: no bound.
}

TEST(ShardQueueTest, CancelChurnCompactsTheHeap) {
  // Schedule/cancel far more events than survive; lazy compaction must
  // keep the heap near the live count rather than the churn count.
  ShardQueue q(/*num_origins=*/2);
  int runs = 0;
  for (int round = 0; round < 300; ++round) {
    uint64_t id = q.ScheduleRegular(1000 + round, 0, [&] { ++runs; });
    if (round % 3 != 0) q.Cancel(id);
  }
  EXPECT_LT(q.heap_size(), 300u);
  while (!q.empty()) q.RunOne();
  EXPECT_EQ(runs, 100);
}

TEST(ShardRadioDeathTest, AnnounceBehindTheClockIsAStraggler) {
  // Node 0 lives on this shard, node 1 on the other. Once the shard has
  // run past t, a mirrored frame from node 1 starting before t could only
  // arrive through an unsound promise: the radio must refuse it rather
  // than silently rewrite history.
  std::vector<Point> pos = {{0, 0}, {10, 0}};
  std::vector<std::vector<double>> d = {{0, 1.0}, {1.0, 0}};
  Topology topo = Topology::FromMatrix(pos, d);
  std::vector<int> owner = {0, 1};
  ShardQueue queue(/*num_origins=*/2);
  ShardRadio radio(&topo, &queue, /*seed=*/1, &owner, /*self_shard=*/0);
  const SimTime t = Millis(50);
  queue.ScheduleRegular(t, 0, [] {});
  queue.RunOne();
  ASSERT_EQ(queue.now(), t);
  Packet pkt = MakePacket(1, kInvalidNodeId, DataPayload{});
  EXPECT_DEATH(radio.HandleAnnounce(/*src=*/1, /*gen=*/1, t - 1, t + Millis(4), pkt),
               "SCOOP_CHECK");
}

}  // namespace
}  // namespace scoop::sim
