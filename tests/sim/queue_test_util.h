// Test adaptor over ShardQueue: schedules everything as phase-2 events of
// one origin (so same-time events run FIFO by schedule order) and adds the
// ScheduleAfter / RunUntil conveniences the queue tests are written in.
#ifndef SCOOP_TESTS_SIM_QUEUE_TEST_UTIL_H_
#define SCOOP_TESTS_SIM_QUEUE_TEST_UTIL_H_

#include <utility>

#include "sim/shard.h"

namespace scoop::sim {

class TestQueue {
 public:
  TestQueue() : q_(/*num_origins=*/1) {}

  EventId ScheduleAt(SimTime at, ShardQueue::Callback fn) {
    return q_.ScheduleRegular(at, /*origin=*/0, std::move(fn));
  }
  EventId ScheduleAfter(SimTime delay, ShardQueue::Callback fn) {
    return ScheduleAt(q_.now() + delay, std::move(fn));
  }
  void Cancel(EventId id) { q_.Cancel(id); }
  bool RunOne() { return q_.RunOne(); }

  /// Runs every event at or before `end`, then advances the clock to `end`.
  void RunUntil(SimTime end) {
    while (q_.HeadTime() <= end) q_.RunOne();
    q_.AdvanceTo(end);
  }

  SimTime now() const { return q_.now(); }
  bool empty() const { return q_.empty(); }
  size_t size() const { return q_.size(); }
  uint64_t processed() const { return q_.processed(); }
  size_t heap_size() const { return q_.heap_size(); }
  ShardQueue& queue() { return q_; }

 private:
  ShardQueue q_;
};

}  // namespace scoop::sim

#endif  // SCOOP_TESTS_SIM_QUEUE_TEST_UTIL_H_
