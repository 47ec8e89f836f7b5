// Differential property tests for the two-tier queue: the timer wheel in
// front of the heap (QueueImpl::kWheel, what the engine runs) must execute
// the exact same event sequence as the heap alone (the kHeap test oracle)
// under randomized schedule / cancel / reschedule streams -- including
// same-timestamp ties and delays straddling both wheel levels and the
// spill horizon. This is the ordering-invariant contract that lets the
// wheel sit in front of the heap without disturbing a single golden.
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/shard.h"

namespace scoop::sim {
namespace {

/// Deterministic splitmix64: the op stream must be a pure function of the
/// seed so both queue tiers replay the identical history.
class StreamRng {
 public:
  explicit StreamRng(uint64_t seed) : state_(seed) {}

  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

  uint64_t Below(uint64_t n) { return Next() % n; }

 private:
  uint64_t state_;
};

/// Draws a delay that exercises every tier boundary: zero-delay, same
/// L0 frame (< 1024 us), the L1 horizon (< ~1.05 s), and far-future
/// spills beyond it.
SimTime DrawDelay(StreamRng& rng) {
  switch (rng.Below(5)) {
    case 0:
      return 0;  // Same instant as the current clock.
    case 1:
      return static_cast<SimTime>(rng.Below(1024));  // Within the L0 frame.
    case 2:
      return static_cast<SimTime>(rng.Below(1u << 20));  // Within the wheel.
    case 3:
      // MAC-backoff-like band: 8..64 ms, the wheel's design target.
    return static_cast<SimTime>(8000 + rng.Below(56000));
    default:
      return static_cast<SimTime>(rng.Below(4000000));  // Often spills.
  }
}

/// Replays one randomized schedule/cancel/reschedule history against a
/// ShardQueue built with `impl` and returns the execution order (labels in
/// the order their callbacks fired) plus processed(). Events go through
/// the canonical (time, ord) ordering -- regular events with random origins
/// plus eval/finish phases, whose relative order the wheel's lazy bucket
/// sort must reproduce.
std::pair<std::vector<std::string>, uint64_t> ReplayShardQueue(QueueImpl impl,
                                                               uint64_t seed) {
  constexpr uint32_t kOrigins = 16;
  ShardQueue q(kOrigins, impl);
  StreamRng rng(seed);
  std::vector<std::string> order;
  std::vector<EventId> ids;
  int next_label = 0;

  auto drain_until = [&](SimTime t) {
    while (!q.empty() && q.HeadTime() <= t) q.RunOne();
  };
  auto schedule = [&](SimTime at) {
    int label = next_label++;
    EventId id = kInvalidEventId;
    switch (rng.Below(4)) {
      case 0: {
        // gen = label keeps (sender, gen) unique: the engine never enqueues
        // two evals for one (sender, gen) at one instant, and a duplicate
        // would make the canonical order ill-defined for both impls.
        NodeId sender = static_cast<NodeId>(rng.Below(kOrigins));
        std::string tag(1, 'e');
        tag += std::to_string(label);
        id = q.ScheduleEval(at, sender, static_cast<uint32_t>(label),
                            [&order, tag] { order.push_back(tag); });
        break;
      }
      case 1: {
        NodeId sender = static_cast<NodeId>(rng.Below(kOrigins));
        std::string tag(1, 'f');
        tag += std::to_string(label);
        id = q.ScheduleFinish(at, sender, static_cast<uint32_t>(label),
                              [&order, tag] { order.push_back(tag); });
        break;
      }
      default: {
        uint32_t origin = static_cast<uint32_t>(rng.Below(kOrigins));
        std::string tag(1, 'r');
        tag += std::to_string(label);
        id = q.ScheduleRegular(at, origin, [&order, tag] { order.push_back(tag); });
        break;
      }
    }
    ids.push_back(id);
  };

  SimTime tie_at = 0;
  for (int step = 0; step < 3000; ++step) {
    switch (rng.Below(8)) {
      case 0:
      case 1:
      case 2: {
        SimTime at = q.now() + DrawDelay(rng);
        if (rng.Below(4) == 0) at = tie_at >= q.now() ? tie_at : at;
        tie_at = at;
        schedule(at);
        break;
      }
      case 3: {
        if (!ids.empty()) q.Cancel(ids[rng.Below(ids.size())]);
        break;
      }
      case 4: {
        if (!ids.empty()) q.Cancel(ids[rng.Below(ids.size())]);
        schedule(q.now() + DrawDelay(rng));
        break;
      }
      default: {
        drain_until(q.now() + static_cast<SimTime>(rng.Below(200000)));
        break;
      }
    }
  }
  while (!q.empty()) q.RunOne();
  return {std::move(order), q.processed()};
}

TEST(ShardQueueDifferentialTest, WheelMatchesHeapUnderRandomChurn) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    auto [heap_order, heap_processed] = ReplayShardQueue(QueueImpl::kHeap, seed);
    auto [wheel_order, wheel_processed] = ReplayShardQueue(QueueImpl::kWheel, seed);
    EXPECT_GT(heap_processed, 0u) << "seed " << seed;
    EXPECT_EQ(wheel_processed, heap_processed) << "seed " << seed;
    ASSERT_EQ(wheel_order, heap_order) << "seed " << seed;
  }
}

TEST(ShardQueueDifferentialTest, WheelAbsorbsNearFutureSchedules) {
  // Sanity that the differential test actually exercises both tiers: a
  // wheel replay must both absorb and spill under the delay mix above.
  ShardQueue q(/*num_origins=*/1, QueueImpl::kWheel);
  StreamRng rng(99);
  for (int i = 0; i < 2000; ++i) {
    q.ScheduleRegular(q.now() + DrawDelay(rng), /*origin=*/0, [] {});
    if (rng.Below(4) == 0) {
      SimTime until = q.now() + static_cast<SimTime>(rng.Below(100000));
      while (q.HeadTime() <= until) q.RunOne();
      q.AdvanceTo(until);
    }
  }
  EXPECT_GT(q.wheel_absorbed(), 0u);
  EXPECT_GT(q.wheel_spilled(), 0u);
  EXPECT_EQ(q.wheel_absorbed() + q.wheel_spilled(), 2000u);
}

}  // namespace
}  // namespace scoop::sim
