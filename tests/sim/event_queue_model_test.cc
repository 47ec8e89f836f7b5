// Model test for ShardQueue: under randomized schedule / cancel /
// reschedule streams -- same-timestamp ties across phases 0/1/2, zero
// delays and far-future delays -- the queue must execute exactly the
// sequence a plain std::set keyed on the canonical (time, phase, origin,
// counter) order yields, and report the same head time and size after
// every operation.
#include <cstdint>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "sim/shard.h"

namespace scoop::sim {
namespace {

/// Deterministic splitmix64: the op stream must be a pure function of the
/// seed so queue and model replay the identical history.
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

/// Draws a delay: zero (same instant), sub-millisecond, up to ~1 s, the
/// 8..64 ms MAC-backoff band, and far-future delays up to 4 s.
SimTime DrawDelay(StreamRng& rng) {
  switch (rng.Below(5)) {
    case 0:
      return 0;
    case 1:
      return static_cast<SimTime>(rng.Below(1024));
    case 2:
      return static_cast<SimTime>(rng.Below(1u << 20));
    case 3:
      return static_cast<SimTime>(8000 + rng.Below(56000));
    default:
      return static_cast<SimTime>(rng.Below(4000000));
  }
}

/// The reference queue: (time, phase, origin, counter) -> label.
using ModelKey = std::tuple<SimTime, int, uint32_t, uint64_t>;

/// Replays one randomized schedule/cancel/reschedule history against a
/// ShardQueue and the std::set model in lockstep, checking head time and
/// size after every step and the full execution order at the end.
void ReplayAgainstModel(uint64_t seed) {
  constexpr uint32_t kOrigins = 16;
  ShardQueue q(kOrigins);
  std::set<std::pair<ModelKey, std::string>> model;
  std::vector<uint64_t> model_counters(kOrigins, 0);
  StreamRng rng(seed);
  std::vector<std::string> order;
  std::vector<std::string> model_order;
  std::vector<EventId> ids;
  std::vector<std::pair<ModelKey, std::string>> entries;  // Parallel to ids.
  int next_label = 0;

  auto drain_until = [&](SimTime t) {
    while (!q.empty() && q.HeadTime() <= t) q.RunOne();
    while (!model.empty() && std::get<0>(model.begin()->first) <= t) {
      model_order.push_back(model.begin()->second);
      model.erase(model.begin());
    }
  };
  auto cancel = [&](size_t i) {
    q.Cancel(ids[i]);
    model.erase(entries[i]);
  };
  auto schedule = [&](SimTime at) {
    int label = next_label++;
    EventId id = kInvalidEventId;
    ModelKey key;
    std::string tag;
    switch (rng.Below(4)) {
      case 0: {
        // gen = label keeps (sender, gen) unique: the engine never enqueues
        // two evals for one (sender, gen) at one instant, and a duplicate
        // would make the canonical order ill-defined.
        NodeId sender = static_cast<NodeId>(rng.Below(kOrigins));
        tag = "e" + std::to_string(label);
        id = q.ScheduleEval(at, sender, static_cast<uint32_t>(label),
                            [&order, tag] { order.push_back(tag); });
        key = {at, 0, sender, static_cast<uint64_t>(label)};
        break;
      }
      case 1: {
        NodeId sender = static_cast<NodeId>(rng.Below(kOrigins));
        tag = "f" + std::to_string(label);
        id = q.ScheduleFinish(at, sender, static_cast<uint32_t>(label),
                              [&order, tag] { order.push_back(tag); });
        key = {at, 1, sender, static_cast<uint64_t>(label)};
        break;
      }
      default: {
        uint32_t origin = static_cast<uint32_t>(rng.Below(kOrigins));
        tag = "r" + std::to_string(label);
        id = q.ScheduleRegular(at, origin, [&order, tag] { order.push_back(tag); });
        key = {at, 2, origin, model_counters[origin]++};
        break;
      }
    }
    ids.push_back(id);
    entries.emplace_back(key, tag);
    model.insert(entries.back());
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
        if (!ids.empty()) cancel(rng.Below(ids.size()));
        break;
      }
      case 4: {
        if (!ids.empty()) cancel(rng.Below(ids.size()));
        schedule(q.now() + DrawDelay(rng));
        break;
      }
      default: {
        drain_until(q.now() + static_cast<SimTime>(rng.Below(200000)));
        break;
      }
    }
    ASSERT_EQ(q.size(), model.size()) << "seed " << seed << " step " << step;
    ASSERT_EQ(q.HeadTime(),
              model.empty() ? kSimTimeHorizon : std::get<0>(model.begin()->first))
        << "seed " << seed << " step " << step;
  }
  drain_until(kSimTimeHorizon);
  EXPECT_TRUE(q.empty());
  EXPECT_GT(q.processed(), 0u) << "seed " << seed;
  EXPECT_EQ(q.processed(), model_order.size()) << "seed " << seed;
  ASSERT_EQ(order, model_order) << "seed " << seed;
}

TEST(ShardQueueModelTest, MatchesOrderedSetUnderRandomChurn) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    ReplayAgainstModel(seed);
    if (HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace scoop::sim
