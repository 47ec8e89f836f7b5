#include "trickle/trickle_timer.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace scoop::trickle {
namespace {

// The product's mapping-gossip Trickle: tau in [2 s, 64 s], k = 1.
constexpr SimTime kTauMin = TrickleTimer::kTauMin;
constexpr SimTime kTauMax = TrickleTimer::kTauMax;

/// Walks `intervals` whole quiet intervals (fire point + interval end);
/// returns the next event time.
SimTime RunIntervals(TrickleTimer* t, SimTime next, int intervals) {
  for (int i = 0; i < intervals; ++i) {
    auto fire_action = t->OnEvent(next);                   // Fire point.
    auto end_action = t->OnEvent(fire_action.next_event);  // Interval end.
    next = end_action.next_event;
  }
  return next;
}

TEST(TrickleTimerTest, FirstFireWithinFirstInterval) {
  Rng rng(1);
  TrickleTimer t(&rng);
  SimTime fire = t.Start(0);
  // Fire point lies in [tau/2, tau).
  EXPECT_GE(fire, kTauMin / 2);
  EXPECT_LT(fire, kTauMin);
}

TEST(TrickleTimerTest, BroadcastsWhenQuiet) {
  Rng rng(2);
  TrickleTimer t(&rng);
  SimTime fire = t.Start(0);
  auto action = t.OnEvent(fire);
  EXPECT_TRUE(action.should_broadcast);
  EXPECT_EQ(action.next_event, kTauMin);  // Interval end.
}

TEST(TrickleTimerTest, SuppressedWhenEnoughConsistentHeard) {
  Rng rng(3);
  TrickleTimer t(&rng);
  SimTime fire = t.Start(0);
  for (int i = 0; i < TrickleTimer::kRedundancyK; ++i) t.OnConsistent();
  auto action = t.OnEvent(fire);
  EXPECT_FALSE(action.should_broadcast);
}

TEST(TrickleTimerTest, IntervalDoublesUpToMax) {
  Rng rng(5);
  TrickleTimer t(&rng);
  SimTime next = t.Start(0);
  EXPECT_EQ(t.tau(), kTauMin);
  next = RunIntervals(&t, next, 1);
  EXPECT_EQ(t.tau(), 2 * kTauMin);
  // 2 s doubles to 64 s in five intervals; a sixth stays capped.
  RunIntervals(&t, next, 5);
  EXPECT_EQ(t.tau(), kTauMax);
}

TEST(TrickleTimerTest, ConsistentCountResetsEachInterval) {
  Rng rng(6);
  TrickleTimer t(&rng);
  SimTime fire = t.Start(0);
  t.OnConsistent();
  t.OnConsistent();
  auto a1 = t.OnEvent(fire);
  EXPECT_FALSE(a1.should_broadcast);
  auto a2 = t.OnEvent(a1.next_event);  // New interval begins.
  EXPECT_EQ(t.heard_consistent(), 0);
  auto a3 = t.OnEvent(a2.next_event);  // Fire point of new interval.
  EXPECT_TRUE(a3.should_broadcast);
}

TEST(TrickleTimerTest, InconsistencyResetsTau) {
  Rng rng(7);
  TrickleTimer t(&rng);
  RunIntervals(&t, t.Start(0), 4);
  EXPECT_GT(t.tau(), kTauMin);
  std::optional<SimTime> new_fire = t.OnInconsistent(Seconds(100));
  ASSERT_TRUE(new_fire.has_value());
  EXPECT_EQ(t.tau(), kTauMin);
  EXPECT_GE(*new_fire, Seconds(100) + kTauMin / 2);
  EXPECT_LT(*new_fire, Seconds(100) + kTauMin);
}

TEST(TrickleTimerTest, InconsistencyAtTauMinKeepsCurrentInterval) {
  // Per the Trickle rules a node already at tau_min does not restart its
  // interval -- otherwise a gossip storm would push the fire point forever.
  Rng rng(9);
  TrickleTimer t(&rng);
  t.Start(0);
  std::optional<SimTime> reset = t.OnInconsistent(Millis(100));
  EXPECT_FALSE(reset.has_value());
  EXPECT_EQ(t.tau(), kTauMin);
}

TEST(TrickleTimerTest, SteadyStateTrafficDecays) {
  // Over a long quiet period, the number of potential broadcasts is
  // logarithmic in time, not linear: over 8 x tau_max (512 s) at steady
  // state there are ~12 fires; with tau stuck at 2 s there'd be ~256.
  Rng rng(8);
  TrickleTimer t(&rng);
  SimTime next = t.Start(0);
  int fires = 0;
  while (next < 8 * kTauMax) {
    auto action = t.OnEvent(next);
    if (action.should_broadcast) ++fires;
    next = action.next_event;
  }
  EXPECT_LE(fires, 13);
  EXPECT_GE(fires, 11);
}

}  // namespace
}  // namespace scoop::trickle
