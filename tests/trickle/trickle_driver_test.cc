// Tests of the TrickleDriver glue (timer <-> simulator scheduling).
#include "trickle/trickle_driver.h"

#include <gtest/gtest.h>

#include "sim/sharded_engine.h"

namespace scoop::trickle {
namespace {

/// Single isolated node; we only need its Context.
class NullApp : public sim::App {
 public:
  void OnBoot(sim::Context& ctx) override { (void)ctx; }
  void OnReceive(sim::Context& ctx, const Packet& pkt,
                 const sim::ReceiveInfo& info) override {
    (void)ctx;
    (void)pkt;
    (void)info;
  }
};

struct Fixture {
  Fixture()
      : engine(sim::Topology::FromMatrix({{0, 0}}, {{0.0}}), sim::ShardedEngineOptions{}) {
    engine.SetApp(0, std::make_unique<NullApp>());
    engine.Start();
    engine.RunUntil(Seconds(3));
  }
  sim::ShardedEngine engine;
};

// The product's mapping-gossip Trickle: tau in [2 s, 64 s], k = 1.
constexpr SimTime kTauMin = TrickleTimer::kTauMin;
constexpr SimTime kTauMax = TrickleTimer::kTauMax;

TEST(TrickleDriverTest, FiresRepeatedlyWithBackoff) {
  Fixture f;
  int fires = 0;
  TrickleDriver driver(&f.engine.context(0), [&] { ++fires; });
  driver.Start();
  f.engine.RunUntil(f.engine.DriverNow() + Minutes(4));
  // Quiet medium: one fire per interval; intervals double 2,4,...,64,64,
  // so four minutes hold 7 or 8 fires where tau_min would give ~120.
  EXPECT_GE(fires, 7);
  EXPECT_LE(fires, 8);
  EXPECT_EQ(driver.tau(), kTauMax);
}

TEST(TrickleDriverTest, ConsistentMessagesSuppressFires) {
  Fixture f;
  int fires = 0;
  TrickleDriver driver(&f.engine.context(0), [&] { ++fires; });
  driver.Start();
  // Continuously mark the interval consistent: nothing should fire.
  std::function<void()> chatter = [&] {
    driver.NoteConsistent();
    f.engine.ScheduleDriver(f.engine.DriverNow() + Millis(200), chatter);
  };
  f.engine.ScheduleDriver(f.engine.DriverNow() + Millis(100), chatter);
  f.engine.RunUntil(f.engine.DriverNow() + Seconds(30));
  EXPECT_EQ(fires, 0);
}

TEST(TrickleDriverTest, InconsistencyResetsInterval) {
  Fixture f;
  int fires = 0;
  TrickleDriver driver(&f.engine.context(0), [&] { ++fires; });
  driver.Start();
  f.engine.RunUntil(f.engine.DriverNow() + Seconds(100));  // tau has grown to max.
  ASSERT_EQ(driver.tau(), kTauMax);
  driver.NoteInconsistent();
  EXPECT_EQ(driver.tau(), kTauMin);
  int fires_before = fires;
  f.engine.RunUntil(f.engine.DriverNow() + kTauMin);
  EXPECT_GT(fires, fires_before);  // Fast re-announcement after reset.
}

TEST(TrickleDriverTest, StopCancelsPendingFire) {
  Fixture f;
  int fires = 0;
  TrickleDriver driver(&f.engine.context(0), [&] { ++fires; });
  driver.Start();
  driver.Stop();
  f.engine.RunUntil(f.engine.DriverNow() + Seconds(20));
  EXPECT_EQ(fires, 0);
  // Restartable.
  driver.Start();
  f.engine.RunUntil(f.engine.DriverNow() + Seconds(5));
  EXPECT_GT(fires, 0);
}

TEST(TrickleDriverTest, HoldAtMinKeepsFiringFast) {
  Fixture f;
  int fires = 0;
  TrickleDriver driver(&f.engine.context(0), [&] { ++fires; });
  driver.set_hold_at_min(true);
  driver.Start();
  f.engine.RunUntil(f.engine.DriverNow() + Seconds(64));
  // Held at tau_min = 2 s: about one fire per 2 s, far more than the
  // doubled-backoff case (5).
  EXPECT_GE(fires, 30);
  EXPECT_EQ(driver.tau(), kTauMin);
}

}  // namespace
}  // namespace scoop::trickle
