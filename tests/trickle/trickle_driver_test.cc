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

TrickleOptions FastOptions() {
  TrickleOptions o;
  o.tau_min = Seconds(1);
  o.tau_max = Seconds(8);
  o.redundancy_k = 1;
  return o;
}

TEST(TrickleDriverTest, FiresRepeatedlyWithBackoff) {
  Fixture f;
  int fires = 0;
  TrickleDriver driver(&f.engine.context(0), FastOptions(), [&] { ++fires; });
  driver.Start();
  f.engine.RunUntil(f.engine.DriverNow() + Seconds(64));
  // Quiet medium: one fire per interval; intervals double 1,2,4,8,8,...
  EXPECT_GE(fires, 7);
  EXPECT_LE(fires, 14);
  EXPECT_EQ(driver.tau(), Seconds(8));
}

TEST(TrickleDriverTest, ConsistentMessagesSuppressFires) {
  Fixture f;
  int fires = 0;
  TrickleDriver driver(&f.engine.context(0), FastOptions(), [&] { ++fires; });
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
  TrickleDriver driver(&f.engine.context(0), FastOptions(), [&] { ++fires; });
  driver.Start();
  f.engine.RunUntil(f.engine.DriverNow() + Seconds(40));  // tau has grown to max.
  ASSERT_EQ(driver.tau(), Seconds(8));
  driver.NoteInconsistent();
  EXPECT_EQ(driver.tau(), Seconds(1));
  int fires_before = fires;
  f.engine.RunUntil(f.engine.DriverNow() + Seconds(2));
  EXPECT_GT(fires, fires_before);  // Fast re-announcement after reset.
}

TEST(TrickleDriverTest, StopCancelsPendingFire) {
  Fixture f;
  int fires = 0;
  TrickleDriver driver(&f.engine.context(0), FastOptions(), [&] { ++fires; });
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
  TrickleDriver driver(&f.engine.context(0), FastOptions(), [&] { ++fires; });
  driver.set_hold_at_min(true);
  driver.Start();
  f.engine.RunUntil(f.engine.DriverNow() + Seconds(32));
  // Held at tau_min=1s: about one fire per second, far more than the
  // doubled-backoff case (~7).
  EXPECT_GE(fires, 25);
  EXPECT_EQ(driver.tau(), Seconds(1));
}

}  // namespace
}  // namespace scoop::trickle
