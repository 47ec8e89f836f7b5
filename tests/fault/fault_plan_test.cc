#include "fault/fault_plan.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "sim/topology.h"

namespace scoop::fault {
namespace {

bool IsRebootFamily(const FaultEvent& e) {
  return e.kind == FaultKind::kCrash || e.kind == FaultKind::kReboot;
}

// Crash-stop waves and crash-reboot churn draw their victims from
// independent streams, so they overlap. A crash-stopped node is off for
// good: the combined plan must keep every crash-stop, and keep exactly the
// reboot-family events that come before the node's crash-stop.
TEST(FaultPlanTest, CrashStopWinsOverLaterReboots) {
  constexpr int kNodes = 63;
  LegacyCrashWaves crash;
  crash.fraction = 0.1;
  crash.at = Minutes(10);
  FaultConfig churn;  // churn_reboot's waves.
  churn.reboot_fraction = 0.2;
  churn.reboot_time = Minutes(14);
  churn.reboot_wave_count = 3;
  churn.reboot_wave_interval = Minutes(4);
  churn.reboot_downtime = Seconds(45);

  int dropped = 0;
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    sim::RandomTopologyOptions opts;
    opts.num_nodes = kNodes;
    opts.seed = seed;
    sim::Topology topology = sim::Topology::MakeRandom(opts);
    FaultPlan crash_only = BuildFaultPlan(FaultConfig{}, crash, topology, kNodes, seed);
    FaultPlan churn_only =
        BuildFaultPlan(churn, LegacyCrashWaves{}, topology, kNodes, seed);
    FaultPlan both = BuildFaultPlan(churn, crash, topology, kNodes, seed);

    std::vector<SimTime> stopped_at(kNodes, std::numeric_limits<SimTime>::max());
    for (const FaultEvent& e : crash_only.events) {
      ASSERT_EQ(e.kind, FaultKind::kRadioDown);
      stopped_at[e.node] = std::min(stopped_at[e.node], e.at);
    }
    std::vector<FaultEvent> expected_reboots;
    for (const FaultEvent& e : churn_only.events) {
      ASSERT_TRUE(IsRebootFamily(e));
      if (e.at < stopped_at[e.node]) {
        expected_reboots.push_back(e);
      } else {
        ++dropped;
      }
    }

    std::vector<FaultEvent> stops;
    std::vector<FaultEvent> reboots;
    for (const FaultEvent& e : both.events) {
      if (IsRebootFamily(e)) {
        EXPECT_LT(e.at, stopped_at[e.node])
            << "seed " << seed << ": node " << e.node << " crash-stopped at "
            << stopped_at[e.node] << " has a reboot-family event at " << e.at;
        reboots.push_back(e);
      } else {
        stops.push_back(e);
      }
    }
    ASSERT_EQ(stops.size(), crash_only.events.size()) << "seed " << seed;
    for (size_t i = 0; i < stops.size(); ++i) {
      EXPECT_EQ(stops[i].at, crash_only.events[i].at);
      EXPECT_EQ(stops[i].node, crash_only.events[i].node);
    }
    ASSERT_EQ(reboots.size(), expected_reboots.size()) << "seed " << seed;
    for (size_t i = 0; i < reboots.size(); ++i) {
      EXPECT_EQ(reboots[i].at, expected_reboots[i].at);
      EXPECT_EQ(reboots[i].kind, expected_reboots[i].kind);
      EXPECT_EQ(reboots[i].node, expected_reboots[i].node);
    }
  }
  // The two families do overlap on these seeds, so the check is not vacuous.
  EXPECT_GT(dropped, 0);
}

}  // namespace
}  // namespace scoop::fault
