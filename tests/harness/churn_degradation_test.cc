// Acceptance gate for graceful degradation (ISSUE 8): the churn_reboot
// scenario's query success must dip when a reboot wave hits and recover to
// >= 90% of its pre-fault level within two remap intervals of the last
// wave, with zero silently dropped readings -- every reading is stored,
// orphaned-then-rehomed, or visibly counted as lost (and the lost count
// must be zero here).
#include <gtest/gtest.h>

#include "common/rng.h"
#include "harness/experiment.h"
#include "scenario/scenario_registry.h"

namespace scoop::harness {
namespace {

/// Sum-of-responders / sum-of-targets over queries that closed inside
/// [lo, hi) seconds of simulated time.
double WindowSuccess(const ExperimentResult& r, double lo, double hi) {
  double targets = 0;
  double responders = 0;
  for (const ExperimentResult::QueryTimelinePoint& q : r.query_timeline) {
    if (q.t_seconds < lo || q.t_seconds >= hi) continue;
    targets += q.targets;
    responders += q.responders;
  }
  return targets > 0 ? responders / targets : 0.0;
}

TEST(ChurnDegradationTest, QuerySuccessDipsAndRecovers) {
  Result<scenario::Scenario> parsed = scenario::LoadRegisteredScenario("churn_reboot");
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  ExperimentConfig config = parsed.value().base;
  config.seed = 1;  // First seed of the scenario's sweep.
  ExperimentResult r = RunTrial(config, MixSeed(config.seed, 0));
  ASSERT_FALSE(r.query_timeline.empty());

  // Scenario shape (scenario_registry.cc): stabilization 5 min, reboot
  // waves at minutes 14/18/22, remap interval 120 s, run ends at 30 min.
  const double wave_minutes[] = {14, 18, 22};
  const double remap_s = 120;

  // Pre-fault baseline: stabilized steady state up to the first wave.
  double pre = WindowSuccess(r, 5 * 60, 14 * 60);
  EXPECT_GT(pre, 0.5) << "pre-fault query success implausibly low";

  // Each wave knocks 20% of the sensors out for 45 s; queries closing
  // right after the wave hits see the dip.
  double worst_dip = 1.0;
  for (double w : wave_minutes) {
    double dip = WindowSuccess(r, w * 60, w * 60 + remap_s);
    worst_dip = std::min(worst_dip, dip);
  }
  EXPECT_LT(worst_dip, pre) << "no visible dip after any reboot wave";

  // Recovery: within two remap intervals of the last wave, success is back
  // to >= 90% of the pre-fault level (ISSUE 8 acceptance threshold).
  double recovered = WindowSuccess(r, 22 * 60 + 2 * remap_s, 30 * 60);
  EXPECT_GE(recovered, 0.9 * pre)
      << "recovered=" << recovered << " pre=" << pre << " worst_dip=" << worst_dip;

  // No silent loss: every undeliverable reading was parked (orphaned) and
  // either re-homed after a remap or is still parked -- the difference
  // orphaned - rehomed is exactly the end-of-run parked residue, and the
  // explicit lost counter stays zero.
  EXPECT_EQ(r.readings_lost, 0);
  EXPECT_GT(r.readings_orphaned, 0);
  EXPECT_GT(r.readings_rehomed, 0);
  EXPECT_GE(r.readings_orphaned, r.readings_rehomed);

  // The other two degradation mechanisms fired too.
  EXPECT_GT(r.send_retries, 0);
  EXPECT_GT(r.queries_reissued, 0);
}

// A powered-off node produces no readings, whatever its storage policy:
// the reboot waves must cost every policy some readings against the same
// seed without faults.
TEST(ChurnDegradationTest, CrashedNodesProduceNoReadingsUnderAnyPolicy) {
  Result<scenario::Scenario> parsed = scenario::LoadRegisteredScenario("churn_reboot");
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  for (Policy policy : {Policy::kScoop, Policy::kLocal, Policy::kBase, Policy::kHashSim}) {
    SCOPED_TRACE(PolicyName(policy));
    ExperimentConfig config = parsed.value().base;
    config.seed = 1;
    config.policy = policy;
    ExperimentResult churned = RunTrial(config, MixSeed(config.seed, 0));
    config.fault.reboot_fraction = 0;
    ExperimentResult fault_free = RunTrial(config, MixSeed(config.seed, 0));
    EXPECT_GT(fault_free.readings_produced, 0);
    EXPECT_LT(churned.readings_produced, fault_free.readings_produced);
  }
}

}  // namespace
}  // namespace scoop::harness
