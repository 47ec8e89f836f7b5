// Campaign runner: expands a scenario's sweep axes into a (combo x trial)
// work grid and shards it across a std::thread pool. Work units are
// independent RunAnyTrial calls writing into pre-assigned slots and
// aggregation follows the fixed grid order, so the same grid produces
// bit-identical results -- and byte-identical CSV/JSON -- at any thread
// count.
#ifndef SCOOP_SCENARIO_CAMPAIGN_H_
#define SCOOP_SCENARIO_CAMPAIGN_H_

#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "harness/experiment.h"
#include "scenario/scenario.h"

namespace scoop::scenario {

/// One cell of the sweep cross product: the axis values that produced it
/// (in axis declaration order) and the fully-applied config.
struct ExpandedRun {
  std::vector<std::pair<std::string, std::string>> axes;  ///< (key, value) labels.
  harness::ExperimentConfig config;
};

/// Expands the cross product of `scenario.sweeps` over the base config.
/// The last declared axis varies fastest. A scenario with no sweeps
/// expands to the single base run.
Result<std::vector<ExpandedRun>> ExpandScenario(const Scenario& scenario);

struct CampaignOptions {
  /// Worker threads; <= 0 uses the hardware concurrency.
  int threads = 1;
};

/// Results for one expanded combo: the per-trial rows (trial order) and
/// their aggregate.
struct CampaignRow {
  std::vector<std::pair<std::string, std::string>> axes;
  harness::ExperimentConfig config;
  std::vector<harness::ExperimentResult> trials;
  harness::ExperimentResult mean;
};

struct CampaignResult {
  std::string scenario_name;
  std::string description;
  std::vector<std::string> axis_keys;  ///< Sweep keys, declaration order.
  std::vector<CampaignRow> rows;       ///< Expansion order.
  int threads_used = 1;
  /// Host wall-clock the whole grid took (all workers, start to join).
  /// Perf telemetry only -- never rendered into the deterministic table or
  /// CSV; CampaignPerfJson carries it instead.
  double wall_seconds = 0;
};

/// Expands and runs the whole campaign. Deterministic: per-combo trial
/// seeds are MixSeed(config.seed, trial), exactly what RunExperiment uses,
/// so a one-combo campaign reproduces RunExperiment on the same config.
Result<CampaignResult> RunCampaign(const Scenario& scenario, const CampaignOptions& options);

}  // namespace scoop::scenario

#endif  // SCOOP_SCENARIO_CAMPAIGN_H_
