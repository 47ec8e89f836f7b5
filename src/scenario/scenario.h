// Declarative experiment scenarios: a named ExperimentConfig plus sweep
// axes, deserialized from ".scn" text files (see scenario_parser.h) or the
// embedded registry (scenario_registry.h). A scenario is the unit the
// campaign runner (campaign.h) expands into a work grid and shards across
// threads -- every figure, table and ablation is a text file, not a program.
#ifndef SCOOP_SCENARIO_SCENARIO_H_
#define SCOOP_SCENARIO_SCENARIO_H_

#include <string>
#include <vector>

#include "harness/experiment.h"

namespace scoop::scenario {

/// One sweep axis: a scenario key plus the textual values it takes
/// (`sweep.policy = scoop, local, base`). The campaign work grid is the
/// cross product of all axes in declaration order; the last axis varies
/// fastest, like the inner loop of nested loops.
struct SweepAxis {
  std::string key;
  std::vector<std::string> values;
};

/// A parsed scenario: metadata, the fully-resolved base configuration, and
/// the sweep axes (possibly none -- then the grid is the single base run).
struct Scenario {
  std::string name;
  std::string description;
  harness::ExperimentConfig base;
  std::vector<SweepAxis> sweeps;
};

}  // namespace scoop::scenario

#endif  // SCOOP_SCENARIO_SCENARIO_H_
