// Shared by the figure/table benches: each expands its registered scenario
// (src/scenario/scenario_registry.cc), so a bench and
// `scoop_campaign --scenario=<name>` run the same grid and cannot drift
// apart.
#ifndef SCOOP_BENCH_REGISTERED_GRID_H_
#define SCOOP_BENCH_REGISTERED_GRID_H_

#include <cstdio>
#include <cstdlib>
#include <utility>
#include <vector>

#include "scenario/campaign.h"
#include "scenario/scenario_registry.h"

namespace scoop::bench {

struct RegisteredGrid {
  scenario::Scenario scenario;
  std::vector<scenario::ExpandedRun> runs;  ///< Expansion order.
};

/// Loads and expands the registered scenario `name`; prints the error and
/// exits 1 if either step fails.
inline RegisteredGrid LoadRegisteredGrid(const char* name) {
  Result<scenario::Scenario> scn = scenario::LoadRegisteredScenario(name);
  if (!scn.ok()) {
    std::fprintf(stderr, "error: %s\n", scn.status().ToString().c_str());
    std::exit(1);
  }
  Result<std::vector<scenario::ExpandedRun>> runs = scenario::ExpandScenario(scn.value());
  if (!runs.ok()) {
    std::fprintf(stderr, "error: %s\n", runs.status().ToString().c_str());
    std::exit(1);
  }
  return {std::move(scn).value(), std::move(runs).value()};
}

}  // namespace scoop::bench

#endif  // SCOOP_BENCH_REGISTERED_GRID_H_
