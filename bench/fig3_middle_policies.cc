// E2 -- Figure 3 (middle): simulation results of Scoop compared to LOCAL,
// HASH, and BASE over the REAL data trace. Reproduces the per-policy
// message breakdown (data / summary / mapping / query+reply).
//
// The experiment grid comes from the registered `fig3_middle` scenario, so
// this bench and `scoop_campaign --scenario=fig3_middle` cannot drift
// apart: both expand the same .scn spec.
//
// Paper shape: SCOOP pays summary+mapping overhead but slashes data and
// query/reply traffic, landing well below LOCAL and BASE; HASH ≈ BASE
// because query and data rates are comparable.
#include <cstdio>

#include "harness/experiment.h"
#include "harness/report.h"
#include "registered_grid.h"

int main() {
  using namespace scoop;
  const bench::RegisteredGrid grid = bench::LoadRegisteredGrid("fig3_middle");

  std::printf("=== Figure 3 (middle): policies over the REAL trace, simulation ===\n");
  std::printf("62 nodes + base, 40 min (10 min stabilization), sample 1/15s,\n");
  std::printf("query 1/15s over 1-5%% of the domain, averaged over %d trials.\n\n",
              grid.scenario.base.trials);

  // Run the whole grid first: the "vs scoop" ratio needs the scoop total,
  // and the scenario text controls row order, so don't assume scoop is
  // first.
  std::vector<harness::ExperimentResult> results;
  double scoop_total = 0;
  for (const scenario::ExpandedRun& run : grid.runs) {
    results.push_back(harness::RunExperiment(run.config));
    if (run.config.policy == harness::Policy::kScoop) {
      scoop_total = results.back().total_excl_beacons;
    }
  }

  harness::TablePrinter table({"policy", "data", "summary", "mapping", "query", "reply",
                               "total", "vs scoop"});
  for (size_t i = 0; i < results.size(); ++i) {
    const scenario::ExpandedRun& run = grid.runs[i];
    const harness::ExperimentResult& r = results[i];
    table.AddRow(
        {harness::PolicyName(run.config.policy), harness::FormatCount(r.data()),
         harness::FormatCount(r.summary()), harness::FormatCount(r.mapping()),
         harness::FormatCount(r.sent_by_type[static_cast<size_t>(PacketType::kQuery)]),
         harness::FormatCount(r.sent_by_type[static_cast<size_t>(PacketType::kReply)]),
         harness::FormatCount(r.total_excl_beacons),
         scoop_total > 0
             ? harness::FormatDouble(r.total_excl_beacons / scoop_total, 2) + "x"
             : "n/a"});
  }
  table.Print();
  std::printf(
      "\nHASH uses the paper's analytical model (no any-to-any routing layer);\n"
      "see bench/abl_extensions for the simulated-HASH validation.\n");
  return 0;
}
