// E4 -- Figure 4: total cost as a function of the percentage of nodes
// queried, for SCOOP / LOCAL / BASE over the REAL trace.
//
// The x-axis is driven by node-list queries (§5.5: "a user can query
// values from one or more specific nodes"), which directly control how
// many nodes each query contacts without perturbing the value statistics.
//
// Paper shape: LOCAL is flat and high (it always floods all nodes); BASE
// is flat (queries are free); SCOOP grows with selectivity, beating both
// until roughly 60% of the nodes are queried, after which it becomes
// slightly more expensive than BASE.
//
// The grid (policy x fraction) is the registered `fig4_selectivity`
// scenario.
#include <cstdio>

#include "harness/experiment.h"
#include "harness/report.h"
#include "registered_grid.h"

int main() {
  using namespace scoop;
  const bench::RegisteredGrid grid = bench::LoadRegisteredGrid("fig4_selectivity");

  std::printf("=== Figure 4: cost vs %% of nodes queried (REAL, simulation) ===\n\n");

  harness::TablePrinter table({"policy", "%nodes-queried", "total-messages"});
  for (const scenario::ExpandedRun& run : grid.runs) {
    harness::ExperimentResult r = harness::RunExperiment(run.config);
    table.AddRow({harness::PolicyName(run.config.policy),
                  harness::FormatPercent(run.config.node_list_fraction, 0),
                  harness::FormatCount(r.total_excl_beacons)});
  }
  table.Print();
  std::printf(
      "\nLOCAL floods every query regardless of the list; BASE answers from\n"
      "its own store for free. SCOOP's cost rises with the number of nodes\n"
      "asked and crosses BASE in the upper selectivity range.\n");
  return 0;
}
