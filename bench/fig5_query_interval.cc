// E5 -- Figure 5: total cost for SCOOP / LOCAL / BASE as the interval
// between queries grows (query rate drops), REAL trace.
//
// Paper shape: only LOCAL is substantially affected -- its whole cost is
// query flooding + replies, so it becomes competitive as queries become
// rare. BASE is flat (no query cost); SCOOP's small query cost shrinks
// further.
//
// The grid (policy x interval) is the registered `fig5_query_interval`
// scenario.
#include <cstdio>

#include "harness/experiment.h"
#include "harness/report.h"
#include "registered_grid.h"

int main() {
  using namespace scoop;
  const bench::RegisteredGrid grid = bench::LoadRegisteredGrid("fig5_query_interval");

  std::printf("=== Figure 5: cost vs query interval (REAL, simulation) ===\n\n");

  harness::TablePrinter table({"policy", "query-interval", "total-messages"});
  for (const scenario::ExpandedRun& run : grid.runs) {
    harness::ExperimentResult r = harness::RunExperiment(run.config);
    table.AddRow({harness::PolicyName(run.config.policy),
                  harness::FormatDouble(ToSeconds(run.config.query_interval), 0) + "s",
                  harness::FormatCount(r.total_excl_beacons)});
  }
  table.Print();
  return 0;
}
