// E9 -- §6 "Other experiments": scalability with network size (the paper
// ran topologies up to 100 nodes in simulation).
//
// Paper shape: the system scales well to 100 nodes with little effect on
// loss rates; Scoop over RANDOM is the most size-sensitive source (data
// travels ever further), other sources much less so.
//
// The grid (source x size) is the registered `tbl_scalability` scenario.
#include <cstdio>

#include "harness/experiment.h"
#include "harness/report.h"
#include "registered_grid.h"

int main() {
  using namespace scoop;
  const bench::RegisteredGrid grid = bench::LoadRegisteredGrid("tbl_scalability");

  std::printf("=== In-text (§6): scalability up to 100 nodes (Scoop) ===\n\n");

  harness::TablePrinter table({"source", "nodes", "total", "per-node", "stored",
                               "q-success"});
  for (const scenario::ExpandedRun& run : grid.runs) {
    const int size = run.config.num_nodes;
    harness::ExperimentResult r = harness::RunExperiment(run.config);
    table.AddRow({workload::DataSourceKindName(run.config.source), std::to_string(size),
                  harness::FormatCount(r.total_excl_beacons),
                  harness::FormatCount(r.total_excl_beacons / size),
                  harness::FormatPercent(r.storage_success),
                  harness::FormatPercent(r.query_success)});
  }
  table.Print();
  std::printf(
      "\nShape check: success rates stay roughly flat with size; RANDOM's\n"
      "per-node cost grows fastest because readings cross the whole network.\n");
  return 0;
}
