// E3 -- Figure 3 (right): Scoop over the five data sources in simulation:
// unique, equal, real, gaussian, random.
//
// Paper shape: UNIQUE best (perfect locality); EQUAL cheap and with very
// few mapping messages (the basestation suppresses unchanged indices,
// §5.3) while batching amortizes its data packets; RANDOM worst -- no
// predictability, so Scoop degenerates toward BASE/HASH behaviour.
//
// The grid (one row per source) is the registered `fig3_right` scenario.
#include <cstdio>

#include "harness/experiment.h"
#include "harness/report.h"
#include "registered_grid.h"

int main() {
  using namespace scoop;
  const bench::RegisteredGrid grid = bench::LoadRegisteredGrid("fig3_right");

  std::printf("=== Figure 3 (right): Scoop across data sources, simulation ===\n");
  std::printf("62 nodes + base, 40 min, defaults; averaged over %d trials.\n\n",
              grid.scenario.base.trials);

  harness::TablePrinter table({"source", "data", "summary", "mapping", "query+reply",
                               "total", "mappings-suppressed", "owner-hit"});
  for (const scenario::ExpandedRun& run : grid.runs) {
    harness::ExperimentResult r = harness::RunExperiment(run.config);
    table.AddRow({workload::DataSourceKindName(run.config.source),
                  harness::FormatCount(r.data()),
                  harness::FormatCount(r.summary()), harness::FormatCount(r.mapping()),
                  harness::FormatCount(r.query_reply()),
                  harness::FormatCount(r.total_excl_beacons),
                  harness::FormatCount(r.indices_suppressed),
                  harness::FormatPercent(r.owner_hit_rate)});
  }
  table.Print();
  return 0;
}
