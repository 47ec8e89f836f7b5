// scoop_sim: command-line experiment runner.
//
//   scoop_sim [--policy=scoop|local|base|hash|hash-sim]
//             [--source=real|unique|equal|random|gaussian]
//             [--nodes=N] [--minutes=M] [--stabilization-minutes=M]
//             [--sample-interval=S] [--summary-interval=S] [--remap-interval=S]
//             [--query-interval=S] [--query-mode=range|node-list]
//             [--query-width-lo=F] [--query-width-hi=F]
//             [--node-list-fraction=F] [--history-window-seconds=S]
//             [--topology=testbed|random|grid] [--trials=K] [--seed=S]
//             [--shards=K] [--partition=strip|mincut]
//             [--batch=N] [--no-shortcut] [--no-descendants]
//             [--owner-set=K] [--range-granularity=G]
//             [--failure-fraction=F] [--failure-minute=M]
//             [--trace-out=PATH] [--metrics-out=PATH] [--metrics-interval=S]
//             [--profile] [-v|-vv]
//
// Prints the message breakdown and success metrics for the configured run.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/logging.h"
#include "harness/experiment.h"
#include "harness/report.h"
#include "scenario/scenario_parser.h"

#include "cli_flags.h"

namespace {

using namespace scoop;

[[noreturn]] void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--policy=scoop|local|base|hash|hash-sim]\n"
               "          [--source=real|unique|equal|random|gaussian]\n"
               "          [--nodes=N] [--minutes=M] [--stabilization-minutes=M]\n"
               "          [--sample-interval=S] [--summary-interval=S] [--remap-interval=S]\n"
               "          [--query-interval=S] [--query-mode=range|node-list]\n"
               "          [--query-width-lo=F] [--query-width-hi=F]\n"
               "          [--node-list-fraction=F] [--history-window-seconds=S]\n"
               "          [--topology=testbed|random|grid] [--trials=K] [--seed=S]\n"
               "          [--shards=K]  1 = one shard inline, >=2 = K shards on K\n"
               "                        threads, 0 = one shard per core (results\n"
               "                        are identical for every K)\n"
               "          [--partition=strip|mincut]  shard partitioner (default strip;\n"
               "                        results are identical, mincut stalls less)\n"
               "          [--batch=N] [--no-shortcut] [--no-descendants]\n"
               "          [--owner-set=K] [--range-granularity=G]\n"
               "          [--failure-fraction=F] [--failure-minute=M]\n"
               "          [--trace-out=PATH]    write a Chrome-trace JSON per trial\n"
               "          [--metrics-out=PATH]  write sampled metrics JSONL per trial\n"
               "          [--metrics-interval=S] metrics sampling grid (sim seconds)\n"
               "          [--profile]           attach the wall-clock sim profiler\n"
               "          [-v | -vv]            info / debug logging to stderr\n",
               argv0);
  std::exit(2);
}

using scoop::tools::KeyFlag;
using scoop::tools::MatchKeyFlag;

/// Every flag sets one scenario key, so the CLI and .scn files share one
/// name-to-enum mapping and one rejection path for bad values.
constexpr KeyFlag kFlags[] = {
    {"--policy", "policy"},
    {"--source", "source"},
    {"--nodes", "nodes"},
    {"--shards", "shards"},
    {"--partition", "partition"},
    {"--minutes", "duration_minutes"},
    {"--stabilization-minutes", "stabilization_minutes"},
    {"--sample-interval", "sample_interval_seconds"},
    {"--summary-interval", "summary_interval_seconds"},
    {"--remap-interval", "remap_interval_seconds"},
    {"--query-interval", "query_interval_seconds"},
    {"--query-mode", "query_mode"},
    {"--query-width-lo", "query_width_lo"},
    {"--query-width-hi", "query_width_hi"},
    {"--node-list-fraction", "node_list_fraction"},
    {"--history-window-seconds", "history_window_seconds"},
    {"--topology", "topology"},
    {"--trials", "trials"},
    {"--seed", "seed"},
    {"--batch", "max_batch"},
    {"--no-shortcut", "neighbor_shortcut", "off"},
    {"--no-descendants", "descendant_routing", "off"},
    {"--owner-set", "owner_set"},
    {"--range-granularity", "range_granularity"},
    {"--failure-fraction", "fault.crash_fraction"},
    {"--failure-minute", "fault.crash_minute"},
    {"--trace-out", "obs.trace_out"},
    {"--metrics-out", "obs.metrics_out"},
    {"--metrics-interval", "obs.metrics_interval_seconds"},
    {"--profile", "obs.profile", "on"},
};

}  // namespace

int main(int argc, char** argv) {
  harness::ExperimentConfig config;
  int verbosity = 0;
  for (int i = 1; i < argc; ++i) {
    const char* value = nullptr;
    const char* arg = argv[i];
    if (const KeyFlag* flag = MatchKeyFlag(arg, kFlags, &value)) {
      scoop::Status s = scenario::ApplyScenarioKey(&config, flag->key, value);
      if (!s.ok()) {
        std::fprintf(stderr, "%s\n", s.message().c_str());
        Usage(argv[0]);
      }
    } else if (std::strcmp(arg, "-v") == 0) {
      verbosity = 1;
    } else if (std::strcmp(arg, "-vv") == 0) {
      verbosity = 2;
    } else {
      Usage(argv[0]);
    }
  }
  SetLogLevel(LogLevelForVerbosity(verbosity));

  harness::ExperimentResult r = harness::RunExperiment(config);

  std::printf("policy=%s source=%s nodes=%d minutes=%.0f trials=%d seed=%llu\n\n",
              harness::PolicyName(config.policy),
              workload::DataSourceKindName(config.source), config.num_nodes,
              ToSeconds(config.duration) / 60, config.trials,
              static_cast<unsigned long long>(config.seed));

  harness::TablePrinter messages({"data", "summary", "mapping", "query", "reply",
                                  "total(excl beacons)", "retx"});
  messages.AddRow(
      {harness::FormatCount(r.data()), harness::FormatCount(r.summary()),
       harness::FormatCount(r.mapping()),
       harness::FormatCount(r.sent_by_type[static_cast<size_t>(PacketType::kQuery)]),
       harness::FormatCount(r.sent_by_type[static_cast<size_t>(PacketType::kReply)]),
       harness::FormatCount(r.total_excl_beacons),
       harness::FormatCount(r.retransmissions)});
  messages.Print();

  std::printf("\n");
  harness::TablePrinter health({"stored", "owner-hit", "q-success", "summaries@base",
                                "%nodes-queried", "indices(diss/supp)"});
  health.AddRow({harness::FormatPercent(r.storage_success),
                 harness::FormatPercent(r.owner_hit_rate),
                 harness::FormatPercent(r.query_success),
                 harness::FormatPercent(r.summary_delivery),
                 harness::FormatPercent(r.avg_pct_nodes_queried),
                 harness::FormatCount(r.indices_disseminated) + "/" +
                     harness::FormatCount(r.indices_suppressed)});
  health.Print();

  if (config.profile) {
    std::printf("\n");
    harness::TablePrinter prof({"bucket", "wall-seconds"});
    const struct {
      const char* name;
      double seconds;
    } buckets[] = {
        {"queue", r.profile_queue_seconds},       {"radio", r.profile_radio_seconds},
        {"agent", r.profile_agent_seconds},       {"shard-sync", r.profile_shard_sync_seconds},
        {"other", r.profile_other_seconds},
    };
    char cell[32];
    for (const auto& b : buckets) {
      std::snprintf(cell, sizeof(cell), "%.3f", b.seconds);
      prof.AddRow({b.name, cell});
    }
    prof.Print();
  }
  return 0;
}
