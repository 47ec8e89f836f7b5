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

using scoop::tools::MatchFlag;

/// Routes the enum-valued flags through the scenario key table, so the CLI
/// and .scn files share one name-to-enum mapping (and one rejection path
/// for unknown values).
void ApplyKeyOrUsage(harness::ExperimentConfig* config, const char* key, const char* value,
                     const char* argv0) {
  scoop::Status s = scenario::ApplyScenarioKey(config, key, value);
  if (!s.ok()) {
    std::fprintf(stderr, "%s\n", s.message().c_str());
    Usage(argv0);
  }
}

}  // namespace

int main(int argc, char** argv) {
  harness::ExperimentConfig config;
  int verbosity = 0;
  for (int i = 1; i < argc; ++i) {
    const char* value = nullptr;
    const char* arg = argv[i];
    if (MatchFlag(arg, "--policy", &value) && value != nullptr) {
      ApplyKeyOrUsage(&config, "policy", value, argv[0]);
    } else if (MatchFlag(arg, "--source", &value) && value != nullptr) {
      ApplyKeyOrUsage(&config, "source", value, argv[0]);
    } else if (MatchFlag(arg, "--nodes", &value) && value != nullptr) {
      ApplyKeyOrUsage(&config, "nodes", value, argv[0]);
    } else if (MatchFlag(arg, "--shards", &value) && value != nullptr) {
      ApplyKeyOrUsage(&config, "shards", value, argv[0]);
    } else if (MatchFlag(arg, "--partition", &value) && value != nullptr) {
      ApplyKeyOrUsage(&config, "partition", value, argv[0]);
    } else if (MatchFlag(arg, "--minutes", &value) && value != nullptr) {
      ApplyKeyOrUsage(&config, "duration_minutes", value, argv[0]);
    } else if (MatchFlag(arg, "--stabilization-minutes", &value) && value != nullptr) {
      ApplyKeyOrUsage(&config, "stabilization_minutes", value, argv[0]);
    } else if (MatchFlag(arg, "--sample-interval", &value) && value != nullptr) {
      ApplyKeyOrUsage(&config, "sample_interval_seconds", value, argv[0]);
    } else if (MatchFlag(arg, "--summary-interval", &value) && value != nullptr) {
      ApplyKeyOrUsage(&config, "summary_interval_seconds", value, argv[0]);
    } else if (MatchFlag(arg, "--remap-interval", &value) && value != nullptr) {
      ApplyKeyOrUsage(&config, "remap_interval_seconds", value, argv[0]);
    } else if (MatchFlag(arg, "--query-interval", &value) && value != nullptr) {
      ApplyKeyOrUsage(&config, "query_interval_seconds", value, argv[0]);
    } else if (MatchFlag(arg, "--query-mode", &value) && value != nullptr) {
      ApplyKeyOrUsage(&config, "query_mode", value, argv[0]);
    } else if (MatchFlag(arg, "--query-width-lo", &value) && value != nullptr) {
      ApplyKeyOrUsage(&config, "query_width_lo", value, argv[0]);
    } else if (MatchFlag(arg, "--query-width-hi", &value) && value != nullptr) {
      ApplyKeyOrUsage(&config, "query_width_hi", value, argv[0]);
    } else if (MatchFlag(arg, "--node-list-fraction", &value) && value != nullptr) {
      ApplyKeyOrUsage(&config, "node_list_fraction", value, argv[0]);
    } else if (MatchFlag(arg, "--history-window-seconds", &value) && value != nullptr) {
      ApplyKeyOrUsage(&config, "history_window_seconds", value, argv[0]);
    } else if (MatchFlag(arg, "--topology", &value) && value != nullptr) {
      ApplyKeyOrUsage(&config, "topology", value, argv[0]);
    } else if (MatchFlag(arg, "--trials", &value) && value != nullptr) {
      ApplyKeyOrUsage(&config, "trials", value, argv[0]);
    } else if (MatchFlag(arg, "--seed", &value) && value != nullptr) {
      ApplyKeyOrUsage(&config, "seed", value, argv[0]);
    } else if (MatchFlag(arg, "--batch", &value) && value != nullptr) {
      ApplyKeyOrUsage(&config, "max_batch", value, argv[0]);
    } else if (MatchFlag(arg, "--no-shortcut", &value)) {
      config.enable_neighbor_shortcut = false;
    } else if (MatchFlag(arg, "--no-descendants", &value)) {
      config.enable_descendant_routing = false;
    } else if (MatchFlag(arg, "--owner-set", &value) && value != nullptr) {
      ApplyKeyOrUsage(&config, "owner_set", value, argv[0]);
    } else if (MatchFlag(arg, "--range-granularity", &value) && value != nullptr) {
      ApplyKeyOrUsage(&config, "range_granularity", value, argv[0]);
    } else if (MatchFlag(arg, "--failure-fraction", &value) && value != nullptr) {
      ApplyKeyOrUsage(&config, "fault.crash_fraction", value, argv[0]);
    } else if (MatchFlag(arg, "--failure-minute", &value) && value != nullptr) {
      ApplyKeyOrUsage(&config, "fault.crash_minute", value, argv[0]);
    } else if (MatchFlag(arg, "--trace-out", &value) && value != nullptr) {
      ApplyKeyOrUsage(&config, "obs.trace_out", value, argv[0]);
    } else if (MatchFlag(arg, "--metrics-out", &value) && value != nullptr) {
      ApplyKeyOrUsage(&config, "obs.metrics_out", value, argv[0]);
    } else if (MatchFlag(arg, "--metrics-interval", &value) && value != nullptr) {
      ApplyKeyOrUsage(&config, "obs.metrics_interval_seconds", value, argv[0]);
    } else if (MatchFlag(arg, "--profile", &value)) {
      config.profile = true;
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
