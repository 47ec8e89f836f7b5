// scoop_campaign: multi-threaded campaign runner over declarative .scn
// scenarios.
//
//   scoop_campaign --list
//   scoop_campaign --print=fig3_middle            > mine.scn
//   scoop_campaign --scenario=fig3_middle --threads=8
//   scoop_campaign --file=mine.scn --csv=out.csv --json=out.jsonl
//
// Expands the scenario's sweep axes into a (combo x seed) grid, shards it
// across worker threads, and prints the bench-style summary table; --csv
// and --json additionally write machine-readable reports. Output is
// byte-identical at any thread count.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "scenario/campaign.h"
#include "scenario/campaign_reporter.h"
#include "scenario/scenario_parser.h"
#include "scenario/scenario_registry.h"

#include "cli_flags.h"

namespace {

using namespace scoop;
using scoop::tools::KeyFlag;
using scoop::tools::MatchFlag;
using scoop::tools::MatchKeyFlag;

/// Flags that override one key of the scenario's base config.
constexpr KeyFlag kOverrideFlags[] = {
    {"--shards", "shards"},
    {"--partition", "partition"},
    {"--trace-out", "obs.trace_out"},
    {"--metrics-out", "obs.metrics_out"},
    {"--metrics-interval", "obs.metrics_interval_seconds"},
    {"--profile", "obs.profile", "on"},
};

[[noreturn]] void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s (--scenario=NAME | --file=PATH.scn)\n"
               "          [--threads=N]      worker threads (0 = all hardware threads)\n"
               "          [--shards=K]       override the scenario's engine sharding\n"
               "                             (1 = one shard inline, >=2 = K threads, 0 = auto;\n"
               "                             results identical for every K)\n"
               "          [--partition=strip|mincut] override the shard partitioner\n"
               "                             (results identical; mincut cuts sync stalls)\n"
               "          [--csv=PATH]       write per-trial + mean rows as CSV\n"
               "          [--json=PATH]      write per-combo JSON-lines\n"
               "          [--perf-json=PATH] write wall-clock/events-per-second perf report\n"
               "          [--trace-out=PATH] Chrome-trace JSON per (combo, trial)\n"
               "          [--metrics-out=PATH] metrics JSONL per (combo, trial)\n"
               "          [--metrics-interval=S] metrics sampling grid (sim seconds)\n"
               "          [--profile]        attach the wall-clock sim profiler\n"
               "          [-v | -vv]         info / debug logging to stderr\n"
               "          [--quiet]          suppress the summary table\n"
               "       %s --list             list registered scenarios\n"
               "       %s --print=NAME      dump a registered scenario's .scn text\n",
               argv0, argv0, argv0);
  std::exit(2);
}

int ListScenarios() {
  size_t count = 0;
  const scenario::RegistryEntry* entries = scenario::RegisteredScenarios(&count);
  for (size_t i = 0; i < count; ++i) {
    Result<scenario::Scenario> parsed = scenario::LoadRegisteredScenario(entries[i].name);
    std::printf("%-22s %s\n", entries[i].name,
                parsed.ok() ? parsed.value().description.c_str() : "<parse error>");
  }
  return 0;
}

bool WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  out << content;
  out.flush();
  if (!out) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string scenario_name;
  std::string file_path;
  std::string csv_path;
  std::string json_path;
  std::string perf_json_path;
  int threads = 0;
  bool quiet = false;
  int verbosity = 0;
  // Applied to the scenario's base config after parsing, in command-line
  // order, through the same table the .scn keys use.
  std::vector<std::pair<const KeyFlag*, std::string>> overrides;

  for (int i = 1; i < argc; ++i) {
    const char* value = nullptr;
    const char* arg = argv[i];
    if (const KeyFlag* flag = MatchKeyFlag(arg, kOverrideFlags, &value)) {
      overrides.emplace_back(flag, value);
    } else if (MatchFlag(arg, "--list", &value)) {
      return ListScenarios();
    } else if (MatchFlag(arg, "--print", &value) && value != nullptr) {
      const char* spec = scenario::FindRegisteredSpec(value);
      if (spec == nullptr) {
        std::fprintf(stderr, "error: no registered scenario named '%s' (try --list)\n", value);
        return 1;
      }
      std::fputs(spec + (spec[0] == '\n' ? 1 : 0), stdout);
      return 0;
    } else if (MatchFlag(arg, "--scenario", &value) && value != nullptr) {
      scenario_name = value;
    } else if (MatchFlag(arg, "--file", &value) && value != nullptr) {
      file_path = value;
    } else if (MatchFlag(arg, "--threads", &value) && value != nullptr) {
      char* end = nullptr;
      long parsed = std::strtol(value, &end, 10);
      if (*value == '\0' || *end != '\0' || parsed < 0 || parsed > 4096) {
        std::fprintf(stderr, "bad --threads value '%s' (expected 0..4096)\n", value);
        Usage(argv[0]);
      }
      threads = static_cast<int>(parsed);
    } else if (MatchFlag(arg, "--csv", &value) && value != nullptr) {
      csv_path = value;
    } else if (MatchFlag(arg, "--json", &value) && value != nullptr) {
      json_path = value;
    } else if (MatchFlag(arg, "--perf-json", &value) && value != nullptr) {
      perf_json_path = value;
    } else if (std::strcmp(arg, "-v") == 0) {
      verbosity = 1;
    } else if (std::strcmp(arg, "-vv") == 0) {
      verbosity = 2;
    } else if (MatchFlag(arg, "--quiet", &value)) {
      quiet = true;
    } else {
      Usage(argv[0]);
    }
  }
  SetLogLevel(LogLevelForVerbosity(verbosity));
  if (scenario_name.empty() == file_path.empty()) Usage(argv[0]);  // Exactly one source.

  Result<scenario::Scenario> parsed = [&]() -> Result<scenario::Scenario> {
    if (!scenario_name.empty()) return scenario::LoadRegisteredScenario(scenario_name);
    std::ifstream in(file_path, std::ios::binary);
    if (!in) return Status::NotFound("cannot open " + file_path);
    std::ostringstream buf;
    buf << in.rdbuf();
    return scenario::ParseScenario(buf.str(), file_path);
  }();
  if (!parsed.ok()) {
    std::fprintf(stderr, "error: %s\n", parsed.status().ToString().c_str());
    return 1;
  }
  scenario::Scenario scn = std::move(parsed).value();
  for (const auto& [flag, value] : overrides) {
    Status s = scenario::ApplyScenarioKey(&scn.base, flag->key, value);
    if (!s.ok()) {
      std::fprintf(stderr, "bad %s value: %s\n", flag->flag, s.message().c_str());
      Usage(argv[0]);
    }
  }

  scenario::CampaignOptions options;
  options.threads = threads;
  Result<scenario::CampaignResult> campaign = scenario::RunCampaign(scn, options);
  if (!campaign.ok()) {
    std::fprintf(stderr, "error: %s\n", campaign.status().ToString().c_str());
    return 1;
  }
  const scenario::CampaignResult& result = campaign.value();

  if (!quiet) {
    size_t total_trials = 0;
    for (const scenario::CampaignRow& row : result.rows) total_trials += row.trials.size();
    std::printf("scenario %s: %s\n", result.scenario_name.c_str(),
                result.description.empty() ? "(no description)" : result.description.c_str());
    double events = 0;
    for (const scenario::CampaignRow& row : result.rows) {
      for (const auto& trial : row.trials) events += trial.sim_events;
    }
    std::printf("%zu combos x trials = %zu runs on %d thread%s"
                " (%.2fs wall, %.0f events/s)\n\n",
                result.rows.size(), total_trials, result.threads_used,
                result.threads_used == 1 ? "" : "s", result.wall_seconds,
                result.wall_seconds > 0 ? events / result.wall_seconds : 0.0);
    std::fputs(scenario::CampaignTable(result).c_str(), stdout);
  }
  if (!csv_path.empty() && !WriteFile(csv_path, scenario::CampaignCsv(result))) return 1;
  if (!json_path.empty() && !WriteFile(json_path, scenario::CampaignJsonLines(result))) {
    return 1;
  }
  if (!perf_json_path.empty() &&
      !WriteFile(perf_json_path, scenario::CampaignPerfJson(result))) {
    return 1;
  }
  return 0;
}
