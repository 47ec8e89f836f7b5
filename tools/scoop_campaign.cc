// scoop_campaign: the command-line runner. Runs a declarative .scn
// scenario, or the default configuration, across worker threads.
//
//   scoop_campaign --list
//   scoop_campaign --print=fig3_middle            > mine.scn
//   scoop_campaign --scenario=fig3_middle --threads=8
//   scoop_campaign --file=mine.scn --csv=out.csv --json=out.jsonl
//   scoop_campaign --nodes=63 --duration_minutes=40 --topology=testbed
//
// Any scenario key given as --KEY=VALUE overrides that key of the base
// config, through the same setter table the .scn keys use. With neither
// --scenario nor --file the base config is the default one, run as a
// one-combo scenario named "default". Expands the scenario's sweep axes
// into a (combo x seed) grid, shards it across worker threads, and prints
// the bench-style summary table (plus the profiler's bucket table when
// any trial profiled); --csv and --json additionally write
// machine-readable reports. Output is byte-identical at any thread count.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/logging.h"
#include "scenario/campaign.h"
#include "scenario/campaign_reporter.h"
#include "scenario/scenario_parser.h"
#include "scenario/scenario_registry.h"

namespace {

using namespace scoop;

/// Matches `arg` against `--name` (then *value = nullptr) or `--name=...`
/// (then *value points at the text after '='). Returns false otherwise.
bool MatchFlag(const char* arg, const char* name, const char** value) {
  size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0) return false;
  if (arg[len] == '\0') {
    *value = nullptr;
    return true;
  }
  if (arg[len] == '=') {
    *value = arg + len + 1;
    return true;
  }
  return false;
}

/// Short spellings of the observability keys. With `fixed` set the flag is
/// a switch: it applies `fixed` and ignores any `=value`.
struct KeyFlag {
  const char* flag;
  const char* key;
  const char* fixed = nullptr;
};
constexpr KeyFlag kObsFlags[] = {
    {"--trace-out", "obs.trace_out"},
    {"--metrics-out", "obs.metrics_out"},
    {"--metrics-interval", "obs.metrics_interval_seconds"},
    {"--profile", "obs.profile", "on"},
};

/// One scenario key set on the command line, applied in command-line order.
struct Override {
  std::string flag;
  std::string key;
  std::string value;
};

/// The override `arg` spells: an observability alias, or `--KEY=VALUE` for
/// any other key (checked when applied). False when `arg` is neither.
bool MatchOverride(const char* arg, Override* out) {
  for (const KeyFlag& f : kObsFlags) {
    const char* value = nullptr;
    if (!MatchFlag(arg, f.flag, &value)) continue;
    if (f.fixed != nullptr) value = f.fixed;
    if (value == nullptr) return false;
    *out = {f.flag, f.key, value};
    return true;
  }
  const char* eq = std::strchr(arg, '=');
  if (std::strncmp(arg, "--", 2) != 0 || eq == nullptr || eq == arg + 2) return false;
  *out = {std::string(arg, eq), std::string(arg + 2, eq), eq + 1};
  return true;
}

[[noreturn]] void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--scenario=NAME | --file=PATH.scn] [--KEY=VALUE ...]\n"
               "          [--KEY=VALUE]      set any .scn scenario key, e.g. --nodes=63\n"
               "                             --policy=local --shards=4 --partition=mincut\n"
               "                             (without --scenario/--file: on the defaults)\n"
               "          [--threads=N]      worker threads (0 = all hardware threads)\n"
               "          [--csv=PATH]       write per-trial + mean rows as CSV\n"
               "          [--json=PATH]      write per-combo JSON-lines\n"
               "          [--perf-json=PATH] write wall-clock/events-per-second perf report\n"
               "          [--trace-out=PATH] Chrome-trace JSON per (combo, trial)\n"
               "          [--metrics-out=PATH] metrics JSONL per (combo, trial)\n"
               "          [--metrics-interval=S] metrics sampling grid (sim seconds)\n"
               "          [--profile]        attach the wall-clock sim profiler\n"
               "          [-v | -vv]         info / debug logging to stderr\n"
               "          [--quiet]          suppress the summary tables\n"
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
  int sources = 0;  // --scenario and --file given.
  int threads = 0;
  bool quiet = false;
  int verbosity = 0;
  std::vector<Override> overrides;

  for (int i = 1; i < argc; ++i) {
    const char* value = nullptr;
    const char* arg = argv[i];
    Override key_override;
    if (MatchFlag(arg, "--list", &value)) {
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
      ++sources;
    } else if (MatchFlag(arg, "--file", &value) && value != nullptr) {
      file_path = value;
      ++sources;
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
    } else if (MatchOverride(arg, &key_override)) {
      overrides.push_back(std::move(key_override));
    } else {
      Usage(argv[0]);
    }
  }
  SetLogLevel(LogLevelForVerbosity(verbosity));
  if (sources > 1) Usage(argv[0]);

  Result<scenario::Scenario> parsed = [&]() -> Result<scenario::Scenario> {
    if (sources == 0) return scenario::Scenario{"default", "the default configuration", {}, {}};
    if (file_path.empty()) return scenario::LoadRegisteredScenario(scenario_name);
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
  for (const Override& o : overrides) {
    // A sweep axis would silently overwrite the flag in every combo.
    bool swept = std::any_of(scn.sweeps.begin(), scn.sweeps.end(),
                             [&](const scenario::SweepAxis& a) { return a.key == o.key; });
    Status s = swept ? Status::InvalidArgument("scenario " + scn.name + " sweeps " + o.key)
                     : scenario::ApplyScenarioKey(&scn.base, o.key, o.value);
    if (!s.ok()) {
      std::fprintf(stderr, "bad %s: %s\n", o.flag.c_str(), s.message().c_str());
      Usage(argv[0]);
    }
  }

  // A flag can break a cross-key rule (ValidateConfig) in the base config
  // or in one sweep combo; expanding checks both.
  if (!overrides.empty()) {
    Result<std::vector<scenario::ExpandedRun>> runs = scenario::ExpandScenario(scn);
    if (!runs.ok()) {
      std::fprintf(stderr, "bad flags: %s\n", runs.status().message().c_str());
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
    double events = 0;
    for (const scenario::CampaignRow& row : result.rows) {
      total_trials += row.trials.size();
      for (const auto& trial : row.trials) events += trial.sim_events;
    }
    std::printf("scenario %s: %s\n", result.scenario_name.c_str(),
                result.description.empty() ? "(no description)" : result.description.c_str());
    std::printf("%zu combos x trials = %zu runs on %d thread%s"
                " (%.2fs wall, %.0f events/s)\n\n",
                result.rows.size(), total_trials, result.threads_used,
                result.threads_used == 1 ? "" : "s", result.wall_seconds,
                result.wall_seconds > 0 ? events / result.wall_seconds : 0.0);
    std::fputs(scenario::CampaignTable(result).c_str(), stdout);
    std::string profile = scenario::CampaignProfileTable(result);
    if (!profile.empty()) std::printf("\n%s", profile.c_str());
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
