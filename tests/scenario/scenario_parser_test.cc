#include "scenario/scenario_parser.h"

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "scenario/scenario_registry.h"

namespace scoop::scenario {
namespace {

using harness::ExperimentConfig;
using harness::Policy;
using harness::TopologyPreset;

Scenario MustParse(const std::string& text) {
  Result<Scenario> parsed = ParseScenario(text, "test.scn");
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  return parsed.ok() ? parsed.value() : Scenario{};
}

std::string ErrorOf(const std::string& text) {
  Result<Scenario> parsed = ParseScenario(text, "test.scn");
  EXPECT_FALSE(parsed.ok()) << "expected a parse error";
  return parsed.ok() ? "" : parsed.status().message();
}

TEST(ScenarioParserTest, MinimalScenarioKeepsDefaults) {
  Scenario s = MustParse("name = defaults\n");
  EXPECT_EQ(s.name, "defaults");
  ExperimentConfig d;
  EXPECT_EQ(s.base.policy, d.policy);
  EXPECT_EQ(s.base.num_nodes, d.num_nodes);
  EXPECT_EQ(s.base.duration, d.duration);
  EXPECT_EQ(s.base.trials, d.trials);
  EXPECT_TRUE(s.sweeps.empty());
}

TEST(ScenarioParserTest, CommentsAndWhitespaceAreIgnored) {
  Scenario s = MustParse(
      "# full-line comment\n"
      "; alternative comment\n"
      "\n"
      "  name = commented   \n"
      "nodes = 17   # trailing comment\n");
  EXPECT_EQ(s.name, "commented");
  EXPECT_EQ(s.base.num_nodes, 17);
}

// One non-default value per key the parser recognizes. RoundTripEveryKey
// checks that it names every key, so adding a knob to the table without
// coverage fails there.
const std::map<std::string, std::string>& NonDefaultValues() {
  static const std::map<std::string, std::string> values = {
      {"policy", "hash-sim"},
      {"source", "gaussian"},
      {"topology", "grid"},
      {"nodes", "17"},
      {"duration_minutes", "21.5"},
      {"stabilization_minutes", "3.25"},
      {"sample_interval_seconds", "7.5"},
      {"summary_interval_seconds", "55"},
      {"remap_interval_seconds", "130"},
      {"queries", "off"},
      {"query_interval_seconds", "12.25"},
      {"query_burst_size", "4"},
      {"query_burst_spacing_seconds", "0.5"},
      {"query_mode", "node-list"},
      {"query_width_lo", "0.02"},
      {"query_width_hi", "0.07"},
      {"node_list_fraction", "0.33"},
      {"trials", "5"},
      {"seed", "123456789"},
      {"shards", "4"},
      {"partition", "mincut"},
      {"fault.crash_fraction", "0.25"},
      {"fault.crash_minute", "12.5"},
      {"fault.crash_wave_count", "3"},
      {"fault.crash_wave_interval_minutes", "2.5"},
      {"fault.reboot_fraction", "0.15"},
      {"fault.reboot_minute", "11"},
      {"fault.reboot_wave_count", "2"},
      {"fault.reboot_wave_interval_minutes", "3.5"},
      {"fault.reboot_downtime_seconds", "45"},
      {"fault.partition_start_minute", "9"},
      {"fault.partition_end_minute", "13"},
      {"fault.base_outage_start_minute", "10"},
      {"fault.base_outage_end_minute", "15"},
      {"fault.base_backup", "3"},
      {"fault.orphan_rehoming", "on"},
      {"fault.send_retry_max", "2"},
      {"fault.query_reissue_max", "1"},
      {"max_batch", "9"},
      {"neighbor_shortcut", "off"},
      {"descendant_routing", "off"},
      {"consider_store_local", "on"},
      {"owner_set", "2"},
      {"range_granularity", "4"},
      {"gaussian_mean_skew", "3"},
      // Paths that only read back quoted: a comment-starting '#', a
      // sweep-splitting ',' and "..", a quote and surrounding space.
      {"obs.trace_out", "runs/a #1.json"},
      {"obs.metrics_out", " ../m, \"2\".jsonl"},
      {"obs.metrics_interval_seconds", "2.5"},
      {"obs.profile", "on"},
  };
  return values;
}

// Every ExperimentConfig knob must round-trip through format -> parse.
TEST(ScenarioParserTest, RoundTripEveryKey) {
  const std::map<std::string, std::string>& values = NonDefaultValues();
  for (const std::string& key : ScenarioKeyNames()) {
    ASSERT_TRUE(values.count(key)) << "no round-trip coverage for key '" << key << "'";
  }
  ASSERT_EQ(values.size(), ScenarioKeyNames().size());

  Scenario original;
  original.name = "round_trip";
  original.description = "every knob set to a non-default value";
  for (const auto& [key, value] : values) {
    Status s = ApplyScenarioKey(&original.base, key, value);
    ASSERT_TRUE(s.ok()) << key << ": " << s.ToString();
  }
  original.sweeps.push_back(SweepAxis{"policy", {"scoop", "local"}});
  original.sweeps.push_back(SweepAxis{"seed", {"1", "2", "3"}});
  const std::vector<std::string> paths = {"m #1.jsonl", "m2.jsonl", "a, b.jsonl",
                                          "../up.jsonl", "tab\tand\nnewline\\"};
  original.sweeps.push_back(SweepAxis{"obs.metrics_out", paths});

  std::string text = FormatScenario(original);
  Result<Scenario> reparsed = ParseScenario(text, "roundtrip.scn");
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  // Formatting the reparsed scenario must reproduce the text exactly --
  // i.e. every field survived the trip.
  EXPECT_EQ(FormatScenario(reparsed.value()), text);

  const ExperimentConfig& c = reparsed.value().base;
  EXPECT_EQ(c.policy, Policy::kHashSim);
  EXPECT_EQ(c.preset, TopologyPreset::kGrid);
  EXPECT_EQ(c.num_nodes, 17);
  EXPECT_EQ(c.duration, Seconds(21.5 * 60));
  EXPECT_EQ(c.sample_interval, Seconds(7.5));
  EXPECT_FALSE(c.queries_enabled);
  EXPECT_EQ(c.query_burst_size, 4);
  EXPECT_EQ(c.query_mode, ExperimentConfig::QueryMode::kNodeList);
  EXPECT_EQ(c.trials, 5);
  EXPECT_EQ(c.seed, 123456789u);
  EXPECT_EQ(c.shards, 4);
  EXPECT_EQ(c.partition, sim::PartitionKind::kMincut);
  EXPECT_EQ(c.failure_wave_count, 3);
  EXPECT_DOUBLE_EQ(c.fault.reboot_fraction, 0.15);
  EXPECT_EQ(c.fault.reboot_downtime, Seconds(45));
  EXPECT_EQ(c.fault.partition_start, Seconds(9 * 60));
  EXPECT_EQ(c.fault.base_backup, 3);
  EXPECT_TRUE(c.fault.orphan_rehoming);
  EXPECT_EQ(c.fault.send_retry_max, 2);
  EXPECT_EQ(c.fault.query_reissue_max, 1);
  EXPECT_FALSE(c.enable_neighbor_shortcut);
  EXPECT_TRUE(c.builder.consider_store_local);
  EXPECT_EQ(c.builder.owner_set_size, 2);
  EXPECT_DOUBLE_EQ(c.source_options.gaussian_mean_skew, 3.0);
  EXPECT_EQ(c.trace_out, "runs/a #1.json");
  EXPECT_EQ(c.metrics_out, " ../m, \"2\".jsonl");
  EXPECT_EQ(c.metrics_interval, Seconds(2.5));
  EXPECT_TRUE(c.profile);
  ASSERT_EQ(reparsed.value().sweeps.size(), 3u);
  EXPECT_EQ(reparsed.value().sweeps[1].values.size(), 3u);
  EXPECT_EQ(reparsed.value().sweeps[2].values, paths);
}

TEST(ScenarioParserTest, QuotedValuesKeepCommentsCommasAndEscapes) {
  Scenario s = MustParse(
      "name = \"quoted # name\"  # a real comment\n"
      "obs.trace_out = \"runs/a #1.json\"\n"
      "obs.metrics_out = \"say \\\"hi\\\" \\\\ \\n\"\n"
      "sweep.obs.trace_out = \"a, b\", c.json ,\"1..2\"\n");
  EXPECT_EQ(s.name, "quoted # name");
  EXPECT_EQ(s.base.trace_out, "runs/a #1.json");
  EXPECT_EQ(s.base.metrics_out, "say \"hi\" \\ \n");
  ASSERT_EQ(s.sweeps.size(), 1u);
  EXPECT_EQ(s.sweeps[0].values, (std::vector<std::string>{"a, b", "c.json", "1..2"}));
}

TEST(ScenarioParserTest, MalformedQuotesAreRejected) {
  EXPECT_NE(ErrorOf("name = t\nobs.trace_out = \"open\n").find("unterminated quote"),
            std::string::npos);
  EXPECT_NE(ErrorOf("name = t\nobs.trace_out = \"a\"b\n").find("after the closing quote"),
            std::string::npos);
  EXPECT_NE(ErrorOf("name = t\nobs.trace_out = a\"b\"\n").find("whole value"),
            std::string::npos);
  EXPECT_NE(ErrorOf("name = t\nsweep.obs.trace_out = a, b\"c\"\n").find("whole value"),
            std::string::npos);
  EXPECT_EQ(ErrorOf("name = t\nobs.trace_out = \"open\n").rfind("test.scn:2:17: ", 0), 0u);
}

// Applying one key's value to a default config must change exactly that
// key's formatted line. A key bound to another key's field shows up as a
// second changed line, a key bound to no field as none.
TEST(ScenarioParserTest, EveryKeyWritesItsOwnField) {
  auto lines = [](const Scenario& s) {
    std::vector<std::string> out;
    std::istringstream in(FormatScenario(s));
    for (std::string line; std::getline(in, line);) out.push_back(line);
    return out;
  };
  Scenario defaults;
  defaults.name = "own_field";
  const std::vector<std::string> before = lines(defaults);
  for (const auto& [key, value] : NonDefaultValues()) {
    Scenario s = defaults;
    Status applied = ApplyScenarioKey(&s.base, key, value);
    ASSERT_TRUE(applied.ok()) << key << ": " << applied.ToString();
    std::vector<std::string> after = lines(s);
    ASSERT_EQ(after.size(), before.size()) << key;
    std::vector<std::string> changed;
    for (size_t i = 0; i < before.size(); ++i) {
      if (after[i] != before[i]) changed.push_back(after[i]);
    }
    ASSERT_EQ(changed.size(), 1u) << key;
    EXPECT_EQ(changed[0].rfind(key + " = ", 0), 0u) << key << " changed " << changed[0];
  }
}

// Deterministic mutation fuzzing of the parser, in the manner of the
// NodeSet decoder fuzzer: bit flips, inserted characters, deleted spans and
// truncations of the registered specs. Each mutant must either be rejected
// with a diagnostic that starts with its origin, or parse to a scenario
// whose text is a fixed point of Format -> Parse -> Format. Run it under
// the asan preset to catch out-of-bounds reads.
TEST(ScenarioParserTest, ParseSurvivesSeededMutations) {
  size_t count = 0;
  const RegistryEntry* registry = RegisteredScenarios(&count);
  Rng rng(0x5C4, 0);
  auto below = [&rng](size_t n) { return static_cast<size_t>(rng.NextU64() % n); };
  // The characters the grammar gives meaning to, plus some that it does not.
  const std::string alphabet = "=#;,.\n\t -_+e0123456789abcxyz\"\\";
  constexpr int kMutants = 100000;
  int accepted = 0;
  for (int i = 0; i < kMutants; ++i) {
    std::string text = registry[below(count)].spec;
    for (size_t n = 1 + below(3); n > 0; --n) {
      switch (below(4)) {
        case 0:  // Flip one bit.
          if (!text.empty()) text[below(text.size())] ^= static_cast<char>(1 << below(8));
          break;
        case 1:  // Insert one character.
          text.insert(below(text.size() + 1), 1, alphabet[below(alphabet.size())]);
          break;
        case 2:  // Delete a short span.
          if (!text.empty()) text.erase(below(text.size()), 1 + below(8));
          break;
        default:  // Truncate.
          text.resize(below(text.size() + 1));
          break;
      }
    }
    Result<Scenario> parsed = ParseScenario(text, "mutant.scn");
    if (!parsed.ok()) {
      ASSERT_EQ(parsed.status().message().rfind("mutant.scn", 0), 0u)
          << "mutant " << i << ": " << parsed.status().ToString();
      continue;
    }
    ++accepted;
    std::string formatted = FormatScenario(parsed.value());
    Result<Scenario> reparsed = ParseScenario(formatted, "formatted.scn");
    ASSERT_TRUE(reparsed.ok()) << "mutant " << i << ": " << reparsed.status().ToString()
                               << "\n" << formatted;
    ASSERT_EQ(FormatScenario(reparsed.value()), formatted) << "mutant " << i;
  }
  // Both outcomes occur, so the pass condition is not vacuous.
  EXPECT_GT(accepted, kMutants / 20);
  EXPECT_LT(accepted, kMutants - kMutants / 20);
}

// The .scn grammar rejects empty values, so disabled observability paths
// round-trip through the "off" sentinel ("none" is accepted too).
TEST(ScenarioParserTest, ObsPathOffSentinelMeansDisabled) {
  Scenario s = MustParse("name = t\nobs.trace_out = off\nobs.metrics_out = none\n");
  EXPECT_TRUE(s.base.trace_out.empty());
  EXPECT_TRUE(s.base.metrics_out.empty());
  std::string text = FormatScenario(s);
  EXPECT_NE(text.find("obs.trace_out = off"), std::string::npos) << text;
  EXPECT_NE(text.find("obs.metrics_out = off"), std::string::npos) << text;
}

TEST(ScenarioParserTest, SweepRangesExpandInclusively) {
  Scenario s = MustParse("name = ranges\nsweep.seed = 1..4\n");
  ASSERT_EQ(s.sweeps.size(), 1u);
  EXPECT_EQ(s.sweeps[0].key, "seed");
  EXPECT_EQ(s.sweeps[0].values, (std::vector<std::string>{"1", "2", "3", "4"}));
}

TEST(ScenarioParserTest, SweepListsKeepDeclarationOrder) {
  Scenario s = MustParse("name = lists\nsweep.policy = base, scoop , local\n");
  ASSERT_EQ(s.sweeps.size(), 1u);
  EXPECT_EQ(s.sweeps[0].values, (std::vector<std::string>{"base", "scoop", "local"}));
}

// --- diagnostics ----------------------------------------------------------

TEST(ScenarioParserTest, MissingEqualsReportsLineAndColumn) {
  std::string err = ErrorOf("name = t\nnodes banana\n");
  EXPECT_NE(err.find("test.scn:2:1"), std::string::npos) << err;
  EXPECT_NE(err.find("expected 'key = value'"), std::string::npos) << err;
}

TEST(ScenarioParserTest, UnknownKeyReportsPosition) {
  std::string err = ErrorOf("name = t\n  frobnicate = 1\n");
  EXPECT_NE(err.find("test.scn:2:3"), std::string::npos) << err;
  EXPECT_NE(err.find("unknown key 'frobnicate'"), std::string::npos) << err;
}

TEST(ScenarioParserTest, UnknownSweepKeyReportsPosition) {
  std::string err = ErrorOf("name = t\nsweep.frobnicate = 1\n");
  EXPECT_NE(err.find("test.scn:2:1"), std::string::npos) << err;
  EXPECT_NE(err.find("unknown sweep key 'frobnicate'"), std::string::npos) << err;
}

TEST(ScenarioParserTest, BadValueReportsValueColumn) {
  std::string err = ErrorOf("name = t\nnodes = banana\n");
  EXPECT_NE(err.find("test.scn:2:9"), std::string::npos) << err;
  EXPECT_NE(err.find("expected an integer"), std::string::npos) << err;
}

TEST(ScenarioParserTest, OutOfRangeValueIsRejected) {
  std::string err = ErrorOf("name = t\nnodes = 1\n");
  EXPECT_NE(err.find("nodes must be in [2, 65534]"), std::string::npos) << err;
  err = ErrorOf("name = t\nnodes = 70000\n");
  EXPECT_NE(err.find("nodes must be in [2, 65534]"), std::string::npos) << err;
}

TEST(ScenarioParserTest, BadSweepValueFailsAtParseTime) {
  std::string err = ErrorOf("name = t\nsweep.nodes = 8, banana\n");
  EXPECT_NE(err.find("test.scn:2:15"), std::string::npos) << err;
  EXPECT_NE(err.find("sweep 'nodes'"), std::string::npos) << err;
}

TEST(ScenarioParserTest, BackwardsRangeIsRejected) {
  std::string err = ErrorOf("name = t\nsweep.seed = 5..1\n");
  EXPECT_NE(err.find("bad range '5..1'"), std::string::npos) << err;
}

TEST(ScenarioParserTest, DuplicateKeyIsRejected) {
  std::string err = ErrorOf("name = t\nnodes = 8\nnodes = 9\n");
  EXPECT_NE(err.find("test.scn:3:1"), std::string::npos) << err;
  EXPECT_NE(err.find("duplicate key 'nodes'"), std::string::npos) << err;
}

TEST(ScenarioParserTest, MissingValueIsRejected) {
  std::string err = ErrorOf("name = t\nnodes =\n");
  EXPECT_NE(err.find("missing value for key 'nodes'"), std::string::npos) << err;
}

TEST(ScenarioParserTest, MissingNameIsRejected) {
  std::string err = ErrorOf("nodes = 8\n");
  EXPECT_NE(err.find("missing required key 'name'"), std::string::npos) << err;
}

TEST(ScenarioParserTest, CrossFieldChecks) {
  std::string err = ErrorOf("name = t\nquery_width_lo = 0.5\nquery_width_hi = 0.1\n");
  EXPECT_NE(err.find("query_width_lo must be <= query_width_hi"), std::string::npos) << err;
}

// Configs that each key accepts on its own but that cannot run as meant:
// a sample interval past the summary interval would abort the run (a Scoop
// node's first-summary phase is drawn between the two), an empty
// measurement window would report all zeros, and a partition or base-outage
// window that ends before it starts, or an outage with no backup to
// promote, would inject nothing.
TEST(ScenarioParserTest, ConfigsThatCannotRunAsMeantAreRejected) {
  std::string err = ErrorOf(
      "name = t\nnodes = 20\nduration_minutes = 6\nstabilization_minutes = 2\n"
      "sample_interval_seconds = 111\n");
  EXPECT_NE(err.find("sample_interval_seconds must be <= summary_interval_seconds"),
            std::string::npos)
      << err;
  MustParse("name = t\nsample_interval_seconds = 110\n");

  err = ErrorOf("name = t\nstabilization_minutes = 3\nduration_minutes = 3\n");
  EXPECT_NE(err.find("stabilization_minutes must be < duration_minutes"), std::string::npos)
      << err;

  err = ErrorOf(
      "name = t\nfault.partition_start_minute = 4\nfault.partition_end_minute = 2\n");
  EXPECT_NE(err.find("fault.partition_end_minute must be > fault.partition_start_minute"),
            std::string::npos)
      << err;
  MustParse("name = t\nfault.partition_start_minute = 4\nfault.partition_end_minute = 6\n");

  err = ErrorOf(
      "name = t\nfault.base_outage_start_minute = 15\nfault.base_outage_end_minute = 15\n"
      "fault.base_backup = 1\n");
  EXPECT_NE(err.find("fault.base_outage_end_minute must be > fault.base_outage_start_minute"),
            std::string::npos)
      << err;

  err = ErrorOf(
      "name = t\nfault.base_outage_start_minute = 15\nfault.base_outage_end_minute = 20\n");
  EXPECT_NE(err.find("fault.base_backup must be set"), std::string::npos) << err;

  MustParse("name = t\n");  // The all-zero default: no outage.
  Result<Scenario> failover = LoadRegisteredScenario("base_failover");
  EXPECT_TRUE(failover.ok()) << failover.status().ToString();
}

// The fault.crash_* keys are the one spelling of the crash-stop wave
// knobs: they set the ExperimentConfig failure_* fields and format back
// under their own names, and the retired failure_* keys are rejected.
TEST(ScenarioParserTest, FaultCrashKeysReplaceLegacyFailureKeys) {
  Scenario scn = MustParse(
      "name = crash\n"
      "fault.crash_fraction = 0.3\n"
      "fault.crash_minute = 18\n"
      "fault.crash_wave_count = 4\n"
      "fault.crash_wave_interval_minutes = 2\n");
  EXPECT_DOUBLE_EQ(scn.base.node_failure_fraction, 0.3);
  EXPECT_EQ(scn.base.failure_time, Minutes(18));
  EXPECT_EQ(scn.base.failure_wave_count, 4);
  EXPECT_EQ(scn.base.failure_wave_interval, Minutes(2));
  std::string text = FormatScenario(scn);
  EXPECT_NE(text.find("fault.crash_fraction = 0.3"), std::string::npos) << text;
  EXPECT_EQ(text.find("failure_fraction"), std::string::npos) << text;
  for (const char* retired : {"failure_fraction = 0.3", "failure_minute = 18",
                              "failure_wave_count = 4", "failure_wave_interval_minutes = 2",
                              "queue = heap"}) {
    std::string err = ErrorOf(std::string("name = t\n") + retired + "\n");
    EXPECT_NE(err.find("unknown key"), std::string::npos) << retired << ": " << err;
  }
}

TEST(ScenarioParserTest, FaultKeyDiagnosticsCarryPositions) {
  std::string err = ErrorOf("name = t\nfault.frobnicate = 1\n");
  EXPECT_NE(err.find("test.scn:2:1"), std::string::npos) << err;
  EXPECT_NE(err.find("unknown key 'fault.frobnicate'"), std::string::npos) << err;

  err = ErrorOf("name = t\nfault.reboot_fraction = 0.2\nfault.reboot_fraction = 0.4\n");
  EXPECT_NE(err.find("test.scn:3:1"), std::string::npos) << err;
  EXPECT_NE(err.find("duplicate key 'fault.reboot_fraction'"), std::string::npos) << err;

  err = ErrorOf("name = t\nfault.reboot_fraction = 1.5\n");
  EXPECT_NE(err.find("test.scn:2:25"), std::string::npos) << err;
  EXPECT_NE(err.find("fault.reboot_fraction must be in [0, 1]"), std::string::npos) << err;

  err = ErrorOf("name = t\nfault.reboot_downtime_seconds = 0\n");
  EXPECT_NE(err.find("fault.reboot_downtime_seconds must be > 0"), std::string::npos) << err;
}

TEST(ScenarioParserTest, BaseBackupMustNameAnExistingNode) {
  std::string err = ErrorOf(
      "name = t\n"
      "nodes = 8\n"
      "fault.base_outage_start_minute = 10\n"
      "fault.base_outage_end_minute = 15\n"
      "fault.base_backup = 8\n");
  EXPECT_NE(err.find("fault.base_backup"), std::string::npos) << err;
  // Inactive window: the backup id is not validated (the plan ignores it).
  MustParse("name = t\nnodes = 8\nfault.base_backup = 8\n");
}

TEST(ScenarioParserTest, BadEnumValuesListAlternatives) {
  EXPECT_NE(ErrorOf("name = t\npolicy = turbo\n").find("scoop|local|base|hash|hash-sim"),
            std::string::npos);
  EXPECT_NE(ErrorOf("name = t\ntopology = moon\n").find("testbed|random|grid"),
            std::string::npos);
  EXPECT_NE(ErrorOf("name = t\nquery_mode = psychic\n").find("range|node-list"),
            std::string::npos);
}

TEST(ScenarioParserTest, OverflowingIntegersAreRejected) {
  std::string err = ErrorOf("name = t\nseed = 99999999999999999999999999\n");
  EXPECT_NE(err.find("does not fit in 64 bits"), std::string::npos) << err;
  err = ErrorOf("name = t\nsweep.seed = 1..99999999999999999999999999\n");
  EXPECT_NE(err.find("bad range"), std::string::npos) << err;
}

TEST(ScenarioParserTest, AbsurdDurationsAreRejected) {
  std::string err = ErrorOf("name = t\nduration_minutes = 1e300\n");
  EXPECT_NE(err.find("duration_minutes"), std::string::npos) << err;
  err = ErrorOf("name = t\nsample_interval_seconds = 1e300\n");
  EXPECT_NE(err.find("sample_interval_seconds"), std::string::npos) << err;
}

TEST(ScenarioParserTest, SweepRangeAtInt64MaxTerminates) {
  Scenario s =
      MustParse("name = t\nsweep.seed = 9223372036854775805..9223372036854775807\n");
  ASSERT_EQ(s.sweeps.size(), 1u);
  EXPECT_EQ(s.sweeps[0].values,
            (std::vector<std::string>{"9223372036854775805", "9223372036854775806",
                                      "9223372036854775807"}));
}

TEST(ScenarioParserTest, HugeSweepRangesAreCappedWithoutOverflow) {
  std::string err = ErrorOf("name = t\nsweep.seed = 1..1000000\n");
  EXPECT_NE(err.find("more than 100000 values"), std::string::npos) << err;
  // lo..hi spanning more than INT64_MAX must not wrap the size guard.
  err = ErrorOf(
      "name = t\nsweep.seed = -9000000000000000000..9000000000000000000\n");
  EXPECT_NE(err.find("more than 100000 values"), std::string::npos) << err;
}

TEST(ScenarioParserTest, FormatScenarioSanitizesFreeText) {
  Scenario s;
  s.name = "sanitized";
  s.description = "batching off # heavy load\nsecond line";
  std::string text = FormatScenario(s);
  Result<Scenario> reparsed = ParseScenario(text, "sanitize.scn");
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  // '#' would start a trailing comment and '\n' would end the value, so
  // the writer strips/flattens them; the rest survives.
  EXPECT_NE(reparsed.value().description.find("heavy load"), std::string::npos);
  EXPECT_NE(reparsed.value().description.find("second line"), std::string::npos);
  EXPECT_EQ(reparsed.value().description.find('#'), std::string::npos);
}

TEST(ScenarioParserTest, ValidateConfigChecksCrossFieldInvariants) {
  harness::ExperimentConfig config;
  EXPECT_TRUE(ValidateConfig(config).ok());
  config.query_width_lo = 0.5;
  config.query_width_hi = 0.1;
  EXPECT_FALSE(ValidateConfig(config).ok());
}

TEST(ScenarioParserTest, ApplyScenarioKeyRejectsUnknownKey) {
  harness::ExperimentConfig config;
  Status s = ApplyScenarioKey(&config, "frobnicate", "1");
  EXPECT_TRUE(s.IsNotFound());
}

// Knobs that no scenario set are protocol constants now; their old keys
// are unknown like any other.
TEST(ScenarioParserTest, RetiredConstantKeysAreUnknown) {
  for (const char* retired :
       {"history_window_seconds", "summary_history_window_minutes",
        "summary_history_epoch_minutes", "fault.partition_y_lo", "fault.partition_y_hi",
        "fault.send_retry_backoff_ms", "suppression_similarity", "owner_hysteresis",
        "domain_lo", "domain_hi", "equal_value", "gaussian_variance", "real_domain_hi",
        "real_shared_weight", "real_correlation_meters", "real_noise", "energy_tx_nj_per_bit",
        "energy_rx_nj_per_bit", "energy_flash_write_nj_per_bit", "energy_battery_joules",
        "fault.partition_x_lo", "fault.partition_x_hi"}) {
    std::string err = ErrorOf(std::string("name = t\n") + retired + " = 1\n");
    EXPECT_NE(err.find("unknown key"), std::string::npos) << retired << ": " << err;
  }
  EXPECT_EQ(ScenarioKeyNames().size(), 49u);
}

}  // namespace
}  // namespace scoop::scenario
