#include "scenario/scenario_registry.h"

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/types.h"
#include "scenario/campaign.h"
#include "scenario/scenario_parser.h"

namespace scoop::scenario {
namespace {

TEST(ScenarioRegistryTest, EveryRegisteredScenarioParsesAndExpands) {
  size_t count = 0;
  const RegistryEntry* entries = RegisteredScenarios(&count);
  ASSERT_GE(count, 11u);
  std::set<std::string> names;
  for (size_t i = 0; i < count; ++i) {
    SCOPED_TRACE(entries[i].name);
    names.insert(entries[i].name);
    Result<Scenario> parsed = LoadRegisteredScenario(entries[i].name);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_EQ(parsed.value().name, entries[i].name)
        << "registry key must match the spec's name";
    EXPECT_FALSE(parsed.value().description.empty());
    Result<std::vector<ExpandedRun>> runs = ExpandScenario(parsed.value());
    ASSERT_TRUE(runs.ok()) << runs.status().ToString();
    EXPECT_GE(runs.value().size(), 1u);
    for (const ExpandedRun& run : runs.value()) {
      EXPECT_GE(run.config.num_nodes, 2);
      EXPECT_LE(run.config.num_nodes, kMaxSupportedNodes);
      EXPECT_GE(run.config.trials, 1);
    }
  }
  EXPECT_EQ(names.size(), count) << "registry names must be unique";
}

TEST(ScenarioRegistryTest, Fig3MiddleRunsThePaperDefaults) {
  Result<Scenario> parsed = LoadRegisteredScenario("fig3_middle");
  ASSERT_TRUE(parsed.ok());
  const Scenario& s = parsed.value();
  EXPECT_EQ(s.base.source, workload::DataSourceKind::kReal);
  EXPECT_EQ(s.base.preset, harness::TopologyPreset::kRandom);
  // Everything else stays at the paper's §6 defaults.
  harness::ExperimentConfig d;
  EXPECT_EQ(s.base.num_nodes, d.num_nodes);
  EXPECT_EQ(s.base.duration, d.duration);
  EXPECT_EQ(s.base.trials, d.trials);
  EXPECT_EQ(s.base.seed, d.seed);
  ASSERT_EQ(s.sweeps.size(), 1u);
  EXPECT_EQ(s.sweeps[0].key, "policy");
  EXPECT_EQ(s.sweeps[0].values,
            (std::vector<std::string>{"scoop", "local", "hash", "base"}));
}

TEST(ScenarioRegistryTest, SmokeTinyIsActuallyTiny) {
  Result<Scenario> parsed = LoadRegisteredScenario("smoke_tiny");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().base.num_nodes, 2);
  EXPECT_LE(parsed.value().base.duration, Minutes(2));
}

TEST(ScenarioRegistryTest, ExtensionScenariosUseTheirKnobs) {
  Result<Scenario> grid = LoadRegisteredScenario("grid_dense");
  ASSERT_TRUE(grid.ok());
  EXPECT_EQ(grid.value().base.preset, harness::TopologyPreset::kGrid);
  EXPECT_EQ(grid.value().base.num_nodes, 121);

  Result<Scenario> bursty = LoadRegisteredScenario("bursty_queries");
  ASSERT_TRUE(bursty.ok());
  EXPECT_GT(bursty.value().base.query_burst_size, 1);

  Result<Scenario> waves = LoadRegisteredScenario("failure_waves");
  ASSERT_TRUE(waves.ok());
  EXPECT_GT(waves.value().base.failure_wave_count, 1);
  EXPECT_GT(waves.value().base.node_failure_fraction, 0.0);

  Result<Scenario> skew = LoadRegisteredScenario("gaussian_skew");
  ASSERT_TRUE(skew.ok());
  EXPECT_EQ(skew.value().base.source, workload::DataSourceKind::kGaussian);

  // The §6 tables and the ablations: each sweeps these keys, in this order.
  const std::vector<std::pair<const char*, std::vector<std::string>>> sweeps = {
      {"tbl_loss_rates", {"topology"}},
      {"tbl_energy_lifetime", {"query_interval_seconds", "policy"}},
      {"tbl_sample_interval", {"source", "sample_interval_seconds"}},
      {"abl_failures", {"fault.crash_fraction"}},
      {"abl_routing_features", {"max_batch", "neighbor_shortcut", "descendant_routing"}},
      {"abl_extensions", {"owner_set", "range_granularity", "consider_store_local"}},
      {"abl_hash_model", {"policy"}},
  };
  for (const auto& [name, keys] : sweeps) {
    SCOPED_TRACE(name);
    Result<Scenario> scn = LoadRegisteredScenario(name);
    ASSERT_TRUE(scn.ok()) << scn.status().ToString();
    std::vector<std::string> swept;
    for (const SweepAxis& axis : scn.value().sweeps) swept.push_back(axis.key);
    EXPECT_EQ(swept, keys);
  }
  Result<Scenario> failures = LoadRegisteredScenario("abl_failures");
  ASSERT_TRUE(failures.ok());
  EXPECT_EQ(failures.value().base.failure_time, Minutes(20));
}

/// The axis values of every cell `name` expands to, joined with '/'.
std::set<std::string> CellLabels(const char* name) {
  Result<Scenario> scn = LoadRegisteredScenario(name);
  EXPECT_TRUE(scn.ok()) << scn.status().ToString();
  if (!scn.ok()) return {};
  Result<std::vector<ExpandedRun>> runs = ExpandScenario(scn.value());
  EXPECT_TRUE(runs.ok()) << runs.status().ToString();
  if (!runs.ok()) return {};
  std::set<std::string> labels;
  for (const ExpandedRun& run : runs.value()) {
    std::string label;
    for (const auto& [key, value] : run.axes) {
      if (!label.empty()) label += '/';
      label += value;
    }
    labels.insert(label);
  }
  return labels;
}

// The ablation grids hold every variant the paper discusses: batching
// (1, the paper's 5, and 10) with each §5.4 routing rule off in turn, and
// owner sets k = 2, 3, range blocks of 5 and 10, and the store-local
// fallback, each against the per-value, single-owner default.
TEST(ScenarioRegistryTest, AblationGridsCoverEveryVariant) {
  std::set<std::string> routing = CellLabels("abl_routing_features");
  EXPECT_EQ(routing.size(), 12u);
  for (const char* variant : {"5/on/on", "1/on/on", "5/off/on", "5/on/off", "10/on/on"}) {
    EXPECT_EQ(routing.count(variant), 1u) << variant;
  }
  std::set<std::string> extensions = CellLabels("abl_extensions");
  EXPECT_EQ(extensions.size(), 18u);
  for (const char* variant : {"1/1/off", "2/1/off", "3/1/off", "1/5/off", "1/10/off",
                              "1/1/on"}) {
    EXPECT_EQ(extensions.count(variant), 1u) << variant;
  }
}

// A knob exists because some experiment needs the choice: every scenario
// key is set, as a key or a sweep axis, by at least one registered
// scenario, or is listed here with the reason no scenario sets it.
TEST(ScenarioRegistryTest, EveryKeyIsSetByARegisteredScenario) {
  const std::set<std::string> allowed = {
      // Run settings: how a trial is split across threads, and what it
      // records about itself. Results do not depend on them.
      "shards",
      "partition",
      "obs.trace_out",
      "obs.metrics_out",
      "obs.metrics_interval_seconds",
      "obs.profile",
      // The query-pressure lever behind the paper's P2 claim ("ownership
      // moves toward the base as query pressure grows"), which EndToEndTest
      // and examples/adaptive_comparison vary.
      "queries",
      "query_width_lo",
      "query_width_hi",
  };
  std::set<std::string> set_keys;
  size_t count = 0;
  const RegistryEntry* entries = RegisteredScenarios(&count);
  for (size_t i = 0; i < count; ++i) {
    std::istringstream in(entries[i].spec);
    for (std::string line; std::getline(in, line);) {
      size_t eq = line.find('=');
      if (line.empty() || line[0] == '#' || eq == std::string::npos) continue;
      std::string key = line.substr(0, line.find_first_of(" =", 0));
      if (key.rfind("sweep.", 0) == 0) key.erase(0, 6);
      set_keys.insert(key);
    }
  }
  for (const std::string& key : ScenarioKeyNames()) {
    EXPECT_TRUE(set_keys.count(key) > 0 || allowed.count(key) > 0)
        << "no registered scenario sets '" << key << "'";
  }
}

TEST(ScenarioRegistryTest, UnknownNameIsNotFound) {
  EXPECT_EQ(FindRegisteredSpec("no_such_scenario"), nullptr);
  Result<Scenario> missing = LoadRegisteredScenario("no_such_scenario");
  EXPECT_FALSE(missing.ok());
  EXPECT_TRUE(missing.status().IsNotFound());
}

}  // namespace
}  // namespace scoop::scenario
