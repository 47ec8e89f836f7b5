#include "scenario/campaign.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>
#include <string>

#include "common/rng.h"
#include "scenario/campaign_reporter.h"
#include "scenario/scenario_parser.h"

namespace scoop::scenario {
namespace {

Scenario MustParse(const std::string& text) {
  Result<Scenario> parsed = ParseScenario(text, "campaign_test.scn");
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  return parsed.ok() ? parsed.value() : Scenario{};
}

// A scenario small enough that a full campaign runs in milliseconds.
constexpr char kTinyBase[] =
    "name = tiny\n"
    "nodes = 8\n"
    "duration_minutes = 2\n"
    "stabilization_minutes = 0.5\n"
    "trials = 2\n";

TEST(CampaignTest, ExpansionIsCrossProductLastAxisFastest) {
  Scenario s = MustParse(std::string(kTinyBase) +
                         "sweep.nodes = 8, 12\n"
                         "sweep.policy = scoop, local\n");
  Result<std::vector<ExpandedRun>> runs = ExpandScenario(s);
  ASSERT_TRUE(runs.ok()) << runs.status().ToString();
  ASSERT_EQ(runs.value().size(), 4u);
  auto axis_values = [&](size_t i) {
    std::string out;
    for (const auto& [key, value] : runs.value()[i].axes) out += key + "=" + value + " ";
    return out;
  };
  EXPECT_EQ(axis_values(0), "nodes=8 policy=scoop ");
  EXPECT_EQ(axis_values(1), "nodes=8 policy=local ");
  EXPECT_EQ(axis_values(2), "nodes=12 policy=scoop ");
  EXPECT_EQ(axis_values(3), "nodes=12 policy=local ");
  EXPECT_EQ(runs.value()[2].config.num_nodes, 12);
  EXPECT_EQ(runs.value()[3].config.policy, harness::Policy::kLocal);
}

TEST(CampaignTest, NoSweepsExpandToSingleBaseRun) {
  Scenario s = MustParse(kTinyBase);
  Result<std::vector<ExpandedRun>> runs = ExpandScenario(s);
  ASSERT_TRUE(runs.ok());
  ASSERT_EQ(runs.value().size(), 1u);
  EXPECT_TRUE(runs.value()[0].axes.empty());
}

// The acceptance property: the same grid produces byte-identical structured
// output at any thread count.
TEST(CampaignTest, CsvAndTableAreByteIdenticalAcrossThreadCounts) {
  Scenario s = MustParse(std::string(kTinyBase) +
                         "sweep.policy = scoop, local\n"
                         "sweep.seed = 1..2\n");
  CampaignOptions serial;
  serial.threads = 1;
  CampaignOptions parallel;
  parallel.threads = 4;
  Result<CampaignResult> a = RunCampaign(s, serial);
  Result<CampaignResult> b = RunCampaign(s, parallel);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_EQ(a.value().threads_used, 1);
  EXPECT_GT(b.value().threads_used, 1);
  EXPECT_EQ(CampaignCsv(a.value()), CampaignCsv(b.value()));
  EXPECT_EQ(CampaignTable(a.value()), CampaignTable(b.value()));
}

// The profiler table is printed only when some trial profiled, with one
// row per combo under the axis columns and the five bucket columns.
TEST(CampaignTest, ProfileTableOnlyWhenProfiled) {
  Scenario s = MustParse(std::string(kTinyBase) + "sweep.policy = scoop, local\n");
  Result<CampaignResult> plain = RunCampaign(s, CampaignOptions{});
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(CampaignProfileTable(plain.value()), "");

  s.base.profile = true;
  Result<CampaignResult> profiled = RunCampaign(s, CampaignOptions{});
  ASSERT_TRUE(profiled.ok());
  std::string table = CampaignProfileTable(profiled.value());
  EXPECT_EQ(table.rfind("  policy  queue  radio  agent  shard-sync  other", 0), 0u) << table;
  EXPECT_EQ(std::count(table.begin(), table.end(), '\n'), 4) << table;  // Header, rule, 2 rows.
  EXPECT_NE(table.find("\n  scoop "), std::string::npos) << table;
  EXPECT_NE(table.find("\n  local "), std::string::npos) << table;
}

// A one-combo campaign must reproduce RunExperiment exactly: same per-trial
// seeds, same aggregation, same doubles.
TEST(CampaignTest, SingleComboMatchesRunExperiment) {
  Scenario s = MustParse(kTinyBase);
  Result<CampaignResult> campaign = RunCampaign(s, CampaignOptions{});
  ASSERT_TRUE(campaign.ok());
  ASSERT_EQ(campaign.value().rows.size(), 1u);
  const harness::ExperimentResult& mean = campaign.value().rows[0].mean;
  harness::ExperimentResult direct = harness::RunExperiment(s.base);
  EXPECT_DOUBLE_EQ(mean.total, direct.total);
  EXPECT_DOUBLE_EQ(mean.total_excl_beacons, direct.total_excl_beacons);
  EXPECT_DOUBLE_EQ(mean.storage_success, direct.storage_success);
  EXPECT_DOUBLE_EQ(mean.query_success, direct.query_success);
  EXPECT_DOUBLE_EQ(mean.avg_node_lifetime_days, direct.avg_node_lifetime_days);
}

TEST(CampaignTest, PerTrialRowsMatchRunTrialSeeds) {
  Scenario s = MustParse(kTinyBase);
  Result<CampaignResult> campaign = RunCampaign(s, CampaignOptions{});
  ASSERT_TRUE(campaign.ok());
  const CampaignRow& row = campaign.value().rows[0];
  ASSERT_EQ(row.trials.size(), 2u);
  harness::ExperimentResult t0 = harness::RunTrial(s.base, MixSeed(s.base.seed, 0));
  EXPECT_DOUBLE_EQ(row.trials[0].total, t0.total);
  harness::ExperimentResult t1 = harness::RunTrial(s.base, MixSeed(s.base.seed, 1));
  EXPECT_DOUBLE_EQ(row.trials[1].total, t1.total);
}

TEST(CampaignTest, AnalyticalHashPolicyRunsInCampaign) {
  Scenario s = MustParse(std::string(kTinyBase) + "policy = hash\n");
  Result<CampaignResult> campaign = RunCampaign(s, CampaignOptions{});
  ASSERT_TRUE(campaign.ok()) << campaign.status().ToString();
  harness::ExperimentResult direct = harness::RunExperiment(s.base);
  EXPECT_GT(campaign.value().rows[0].mean.total, 0);
  EXPECT_DOUBLE_EQ(campaign.value().rows[0].mean.total, direct.total);
}

TEST(CampaignTest, CsvHasHeaderPlusPerTrialAndMeanRows) {
  Scenario s = MustParse(std::string(kTinyBase) + "sweep.policy = scoop, local\n");
  Result<CampaignResult> campaign = RunCampaign(s, CampaignOptions{});
  ASSERT_TRUE(campaign.ok());
  std::string csv = CampaignCsv(campaign.value());
  // 1 header + 2 combos x (2 trials + 1 mean).
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 1 + 2 * 3);
  EXPECT_EQ(csv.rfind("scenario,policy,trial,", 0), 0u) << csv.substr(0, 80);
  EXPECT_NE(csv.find("tiny,scoop,0,"), std::string::npos);
  EXPECT_NE(csv.find("tiny,scoop,mean,"), std::string::npos);
  EXPECT_NE(csv.find("tiny,local,1,"), std::string::npos);
}

// A sweep must not be able to smuggle in a combo that violates cross-field
// invariants the base config satisfied (the per-key range checks cannot see
// the other side of a pair constraint).
TEST(CampaignTest, ExpansionRejectsInvalidSweptCombos) {
  Scenario s = MustParse(std::string(kTinyBase) +
                         "query_width_lo = 0.03\n"
                         "sweep.query_width_hi = 0.02, 0.5\n");
  Result<std::vector<ExpandedRun>> runs = ExpandScenario(s);
  ASSERT_FALSE(runs.ok());
  EXPECT_NE(runs.status().message().find("query_width_hi=0.02"), std::string::npos)
      << runs.status().ToString();
  EXPECT_NE(runs.status().message().find("query_width_lo must be <= query_width_hi"),
            std::string::npos);
}

TEST(CampaignTest, ExpansionCapsTheCrossProduct) {
  // Each axis is under the parser's per-axis cap, but their product is not:
  // expansion must refuse before materializing the grid.
  Scenario s = MustParse(std::string(kTinyBase) +
                         "sweep.seed = 1..99999\n"
                         "sweep.nodes = 2..100\n");
  Result<std::vector<ExpandedRun>> runs = ExpandScenario(s);
  ASSERT_FALSE(runs.ok());
  EXPECT_NE(runs.status().message().find("cross product exceeds"), std::string::npos)
      << runs.status().ToString();
}

TEST(CampaignTest, NonFiniteMetricsSerializeAsEmptyCsvCells) {
  CampaignResult result;
  result.scenario_name = "x";
  CampaignRow row;
  row.trials.resize(1);
  row.trials[0].avg_node_lifetime_days = std::numeric_limits<double>::infinity();
  row.mean = row.trials[0];
  result.rows.push_back(row);
  std::string csv = CampaignCsv(result);
  EXPECT_EQ(csv.find("inf"), std::string::npos) << csv;
}

TEST(CampaignTest, RunCampaignCapsTotalTrialRuns) {
  // The combo cap alone would admit this: 20 combos, but 10000 trials each.
  Scenario s = MustParse(
      "name = big\nnodes = 8\ntrials = 10000\nsweep.seed = 1..20\n");
  Result<CampaignResult> campaign = RunCampaign(s, CampaignOptions{});
  ASSERT_FALSE(campaign.ok());
  EXPECT_NE(campaign.status().message().find("trial runs"), std::string::npos)
      << campaign.status().ToString();
}

TEST(CampaignTest, MetricColumnNamesAreUnique) {
  size_t count = 0;
  const MetricColumn* columns = MetricColumns(&count);
  EXPECT_GE(count, 25u);
  std::set<std::string> names;
  for (size_t i = 0; i < count; ++i) names.insert(columns[i].name);
  EXPECT_EQ(names.size(), count);
}

}  // namespace
}  // namespace scoop::scenario
