#include "harness/experiment.h"

#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "harness/report.h"

namespace scoop::harness {
namespace {

TEST(HarnessTest, PolicyNames) {
  EXPECT_STREQ(PolicyName(Policy::kScoop), "scoop");
  EXPECT_STREQ(PolicyName(Policy::kLocal), "local");
  EXPECT_STREQ(PolicyName(Policy::kBase), "base");
  EXPECT_STREQ(PolicyName(Policy::kHashAnalytical), "hash");
  EXPECT_STREQ(PolicyName(Policy::kHashSim), "hash-sim");
}

TEST(HarnessTest, HashAnalysisScalesWithWorkload) {
  ExperimentConfig config;
  config.num_nodes = 24;
  core::HashModelResult base = RunHashAnalysis(config, 1);
  EXPECT_GT(base.data_messages, 0);
  EXPECT_GT(base.query_messages, 0);

  ExperimentConfig faster = config;
  faster.sample_interval = config.sample_interval / 2;
  core::HashModelResult fast = RunHashAnalysis(faster, 1);
  EXPECT_NEAR(fast.data_messages, 2 * base.data_messages, base.data_messages * 0.01);

  ExperimentConfig no_queries = config;
  no_queries.queries_enabled = false;
  core::HashModelResult quiet = RunHashAnalysis(no_queries, 1);
  EXPECT_DOUBLE_EQ(quiet.query_messages, 0);
}

TEST(HarnessTest, HashAnalysisAsResultFillsBreakdown) {
  ExperimentConfig config;
  config.num_nodes = 24;
  config.policy = Policy::kHashAnalytical;
  config.trials = 2;
  ExperimentResult r = RunExperiment(config);
  EXPECT_GT(r.data(), 0);
  EXPECT_GT(r.query_reply(), 0);
  EXPECT_EQ(r.summary(), 0);
  EXPECT_EQ(r.mapping(), 0);
  EXPECT_DOUBLE_EQ(r.total, r.data() + r.query_reply());
}

TEST(HarnessTest, TrialRunsPastTheLegacyQueryBitmapCap) {
  // The old fixed 128-bit query bitmap capped agent experiments at 128
  // nodes; the NodeSet codec lifts that. A 144-node lattice exercises the
  // tagged wire forms through the full query path (issue, flood, reply).
  ExperimentConfig config;
  config.preset = TopologyPreset::kGrid;
  config.num_nodes = 144;
  config.duration = Minutes(6);
  config.stabilization = Minutes(2);
  config.trials = 1;
  ExperimentResult r = RunTrial(config, /*seed=*/9);
  EXPECT_GT(r.total, 0);
  EXPECT_GT(r.queries_issued, 0.0);
  EXPECT_GT(r.query_success, 0.0);
}

TEST(HarnessTest, TrialAveragingIsMeanOfTrials) {
  ExperimentConfig config;
  config.num_nodes = 16;
  config.duration = Minutes(8);
  config.stabilization = Minutes(3);
  config.policy = Policy::kBase;
  config.source = workload::DataSourceKind::kUnique;
  config.trials = 2;
  config.seed = 77;
  ExperimentResult avg = RunExperiment(config);
  ExperimentResult t0 = RunTrial(config, MixSeed(config.seed, 0));
  ExperimentResult t1 = RunTrial(config, MixSeed(config.seed, 1));
  EXPECT_NEAR(avg.total, (t0.total + t1.total) / 2, 1e-9);
}

TEST(HarnessTest, AggregateTrialsAveragesFieldByField) {
  ExperimentResult a;
  a.total = 10;
  a.storage_success = 0.8;
  a.sent_by_type[0] = 4;
  ExperimentResult b;
  b.total = 20;
  b.storage_success = 0.6;
  b.sent_by_type[0] = 8;
  ExperimentResult mean = AggregateTrials({a, b});
  EXPECT_DOUBLE_EQ(mean.total, 15);
  EXPECT_DOUBLE_EQ(mean.storage_success, 0.7);
  EXPECT_DOUBLE_EQ(mean.sent_by_type[0], 6);
}

TEST(HarnessTest, RunAnyTrialDispatchesAnalyticalHash) {
  ExperimentConfig config;
  config.num_nodes = 24;
  config.policy = Policy::kHashAnalytical;
  ExperimentResult r = RunAnyTrial(config, MixSeed(config.seed, 0));
  EXPECT_GT(r.data(), 0);
  EXPECT_DOUBLE_EQ(r.total, r.total_excl_beacons);
}

TEST(HarnessTest, QueryBurstsMultiplyIssuedQueries) {
  ExperimentConfig config;
  config.num_nodes = 8;
  config.duration = Minutes(4);
  config.stabilization = Minutes(1);
  config.query_interval = Seconds(30);
  config.trials = 1;
  ExperimentResult steady = RunTrial(config, 1);

  ExperimentConfig bursty = config;
  bursty.query_burst_size = 4;
  bursty.query_burst_spacing = Seconds(2);
  ExperimentResult burst = RunTrial(bursty, 1);
  EXPECT_GT(burst.queries_issued, 2.5 * steady.queries_issued);
}

TEST(HarnessTest, FailureWavesKillMoreNodesThanOneWave) {
  ExperimentConfig config;
  config.num_nodes = 20;
  config.duration = Minutes(10);
  config.stabilization = Minutes(2);
  config.policy = Policy::kBase;
  config.source = workload::DataSourceKind::kUnique;
  config.trials = 1;
  config.node_failure_fraction = 0.2;
  config.failure_time = Minutes(3);
  ExperimentResult one_wave = RunTrial(config, 5);

  ExperimentConfig waves = config;
  waves.failure_wave_count = 3;
  waves.failure_wave_interval = Minutes(1);
  ExperimentResult three_waves = RunTrial(waves, 5);
  // A dead node keeps sampling but its radio is off: each extra wave
  // silences another 20% of the sensors, so less traffic reaches the air
  // and fewer readings make it into storage.
  EXPECT_LT(three_waves.total_excl_beacons, one_wave.total_excl_beacons);
  EXPECT_LT(three_waves.storage_success, one_wave.storage_success);
}

TEST(HarnessTest, TrialsCarryPerfTelemetry) {
  ExperimentConfig config;
  config.num_nodes = 8;
  config.duration = Minutes(3);
  config.stabilization = Minutes(1);
  config.trials = 1;
  ExperimentResult r = RunAnyTrial(config, 11);
  // A simulated trial executes thousands of events and takes nonzero wall
  // time; both feed the campaign perf report (events/second).
  EXPECT_GT(r.sim_events, 100);
  EXPECT_GT(r.wall_seconds, 0);

  config.policy = Policy::kHashAnalytical;
  ExperimentResult hash = RunAnyTrial(config, 11);
  EXPECT_EQ(hash.sim_events, 0);  // Closed-form model: no simulation.
  EXPECT_GT(hash.wall_seconds, 0);
}

/// The integer field `name` of one metrics JSONL row.
uint64_t JsonlField(const std::string& row, const std::string& name) {
  std::string key = "\"" + name + "\":";
  size_t at = row.find(key);
  EXPECT_NE(at, std::string::npos) << name << " missing from " << row;
  if (at == std::string::npos) return 0;
  return std::stoull(row.substr(at + key.size()));
}

// The metrics time series and the CSV totals come from one traffic
// ledger: summed over shards, the last sample row of a run whose length is
// a multiple of the interval equals the trial result, at any shard count.
TEST(HarnessTest, MetricsJsonlTrafficMatchesTheResult) {
  ExperimentConfig config;
  config.num_nodes = 30;
  config.duration = Minutes(6);
  config.stabilization = Minutes(1);
  config.trials = 1;
  config.metrics_interval = Seconds(30);
  for (int shards : {1, 3}) {
    config.metrics_out =
        ::testing::TempDir() + "ledger-k" + std::to_string(shards) + ".jsonl";
    ExperimentResult r = RunShardedTrial(config, 21, shards);
    ASSERT_GT(r.mac_drops, 0) << "the drop check needs drops";

    std::ifstream in(config.metrics_out);
    ASSERT_TRUE(in.good()) << config.metrics_out;
    const std::string end_stamp = "{\"t_us\":" + std::to_string(config.duration) + ",";
    int rows = 0;
    uint64_t tx = 0, busy = 0, no_ack = 0;
    for (std::string row; std::getline(in, row);) {
      if (row.rfind(end_stamp, 0) != 0) continue;
      ++rows;
      tx += JsonlField(row, "radio.tx_started");
      busy += JsonlField(row, "radio.drops_channel_busy");
      no_ack += JsonlField(row, "radio.drops_no_ack");
    }
    EXPECT_EQ(rows, shards) << "one final row per shard";
    EXPECT_EQ(static_cast<double>(tx), r.total) << "K=" << shards;
    EXPECT_EQ(static_cast<double>(busy + no_ack), r.mac_drops) << "K=" << shards;
  }
}

TEST(ReportTest, TableAlignsColumns) {
  TablePrinter table({"a", "bbbb"});
  table.AddRow({"xxxxx", "y"});
  std::string out = table.ToString();
  EXPECT_NE(out.find("a"), std::string::npos);
  EXPECT_NE(out.find("xxxxx"), std::string::npos);
  // Header row, rule, one data row.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 3);
}

TEST(ReportTest, Formatting) {
  EXPECT_EQ(FormatCount(1234567.4), "1,234,567");
  EXPECT_EQ(FormatCount(0), "0");
  EXPECT_EQ(FormatCount(-1234), "-1,234");
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatPercent(0.931, 1), "93.1%");
}

}  // namespace
}  // namespace scoop::harness
