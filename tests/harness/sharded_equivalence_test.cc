// The sharded engine's whole contract: a trial split across K shards is
// bit-identical to the same trial at K=1, for every K. These tests pin that
// equivalence on the configs the golden suite exercises (tiny random,
// failure waves, grid), plus the degenerate K > nodes split.
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "common/check.h"
#include "common/rng.h"
#include "harness/experiment.h"
#include "scenario/campaign.h"
#include "scenario/campaign_reporter.h"
#include "scenario/scenario_registry.h"
#include "sim/partition.h"

namespace scoop::harness {
namespace {

// Field-by-field exact comparison of the deterministic result columns.
// wall_seconds and sim_events are excluded by design: wall time is host
// noise, and boundary evaluations count once per mirroring shard.
void ExpectIdentical(const ExperimentResult& a, const ExperimentResult& b) {
  for (size_t t = 0; t < a.sent_by_type.size(); ++t) {
    EXPECT_EQ(a.sent_by_type[t], b.sent_by_type[t]) << "sent_by_type[" << t << "]";
  }
  EXPECT_EQ(a.total, b.total);
  EXPECT_EQ(a.total_excl_beacons, b.total_excl_beacons);
  EXPECT_EQ(a.retransmissions, b.retransmissions);
  EXPECT_EQ(a.mac_drops, b.mac_drops);
  EXPECT_EQ(a.storage_success, b.storage_success);
  EXPECT_EQ(a.owner_hit_rate, b.owner_hit_rate);
  EXPECT_EQ(a.query_success, b.query_success);
  EXPECT_EQ(a.summary_delivery, b.summary_delivery);
  EXPECT_EQ(a.readings_produced, b.readings_produced);
  EXPECT_EQ(a.queries_issued, b.queries_issued);
  EXPECT_EQ(a.tuples_returned, b.tuples_returned);
  EXPECT_EQ(a.avg_pct_nodes_queried, b.avg_pct_nodes_queried);
  EXPECT_EQ(a.indices_built, b.indices_built);
  EXPECT_EQ(a.indices_disseminated, b.indices_disseminated);
  EXPECT_EQ(a.indices_suppressed, b.indices_suppressed);
  EXPECT_EQ(a.base_owned_fraction, b.base_owned_fraction);
  EXPECT_EQ(a.root_sent, b.root_sent);
  EXPECT_EQ(a.root_received, b.root_received);
  EXPECT_EQ(a.avg_node_sent, b.avg_node_sent);
  EXPECT_EQ(a.max_node_sent, b.max_node_sent);
  EXPECT_EQ(a.avg_node_lifetime_days, b.avg_node_lifetime_days);
  EXPECT_EQ(a.root_lifetime_days, b.root_lifetime_days);
  EXPECT_EQ(a.readings_lost, b.readings_lost);
  EXPECT_EQ(a.readings_orphaned, b.readings_orphaned);
  EXPECT_EQ(a.readings_rehomed, b.readings_rehomed);
  EXPECT_EQ(a.queries_reissued, b.queries_reissued);
  EXPECT_EQ(a.parent_losses, b.parent_losses);
  EXPECT_EQ(a.send_retries, b.send_retries);
  ASSERT_EQ(a.query_timeline.size(), b.query_timeline.size());
  for (size_t i = 0; i < a.query_timeline.size(); ++i) {
    EXPECT_EQ(a.query_timeline[i].t_seconds, b.query_timeline[i].t_seconds) << i;
    EXPECT_EQ(a.query_timeline[i].targets, b.query_timeline[i].targets) << i;
    EXPECT_EQ(a.query_timeline[i].responders, b.query_timeline[i].responders) << i;
  }
}

ExperimentConfig TinyConfig() {
  ExperimentConfig config;
  config.num_nodes = 12;
  config.duration = Minutes(8);
  config.stabilization = Minutes(2);
  config.trials = 1;
  config.seed = 11;
  return config;
}

TEST(ShardedEquivalenceTest, TinyScoopMatchesAcrossShardCounts) {
  ExperimentConfig config = TinyConfig();
  ExperimentResult ref = RunShardedTrial(config, /*seed=*/11, /*shards=*/1);
  EXPECT_GT(ref.total, 0);
  EXPECT_GT(ref.readings_produced, 0);
  for (int k : {2, 4, 8}) {
    SCOPED_TRACE("shards=" + std::to_string(k));
    ExpectIdentical(ref, RunShardedTrial(config, /*seed=*/11, k));
  }
}

TEST(ShardedEquivalenceTest, FailureWavesMatchAcrossShardCounts) {
  // Mid-run power-downs are the hardest case: in-flight boundary frames
  // must abort identically at every K.
  ExperimentConfig config = TinyConfig();
  config.num_nodes = 14;
  config.node_failure_fraction = 0.25;
  config.failure_time = Minutes(3);
  config.failure_wave_count = 2;
  config.failure_wave_interval = Minutes(2);
  ExperimentResult ref = RunShardedTrial(config, /*seed=*/5, /*shards=*/1);
  EXPECT_GT(ref.total, 0);
  for (int k : {2, 4, 8}) {
    SCOPED_TRACE("shards=" + std::to_string(k));
    ExpectIdentical(ref, RunShardedTrial(config, /*seed=*/5, k));
  }
}

TEST(ShardedEquivalenceTest, ChurnRebootMatchesAcrossShardCounts) {
  // Crash-reboot churn with every degradation knob on: reboots clear
  // per-node state mid-run and the orphan/retry/re-issue paths all fire.
  // The grid at K=8 makes thin strips, so wave victims land on shard
  // boundaries with cross-shard frames in flight.
  ExperimentConfig config = TinyConfig();
  config.preset = TopologyPreset::kGrid;
  config.num_nodes = 25;
  config.duration = Minutes(10);
  config.fault.reboot_fraction = 0.3;
  config.fault.reboot_time = Minutes(4);
  config.fault.reboot_wave_count = 2;
  config.fault.reboot_wave_interval = Minutes(2);
  config.fault.reboot_downtime = Seconds(40);
  config.fault.orphan_rehoming = true;
  config.fault.send_retry_max = 2;
  config.fault.query_reissue_max = 1;
  ExperimentResult ref = RunShardedTrial(config, /*seed=*/7, /*shards=*/1);
  EXPECT_GT(ref.total, 0);
  for (int k : {2, 4, 8}) {
    SCOPED_TRACE("shards=" + std::to_string(k));
    ExpectIdentical(ref, RunShardedTrial(config, /*seed=*/7, k));
  }
}

/// Counter `name` in the last row of the metrics JSONL file at `path`: its
/// end-of-run total.
uint64_t FinalCounter(const std::string& path, const std::string& name) {
  std::ifstream in(path);
  std::string line;
  std::string last;
  while (std::getline(in, line)) {
    if (!line.empty()) last = line;
  }
  const std::string key = "\"" + name + "\":";
  size_t at = last.find(key);
  EXPECT_NE(at, std::string::npos) << name << " missing from " << path;
  return at == std::string::npos ? 0 : std::stoull(last.substr(at + key.size()));
}

TEST(ShardedEquivalenceTest, CrossShardAbortsMatchAcrossShardCounts) {
  // A node powered down mid-frame while other shards mirror that frame:
  // the mirrors must revoke it (abort.rx) and every K still match K = 1.
  // A busy grid -- one unbatched reading per node per second -- under four
  // reboot waves puts boundary nodes on the air at wave instants.
  ExperimentConfig config = TinyConfig();
  config.preset = TopologyPreset::kGrid;
  config.num_nodes = 144;
  config.sample_interval = Seconds(1);
  config.max_batch = 1;
  config.fault.reboot_fraction = 0.5;
  config.fault.reboot_time = Minutes(4);
  config.fault.reboot_wave_count = 4;
  config.fault.reboot_wave_interval = Minutes(1);
  config.fault.reboot_downtime = Seconds(20);
  const uint64_t seed = 4;
  ExperimentResult ref = RunShardedTrial(config, seed, /*shards=*/1);
  EXPECT_GT(ref.total, 0);
  for (int k : {2, 3}) {
    SCOPED_TRACE("shards=" + std::to_string(k));
    ExperimentConfig observed = config;
    observed.metrics_out = ::testing::TempDir() + "abort-k" + std::to_string(k) + ".jsonl";
    ExpectIdentical(ref, RunShardedTrial(observed, seed, k));
    EXPECT_GT(FinalCounter(observed.metrics_out, "shard.abort_rx"), 0u);
  }
}

TEST(ShardedEquivalenceTest, MincutPartitionMatchesStripAcrossShardCounts) {
  // The partitioner only decides WHERE the shard cuts fall, never what the
  // simulation computes: on the dense grid (where mincut picks genuinely
  // different cuts than strips) every K and both partition kinds must be
  // bit-identical to the K=1 reference.
  ExperimentConfig config = TinyConfig();
  config.preset = TopologyPreset::kGrid;
  config.num_nodes = 25;
  ExperimentResult ref = RunShardedTrial(config, /*seed=*/3, /*shards=*/1);
  EXPECT_GT(ref.total, 0);
  for (int k : {2, 4, 8}) {
    for (sim::PartitionKind kind :
         {sim::PartitionKind::kStrip, sim::PartitionKind::kMincut}) {
      SCOPED_TRACE("shards=" + std::to_string(k) + " partition=" +
                   sim::PartitionKindName(kind));
      config.partition = kind;
      ExpectIdentical(ref, RunShardedTrial(config, /*seed=*/3, k));
    }
  }
}

TEST(ShardedEquivalenceTest, MincutChurnRebootMatchesAcrossShardCounts) {
  // Fault waves with the min-cut layout: reboot victims now land on the
  // refined cuts instead of strip boundaries, and in-flight boundary
  // frames must still abort identically at every K.
  ExperimentConfig config = TinyConfig();
  config.preset = TopologyPreset::kGrid;
  config.num_nodes = 25;
  config.duration = Minutes(10);
  config.fault.reboot_fraction = 0.3;
  config.fault.reboot_time = Minutes(4);
  config.fault.reboot_wave_count = 2;
  config.fault.reboot_wave_interval = Minutes(2);
  config.fault.reboot_downtime = Seconds(40);
  config.fault.orphan_rehoming = true;
  config.fault.send_retry_max = 2;
  config.fault.query_reissue_max = 1;
  ExperimentResult ref = RunShardedTrial(config, /*seed=*/7, /*shards=*/1);
  EXPECT_GT(ref.total, 0);
  config.partition = sim::PartitionKind::kMincut;
  for (int k : {2, 4, 8}) {
    SCOPED_TRACE("shards=" + std::to_string(k));
    ExpectIdentical(ref, RunShardedTrial(config, /*seed=*/7, k));
  }
}

TEST(ShardedEquivalenceTest, PartitionHealMatchesAcrossShardCounts) {
  // The partition rectangle covers the left half, so its boundary cuts
  // across every K's strip layout; the link-fault channel must scale the
  // same keyed draws on every shard.
  ExperimentConfig config = TinyConfig();
  config.preset = TopologyPreset::kGrid;
  config.num_nodes = 25;
  config.duration = Minutes(10);
  config.fault.partition_start = Minutes(3);
  config.fault.partition_end = Minutes(6);
  config.fault.orphan_rehoming = true;
  config.fault.send_retry_max = 2;
  config.fault.query_reissue_max = 1;
  ExperimentResult ref = RunShardedTrial(config, /*seed=*/9, /*shards=*/1);
  EXPECT_GT(ref.total, 0);
  for (int k : {2, 4, 8}) {
    SCOPED_TRACE("shards=" + std::to_string(k));
    ExpectIdentical(ref, RunShardedTrial(config, /*seed=*/9, k));
  }
}

TEST(ShardedEquivalenceTest, BaseFailoverMatchesAcrossShardCounts) {
  // The base outage toggles node 0's radio and promotes/demotes the backup
  // -- three fault kinds (down, up, promote/demote) crossing shard cuts.
  ExperimentConfig config = TinyConfig();
  config.num_nodes = 14;
  config.duration = Minutes(10);
  config.fault.base_outage_start = Minutes(4);
  config.fault.base_outage_end = Minutes(6);
  config.fault.base_backup = 1;
  config.fault.orphan_rehoming = true;
  ExperimentResult ref = RunShardedTrial(config, /*seed=*/17, /*shards=*/1);
  EXPECT_GT(ref.total, 0);
  for (int k : {2, 4}) {
    SCOPED_TRACE("shards=" + std::to_string(k));
    ExpectIdentical(ref, RunShardedTrial(config, /*seed=*/17, k));
  }
}

TEST(ShardedEquivalenceTest, GridTrickleTrafficMatchesAcrossShardCounts) {
  // The lattice preset puts many nodes in mutual earshot, so the Trickle
  // beacon suppression decisions constantly straddle shard boundaries.
  ExperimentConfig config = TinyConfig();
  config.preset = TopologyPreset::kGrid;
  config.num_nodes = 25;
  ExperimentResult ref = RunShardedTrial(config, /*seed=*/3, /*shards=*/1);
  EXPECT_GT(ref.total, 0);
  for (int k : {2, 5, 8}) {
    SCOPED_TRACE("shards=" + std::to_string(k));
    ExpectIdentical(ref, RunShardedTrial(config, /*seed=*/3, k));
  }
}

TEST(ShardedEquivalenceTest, TestbedBaseNearTheBoundaryMatches) {
  // The elongated testbed with a high K makes thin strips, so the
  // basestation's strip boundary cuts right through its neighborhood.
  ExperimentConfig config = TinyConfig();
  config.preset = TopologyPreset::kTestbed;
  config.num_nodes = 16;
  ExperimentResult ref = RunShardedTrial(config, /*seed=*/23, /*shards=*/1);
  EXPECT_GT(ref.total, 0);
  for (int k : {2, 8}) {
    SCOPED_TRACE("shards=" + std::to_string(k));
    ExpectIdentical(ref, RunShardedTrial(config, /*seed=*/23, k));
  }
}

TEST(ShardedEquivalenceTest, EverySimulatedPolicyMatches) {
  for (Policy policy : {Policy::kLocal, Policy::kBase, Policy::kHashSim}) {
    SCOPED_TRACE(PolicyName(policy));
    ExperimentConfig config = TinyConfig();
    config.policy = policy;
    config.source = workload::DataSourceKind::kGaussian;
    ExperimentResult ref = RunShardedTrial(config, /*seed=*/2, /*shards=*/1);
    EXPECT_GT(ref.total, 0);
    ExpectIdentical(ref, RunShardedTrial(config, /*seed=*/2, /*shards=*/3));
  }
}

TEST(ShardedEquivalenceTest, MoreShardsThanNodesDegenerates) {
  ExperimentConfig config = TinyConfig();
  config.num_nodes = 6;
  ExperimentResult ref = RunShardedTrial(config, /*seed=*/13, /*shards=*/1);
  ExpectIdentical(ref, RunShardedTrial(config, /*seed=*/13, /*shards=*/16));
}

TEST(ShardedEquivalenceTest, RunTrialDispatchesOnShardsField) {
  ExperimentConfig config = TinyConfig();
  config.shards = 3;
  ExperimentResult via_dispatch = RunTrial(config, /*seed=*/11);
  ExpectIdentical(RunShardedTrial(config, /*seed=*/11, 3), via_dispatch);
}

TEST(ShardedEquivalenceTest, ResolvedShardsAutoAndExplicit) {
  ExperimentConfig config;
  config.shards = 1;
  EXPECT_EQ(ResolvedShards(config), 1);
  config.shards = 6;
  EXPECT_EQ(ResolvedShards(config), 6);
  config.shards = 0;  // Auto: hardware-dependent, but always in [1, 8].
  int resolved = ResolvedShards(config);
  EXPECT_GE(resolved, 1);
  EXPECT_LE(resolved, 8);
}

TEST(ShardedEquivalenceTest, CampaignCsvIsByteIdenticalAcrossShardCounts) {
  // The full reporting path: same scenario, only `shards` differs. The
  // rendered per-trial and mean CSV rows must be byte-for-byte identical
  // for every K, including the inline single shard, and each trial row
  // must equal the engine's K=1 determinism reference (RunShardedTrial).
  scenario::Scenario scn;
  scn.name = "sharded-equivalence";
  scn.base = TinyConfig();
  scn.base.trials = 2;
  scn.base.node_failure_fraction = 0.2;
  scn.base.failure_time = Minutes(4);
  scn.sweeps.push_back(scenario::SweepAxis{"policy", {"scoop", "base"}});

  auto run_at = [&](int shards) {
    scenario::Scenario s = scn;
    s.base.shards = shards;
    scenario::CampaignOptions options;
    options.threads = 2;
    Result<scenario::CampaignResult> run = scenario::RunCampaign(s, options);
    SCOOP_CHECK(run.ok());
    return std::move(run).value();
  };

  scenario::CampaignResult ref = run_at(1);
  std::string ref_csv = scenario::CampaignCsv(ref);
  EXPECT_NE(ref_csv.find("scoop"), std::string::npos);
  for (int k : {2, 4, 8}) {
    SCOPED_TRACE("shards=" + std::to_string(k));
    EXPECT_EQ(ref_csv, scenario::CampaignCsv(run_at(k)));
  }
  // Anchor the campaign rows to the K=1 engine reference directly.
  for (const scenario::CampaignRow& row : ref.rows) {
    for (size_t t = 0; t < row.trials.size(); ++t) {
      SCOPED_TRACE(std::string(PolicyName(row.config.policy)));
      ExpectIdentical(RunShardedTrial(row.config,
                                      MixSeed(row.config.seed, static_cast<uint64_t>(t)), 1),
                      row.trials[t]);
    }
  }
}

TEST(ShardedEquivalenceTest, FaultScenarioCampaignCsvMatchesAcrossShardCounts) {
  // The registered fault scenarios through the full reporting path: the
  // rendered CSV (fault columns included) must be byte-identical for
  // K in {1, 2, 4}, and every trial row must equal the K=1 engine
  // reference.
  for (const char* name : {"churn_reboot", "partition_heal"}) {
    SCOPED_TRACE(name);
    Result<scenario::Scenario> parsed = scenario::LoadRegisteredScenario(name);
    ASSERT_TRUE(parsed.ok()) << parsed.status().message();
    scenario::Scenario scn = std::move(parsed).value();
    // Trim to unit-test size while keeping every fault window inside the
    // run: one seed of the sweep is plenty for byte-identity.
    ASSERT_EQ(scn.sweeps.size(), 1u);
    scn.sweeps[0].values = {"1"};

    auto run_at = [&](int shards) {
      scenario::Scenario s = scn;
      s.base.shards = shards;
      scenario::CampaignOptions options;
      options.threads = 2;
      Result<scenario::CampaignResult> run = scenario::RunCampaign(s, options);
      SCOOP_CHECK(run.ok());
      return std::move(run).value();
    };

    scenario::CampaignResult ref = run_at(1);
    std::string ref_csv = scenario::CampaignCsv(ref);
    EXPECT_NE(ref_csv.find("readings_orphaned"), std::string::npos);
    for (int k : {2, 4}) {
      SCOPED_TRACE("shards=" + std::to_string(k));
      EXPECT_EQ(ref_csv, scenario::CampaignCsv(run_at(k)));
    }
    for (const scenario::CampaignRow& row : ref.rows) {
      for (size_t t = 0; t < row.trials.size(); ++t) {
        ExpectIdentical(
            RunShardedTrial(row.config, MixSeed(row.config.seed, static_cast<uint64_t>(t)), 1),
            row.trials[t]);
      }
    }
  }
}

TEST(ShardedEquivalenceTest, CampaignCsvIsByteIdenticalAcrossPartitioners) {
  // Same contract one axis further: the rendered campaign CSV must not
  // depend on the partition kind either, at any K, including under
  // crash-reboot churn whose victims sit on the min-cut boundaries.
  Result<scenario::Scenario> parsed = scenario::LoadRegisteredScenario("churn_reboot");
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  scenario::Scenario scn = std::move(parsed).value();
  ASSERT_EQ(scn.sweeps.size(), 1u);
  scn.sweeps[0].values = {"1"};

  auto run_csv = [&](int shards, sim::PartitionKind kind) {
    scenario::Scenario s = scn;
    s.base.shards = shards;
    s.base.partition = kind;
    scenario::CampaignOptions options;
    options.threads = 2;
    Result<scenario::CampaignResult> run = scenario::RunCampaign(s, options);
    SCOOP_CHECK(run.ok());
    return scenario::CampaignCsv(run.value());
  };

  std::string ref_csv = run_csv(2, sim::PartitionKind::kStrip);
  EXPECT_NE(ref_csv.find("readings_orphaned"), std::string::npos);
  for (int k : {2, 4, 8}) {
    SCOPED_TRACE("shards=" + std::to_string(k));
    EXPECT_EQ(ref_csv, run_csv(k, sim::PartitionKind::kMincut));
  }
}

}  // namespace
}  // namespace scoop::harness
