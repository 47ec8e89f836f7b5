// Observation must not perturb simulation: a campaign run with tracing,
// metrics sampling, and the profiler attached must render byte-identical
// CSVs to the same campaign with observability off, both sequentially
// (shards = 1: one shard run inline) and sharded (shards = 4, one thread
// per shard, one set of sinks per shard). Instrumentation records
// already-drawn values -- it never draws randomness or schedules events --
// so any CSV diff here means an obs hook leaked into simulation state.
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.h"
#include "harness/experiment.h"
#include "scenario/campaign.h"
#include "scenario/campaign_reporter.h"
#include "scenario/scenario_parser.h"
#include "scenario/scenario_registry.h"

namespace scoop::harness {
namespace {

std::string ReadWholeFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Runs `scn` with observability off and again with every obs feature on
/// (tracing, metrics, profiler), at the given shard count, and checks the
/// campaign CSVs match byte for byte. Returns the traced run's trace JSON.
std::string ExpectObservedRunIdentical(scenario::Scenario scn, int shards,
                                       const std::string& tag) {
  Status s = scenario::ApplyScenarioKey(&scn.base, "shards", std::to_string(shards));
  SCOOP_CHECK(s.ok());
  scenario::CampaignOptions options;
  options.threads = 2;

  Result<scenario::CampaignResult> off = scenario::RunCampaign(scn, options);
  SCOOP_CHECK(off.ok());
  std::string off_csv = scenario::CampaignCsv(off.value());

  std::string trace_path = ::testing::TempDir() + "obs-" + tag + "-trace.json";
  std::string metrics_path = ::testing::TempDir() + "obs-" + tag + "-metrics.jsonl";
  scn.base.trace_out = trace_path;
  scn.base.metrics_out = metrics_path;
  scn.base.metrics_interval = Seconds(30);
  scn.base.profile = true;
  Result<scenario::CampaignResult> on = scenario::RunCampaign(scn, options);
  SCOOP_CHECK(on.ok());
  EXPECT_EQ(off_csv, scenario::CampaignCsv(on.value()))
      << tag << ": observability changed the simulation";

  // The campaign expands per-(combo, trial) output paths; read combo 0,
  // trial 0 as a representative artifact.
  std::string trace = ReadWholeFile(ExpandObsPath(trace_path, "-c0-t0"));
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  std::string metrics = ReadWholeFile(ExpandObsPath(metrics_path, "-c0-t0"));
  EXPECT_NE(metrics.find("\"t_us\""), std::string::npos);
  return trace;
}

TEST(ObservationDeterminismTest, SmokeTinySequential) {
  Result<scenario::Scenario> scn = scenario::LoadRegisteredScenario("smoke_tiny");
  ASSERT_TRUE(scn.ok()) << scn.status().message();
  std::string trace = ExpectObservedRunIdentical(scn.value(), 1, "tiny-k1");
  // The tiny run still issues queries, so the trace must contain closed
  // query spans ("X" events) and packet lifecycle instants.
  EXPECT_NE(trace.find("\"name\":\"query\",\"cat\":\"query\",\"ph\":\"X\""),
            std::string::npos);
  EXPECT_NE(trace.find("\"cat\":\"packet\""), std::string::npos);
}

TEST(ObservationDeterminismTest, SmokeTinySharded) {
  Result<scenario::Scenario> scn = scenario::LoadRegisteredScenario("smoke_tiny");
  ASSERT_TRUE(scn.ok()) << scn.status().message();
  std::string trace = ExpectObservedRunIdentical(scn.value(), 4, "tiny-k4");
  EXPECT_NE(trace.find("\"cat\":\"packet\""), std::string::npos);
}

/// The registered failure_waves scenario shrunk to unit-test size: the
/// failure-wave machinery (radio deaths mid-run, three waves) still fires,
/// but over fewer nodes, less simulated time, and a trimmed sweep grid.
scenario::Scenario SmallFailureWaves() {
  Result<scenario::Scenario> parsed = scenario::LoadRegisteredScenario("failure_waves");
  SCOOP_CHECK(parsed.ok());
  scenario::Scenario scn = std::move(parsed).value();
  for (const auto& [key, value] :
       {std::pair<const char*, const char*>{"nodes", "16"},
        {"duration_minutes", "10"},
        {"stabilization_minutes", "2"},
        {"fault.crash_minute", "4"},
        {"fault.crash_wave_interval_minutes", "1"}}) {
    Status s = scenario::ApplyScenarioKey(&scn.base, key, value);
    SCOOP_CHECK(s.ok());
  }
  // policy x seed sweep, trimmed to 2 x 2 combos.
  SCOOP_CHECK_EQ(scn.sweeps.size(), 2u);
  scn.sweeps[0].values = {"scoop", "local"};
  scn.sweeps[1].values = {"1", "2"};
  return scn;
}

TEST(ObservationDeterminismTest, FailureWavesSequential) {
  ExpectObservedRunIdentical(SmallFailureWaves(), 1, "waves-k1");
}

TEST(ObservationDeterminismTest, FailureWavesSharded) {
  std::string trace = ExpectObservedRunIdentical(SmallFailureWaves(), 4, "waves-k4");
  // A 4-shard run records cross-shard synchronization events.
  EXPECT_NE(trace.find("\"cat\":\"shard-sync\""), std::string::npos);
}

/// The registered churn_reboot scenario shrunk to unit-test size: two
/// reboot waves and all three degradation knobs still fire, over fewer
/// nodes, less simulated time, and a single seed.
scenario::Scenario SmallChurnReboot() {
  Result<scenario::Scenario> parsed = scenario::LoadRegisteredScenario("churn_reboot");
  SCOOP_CHECK(parsed.ok());
  scenario::Scenario scn = std::move(parsed).value();
  for (const auto& [key, value] :
       {std::pair<const char*, const char*>{"nodes", "16"},
        {"duration_minutes", "10"},
        {"stabilization_minutes", "2"},
        {"fault.reboot_minute", "4"},
        {"fault.reboot_wave_count", "2"},
        {"fault.reboot_wave_interval_minutes", "2"},
        {"remap_interval_seconds", "60"}}) {
    Status s = scenario::ApplyScenarioKey(&scn.base, key, value);
    SCOOP_CHECK(s.ok());
  }
  SCOOP_CHECK_EQ(scn.sweeps.size(), 1u);
  scn.sweeps[0].values = {"1"};
  return scn;
}

TEST(ObservationDeterminismTest, ChurnRebootSequential) {
  std::string trace = ExpectObservedRunIdentical(SmallChurnReboot(), 1, "churn-k1");
  // Fault instants land on the fault category: crash + reboot per victim
  // per wave, and the degradation paths emit their own markers.
  EXPECT_NE(trace.find("\"name\":\"fault.crash\",\"cat\":\"fault\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"fault.reboot\",\"cat\":\"fault\""), std::string::npos);
}

TEST(ObservationDeterminismTest, ChurnRebootSharded) {
  std::string trace = ExpectObservedRunIdentical(SmallChurnReboot(), 4, "churn-k4");
  EXPECT_NE(trace.find("\"name\":\"fault.crash\",\"cat\":\"fault\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"fault.reboot\",\"cat\":\"fault\""), std::string::npos);
}

/// True for the metrics keys that depend on thread timing at K > 1 (the
/// README's list under "Metrics"): queue bookkeeping, EPT stalls and
/// promise slack. Every other key is counted on the event timeline.
bool TimingDependent(std::string_view key) {
  for (std::string_view k : {"queue.depth", "queue.occupancy", "queue.processed",
                             "shard.stall_us", "shard.stall_episodes"}) {
    if (key == k) return true;
  }
  return key.substr(0, 21) == "shard.ept_slack_us.to";
}

/// One metrics JSONL file as rows of (key, raw value text), less the
/// timing-dependent keys. Values are compared as text: both runs come
/// from one build, so field order and number spelling match.
std::vector<std::vector<std::pair<std::string, std::string>>> MetricsRows(
    const std::string& path) {
  std::vector<std::vector<std::pair<std::string, std::string>>> rows;
  std::istringstream in(ReadWholeFile(path));
  for (std::string line; std::getline(in, line);) {
    auto& row = rows.emplace_back();
    // Top-level members of a flat object whose values may nest {} and [].
    for (size_t i = 1; i + 1 < line.size();) {
      size_t key_end = line.find('"', i + 1);
      SCOOP_CHECK(line[i] == '"' && key_end != std::string::npos && line[key_end + 1] == ':');
      size_t v = key_end + 2, e = v;
      for (int depth = 0; e + 1 < line.size() && (depth > 0 || line[e] != ','); ++e) {
        if (line[e] == '{' || line[e] == '[') ++depth;
        if (line[e] == '}' || line[e] == ']') --depth;
      }
      std::string key = line.substr(i + 1, key_end - i - 1);
      if (!TimingDependent(key)) row.emplace_back(key, line.substr(v, e - v));
      i = e + 1;
    }
  }
  return rows;
}

TEST(ObservationDeterminismTest, ChurnRebootShardedMetricsRepeat) {
  // Two K = 3 runs of one build: every metrics row must match outside the
  // timing-dependent keys. Cross-shard messages drain whenever the thread
  // schedule lets them, so a key counted at drain time would differ.
  std::vector<std::vector<std::vector<std::pair<std::string, std::string>>>> runs;
  for (const char* tag : {"a", "b"}) {
    scenario::Scenario scn = SmallChurnReboot();
    SCOOP_CHECK(scenario::ApplyScenarioKey(&scn.base, "shards", "3").ok());
    std::string path = ::testing::TempDir() + "obs-repeat-" + tag + "-metrics.jsonl";
    scn.base.metrics_out = path;
    // A fine grid: a drain-time count straddles some sample point.
    scn.base.metrics_interval = Seconds(1);
    scenario::CampaignOptions options;
    options.threads = 1;
    ASSERT_TRUE(scenario::RunCampaign(scn, options).ok());
    runs.push_back(MetricsRows(ExpandObsPath(path, "-c0-t0")));
  }
  ASSERT_EQ(runs[0].size(), runs[1].size());
  ASSERT_FALSE(runs[0].empty());
  for (size_t r = 0; r < runs[0].size(); ++r) {
    EXPECT_EQ(runs[0][r], runs[1][r]) << "metrics row " << r + 1;
  }
  // The comparison covers the cross-shard counters: mirrored frames were
  // counted by the end of the run.
  bool mirrored = false;
  for (const auto& [key, value] : runs[0].back()) {
    if (key == "shard.mirrored_frames" && value != "0") mirrored = true;
  }
  EXPECT_TRUE(mirrored);
}

}  // namespace
}  // namespace scoop::harness
