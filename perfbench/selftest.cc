// The trial benchmark's own tests (run by ctest in the perfbench build):
// metric and workload names are well formed and every one is emitted, the
// layer metrics are read off an ExperimentResult correctly, and the
// grid_1024_k4 path equals the sharded engine at K = 1 on a downscaled
// lattice. Exits non-zero on the first failing check.
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <regex>
#include <set>
#include <string>

#include "perfbench.h"

namespace {

using namespace scoop::perfbench;
using scoop::harness::ExperimentResult;

void Expect(bool ok, const std::string& what) {
  if (ok) return;
  std::cerr << "perfbench_selftest: FAILED: " << what << "\n";
  std::exit(1);
}

bool Near(double a, double b) { return std::abs(a - b) <= 1e-12 * std::max(1.0, std::abs(b)); }

void NamesAreWellFormedAndUnique() {
  const std::regex pattern("[A-Za-z0-9][A-Za-z0-9_.-]{0,63}");
  std::set<std::string> seen;
  for (const auto* list : {&EndToEndMetrics(), &LayerMetrics()}) {
    for (const MetricSpec& spec : *list) {
      Expect(std::regex_match(spec.name, pattern), std::string("metric name ") + spec.name);
      Expect(seen.insert(spec.name).second, std::string("duplicate metric ") + spec.name);
    }
  }
  for (const Workload& w : Workloads()) {
    Expect(std::regex_match(w.name, pattern), std::string("workload name ") + w.name);
    Expect(FindWorkload(w.name) == &w, std::string("FindWorkload ") + w.name);
  }
  Expect(FindWorkload("no_such_workload") == nullptr, "unknown workload is rejected");
}

/// Every workload, downscaled, in both modes: the run passes its checks
/// and emits exactly its metric list.
void EveryMetricIsEmitted() {
  for (const Workload& w : Workloads()) {
    for (bool trace : {false, true}) {
      RunOptions options;
      options.seconds = 0;
      options.trace = trace;
      options.downscale = true;
      RunReport report = RunWorkload(w, 0, options);
      const std::string what = std::string(w.name) + (trace ? " traced" : " timed");
      Expect(report.attempted >= 1 && report.failed == 0, what + " run passes its checks");
      const auto& specs = trace ? LayerMetrics() : EndToEndMetrics();
      Expect(report.metrics.size() == specs.size(), what + " emits exactly its metric list");
      for (const MetricSpec& spec : specs) {
        Expect(report.metrics.count(spec.name) == 1, what + " emits " + spec.name);
        Expect(std::isfinite(report.metrics.at(spec.name)), what + " finite " + spec.name);
      }
      std::string json = ResultJson(report, specs);
      Expect(json.rfind("{\"correct\": true, \"attempted\": ", 0) == 0, what + " json head");
      Expect(!trace || !report.table.empty(), what + " prints a per-layer table");
    }
  }
}

void LayerMetricsFromCannedResult() {
  ExperimentResult r;
  r.sim_events = 1000;
  r.queue_wheel_absorbed = 750;
  r.queue_wheel_spilled = 250;
  r.profile_queue_seconds = 0.5;
  r.profile_radio_seconds = 2.0;
  r.profile_agent_seconds = 0.25;
  r.profile_shard_sync_seconds = 1.5;
  r.profile_other_seconds = 0.125;
  r.total = 400;
  r.retransmissions = 100;
  r.mac_drops = 20;
  r.shard_stall_us = 3e6;
  r.shard_stall_episodes = 77;
  r.shard_mirrored_frames = 55;
  r.partition_cut_edges = 321;
  r.partition_imbalance = 1.25;
  r.send_retries = 9;
  r.queries_reissued = 4;
  r.readings_rehomed = 6;
  Metrics m = TrialLayerMetrics(r);
  const std::pair<const char*, double> kWant[] = {
      {"sim.queue.self_s", 0.5},         {"sim.queue.events", 1000},
      {"sim.queue.wheel_absorb_rate", 0.75}, {"sim.queue.ns_per_event", 0.5e6},
      {"sim.radio.self_s", 2.0},         {"sim.radio.tx", 400},
      {"sim.radio.retx_frac", 0.25},     {"sim.radio.mac_drop_frac", 0.05},
      {"sim.shard.sync_s", 1.5},         {"sim.shard.stall_s", 3.0},
      {"sim.shard.stall_episodes", 77},  {"sim.shard.mirrored_frames", 55},
      {"sim.partition.cut_edges", 321},  {"sim.partition.imbalance", 1.25},
      {"core.agent.self_s", 0.25},       {"core.send_retries", 9},
      {"core.queries_reissued", 4},      {"core.readings_rehomed", 6},
      {"obs.other_s", 0.125},
  };
  Expect(m.size() == std::size(kWant), "TrialLayerMetrics yields exactly the per-trial set");
  for (const auto& [name, want] : kWant) {
    Expect(m.count(name) == 1 && Near(m.at(name), want), std::string("extracts ") + name);
  }
  // Zero bases give 0, not NaN.
  Metrics empty = TrialLayerMetrics(ExperimentResult{});
  Expect(empty.at("sim.queue.ns_per_event") == 0 && empty.at("sim.radio.retx_frac") == 0,
         "zero-base ratios are 0");
  const Workload* churn = FindWorkload("churn_reboot");
  Expect(!BandViolation(*churn, ExperimentResult{}).empty(), "an empty result leaves the bands");
}

void DigestCoversResultRowOnly() {
  ExperimentResult a;
  a.storage_success = 0.9;
  a.query_timeline.push_back({12.5, 10, 7});
  ExperimentResult b = a;
  b.wall_seconds = 99;  // Perf-only: not part of the row.
  b.profile_radio_seconds = 1;
  Expect(ResultDigest(a) == ResultDigest(b), "perf-only fields do not change the digest");
  b.query_timeline[0].responders = 8;
  Expect(ResultDigest(a) != ResultDigest(b), "the query timeline is digested");
  b = a;
  b.storage_success = 0.91;
  Expect(ResultDigest(a) != ResultDigest(b), "metric columns are digested");
}

void ShardedPathMatchesKOne() {
  const Workload* k4 = FindWorkload("grid_1024_k4");
  std::vector<TrialUnit> units = MakeUnits(*k4, 0, /*downscale=*/true);
  Expect(units.front().config.shards == 4 && units.front().config.num_nodes == 100,
         "grid_1024_k4 downscales to a 100-node lattice at K = 4");
  const TrialUnit& unit = units.front();
  ExperimentResult k4_result = scoop::harness::RunAnyTrial(unit.config, unit.seed);
  ExperimentResult k1_result = scoop::harness::RunShardedTrial(unit.config, unit.seed, 1);
  Expect(k4_result.resolved_shards == 4, "the grid_1024_k4 path runs 4 shards");
  Expect(ResultDigest(k4_result) == ResultDigest(k1_result),
         "grid_1024_k4 digest equals RunShardedTrial(..., 1)");
}

void SeedsShiftTheRegistrySeeds() {
  const Workload* churn = FindWorkload("churn_reboot");
  std::vector<TrialUnit> seed0 = MakeUnits(*churn, 0, false);
  std::vector<TrialUnit> seed1 = MakeUnits(*churn, 1, false);
  Expect(seed0.size() == 3 * static_cast<size_t>(churn->trials_per_config) &&
             seed0.front().config.seed == 1 && seed0.back().config.seed == 3,
         "churn_reboot seed 0 runs the registry's seeds 1..3");
  Expect(seed1.front().config.seed == 4, "churn_reboot seed 1 runs seeds 4..6");
  Expect(MakeUnits(*churn, 0, false)[1].seed == seed0[1].seed, "units are deterministic");
}

}  // namespace

int main() {
  NamesAreWellFormedAndUnique();
  LayerMetricsFromCannedResult();
  DigestCoversResultRowOnly();
  SeedsShiftTheRegistrySeeds();
  ShardedPathMatchesKOne();
  EveryMetricIsEmitted();
  std::cout << "perfbench_selftest: all checks passed\n";
  return 0;
}
