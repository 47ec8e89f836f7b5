// Trial benchmark for the Scoop simulator: workloads, metric names, the
// per-trial correctness checks, and the timed and traced runs the driver
// (driver.cc) reports. A trial is one simulated deployment run for its
// configured sim-time through harness::RunAnyTrial; everything here times
// it from outside and reads only the public ExperimentResult fields.
#ifndef SCOOP_PERFBENCH_PERFBENCH_H_
#define SCOOP_PERFBENCH_PERFBENCH_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "harness/experiment.h"
#include "sim/partition.h"

namespace scoop::perfbench {

/// A reported metric: name (matches [A-Za-z0-9_.-]+), unit, and for a
/// layer metric the end-to-end metric and workload it should move.
struct MetricSpec {
  const char* name;
  const char* unit;
  const char* moves;
};

/// Metrics of the untraced run (--trace 0), in output order.
const std::vector<MetricSpec>& EndToEndMetrics();
/// Metrics of the traced run (--trace 1), in output order.
const std::vector<MetricSpec>& LayerMetrics();

/// One benchmark workload: a registered scenario, optionally moved onto
/// the sharded engine, plus the result bands every trial must meet.
struct Workload {
  const char* name;
  const char* scenario;  ///< scenario_registry entry the configs come from.
  int shards;            ///< ExperimentConfig::shards (1 = sequential engine).
  sim::PartitionKind partition;
  /// Trials per expanded scenario config, i.e. distinct trial seeds a run
  /// cycles through (the registry's own count when larger).
  int trials_per_config;
  double min_storage_success;
  double min_query_success;
  double max_lost_frac;  ///< readings_lost / readings_produced.
};

const std::vector<Workload>& Workloads();
/// nullptr when no workload has this name.
const Workload* FindWorkload(std::string_view name);

/// One trial to run: its config and explicit trial seed.
struct TrialUnit {
  harness::ExperimentConfig config;
  uint64_t seed = 0;
};

/// The trials one run cycles through for benchmark seed `bench_seed`. The
/// scenario's expanded configs get their seeds shifted by `bench_seed`
/// times the number of configs, so seed 0 reproduces the registry's seeds;
/// trial seeds are MixSeed(config.seed, trial) as in RunExperiment.
/// `downscale` keeps the registry's trial count and shrinks lattices to
/// 100 nodes and 6 sim-minutes (tests).
std::vector<TrialUnit> MakeUnits(const Workload& workload, uint64_t bench_seed,
                                 bool downscale);

/// `config` with near-zero simulated duration: a trial of it costs the
/// deployment build (topology, partition, agents, fault plan) and teardown.
harness::ExperimentConfig SetupOnlyConfig(harness::ExperimentConfig config);

/// FNV-1a digest of the deterministic result row (every CSV metric column
/// plus the query timeline). Perf-only fields are excluded.
uint64_t ResultDigest(const harness::ExperimentResult& result);

/// "" when `result` lies inside the workload's bands, else the reason.
std::string BandViolation(const Workload& workload, const harness::ExperimentResult& result);

using Metrics = std::map<std::string, double>;

/// The layer metrics one profiled trial yields on its own: profiler self
/// times and the simulated/engine counts. Ratios with a zero base are 0.
Metrics TrialLayerMetrics(const harness::ExperimentResult& result);

/// Median of a sample in any order; 0 for an empty one.
double Median(std::vector<double> values);

struct RunOptions {
  double seconds = 10;     ///< Measure for this long (at least one round).
  bool trace = false;      ///< Traced (per-layer) run instead of the timed one.
  bool downscale = false;  ///< See MakeUnits.
};

struct RunReport {
  int64_t attempted = 0;
  int64_t failed = 0;
  Metrics metrics;                  ///< Exactly the names of the run's metric list.
  /// Lines printed before the result: the raw seconds and host probe of a
  /// timed run, the per-layer table of a traced run.
  std::vector<std::string> table;
};

/// Runs `workload` in a closed loop, one trial at a time, for
/// `options.seconds`, checking every trial (bands, and identical digests
/// across repeats of a seed). Untraced: fills EndToEndMetrics. Traced:
/// alternates untraced/profiled trials of the first seed, adds outside
/// timings of the layers' public builders, and fills LayerMetrics.
RunReport RunWorkload(const Workload& workload, uint64_t bench_seed,
                      const RunOptions& options);

/// The result object: {"correct","attempted","failed","metrics"}.
std::string ResultJson(const RunReport& report, const std::vector<MetricSpec>& specs);

/// One JSON object describing the build and host: nproc, build type,
/// compiler, sanitizers, assertions.
std::string BuildStampJson();

/// "" when this is an optimized, uninstrumented build; else why not.
std::string UnfitBuildReason();

}  // namespace scoop::perfbench

#endif  // SCOOP_PERFBENCH_PERFBENCH_H_
