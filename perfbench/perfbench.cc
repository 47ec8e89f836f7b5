#include "perfbench.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <memory>

#include "common/check.h"
#include "common/node_set.h"
#include "common/rng.h"
#include "core/index_builder.h"
#include "core/query_stats.h"
#include "core/xmits_estimator.h"
#include "fault/fault_plan.h"
#include "scenario/campaign.h"
#include "scenario/campaign_reporter.h"
#include "scenario/scenario_registry.h"
#include "sim/topology.h"
#include "storage/histogram.h"
#include "workload/data_source.h"

namespace scoop::perfbench {

namespace {

using harness::ExperimentConfig;
using harness::ExperimentResult;

double Now() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// User + system CPU seconds of the whole process (all threads, including
/// the sharded engine's joined workers).
double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB.
}

double Ratio(double num, double den) { return den != 0 ? num / den : 0.0; }

struct Timed {
  ExperimentResult result;
  double wall_s = 0;
  double cpu_s = 0;
};

/// One closed-loop trial, timed from outside RunAnyTrial (result teardown
/// included). The begin marker lets run.py count a trial that crashes.
Timed TimeTrial(const ExperimentConfig& config, uint64_t seed) {
  static int64_t counter = 0;
  std::cerr << "# trial " << ++counter << " begin\n";
  Timed t;
  double cpu0 = CpuSeconds();
  double t0 = Now();
  t.result = harness::RunAnyTrial(config, seed);
  t.wall_s = Now() - t0;
  t.cpu_s = CpuSeconds() - cpu0;
  return t;
}

/// Counts trials and failures: a trial fails when it leaves the workload's
/// bands or when its digest differs from an earlier trial under the same
/// key (repeats of one seed, or a reference run that must match).
class TrialChecker {
 public:
  explicit TrialChecker(const Workload& workload) : workload_(workload) {}

  void Check(uint64_t key, const ExperimentResult& result, const char* what) {
    ++attempted_;
    std::string why = BandViolation(workload_, result);
    uint64_t digest = ResultDigest(result);
    auto [it, inserted] = digests_.emplace(key, digest);
    if (why.empty() && !inserted && it->second != digest) {
      why = "result digest differs from an earlier trial of the same seed";
    }
    if (!why.empty()) Fail(what, why);
  }

  /// A trial whose result is only compared (not band-checked), e.g. a
  /// reference run on another engine.
  void Expect(bool ok, const char* what, const std::string& why) {
    ++attempted_;
    if (!ok) Fail(what, why);
  }

  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }

 private:
  void Fail(const char* what, const std::string& why) {
    ++failed_;
    std::cerr << "# trial FAILED (" << workload_.name << ", " << what << "): " << why << "\n";
  }

  const Workload& workload_;
  std::map<uint64_t, uint64_t> digests_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

sim::Topology BuildTopology(const ExperimentConfig& config, uint64_t seed) {
  switch (config.preset) {
    case harness::TopologyPreset::kTestbed: {
      sim::TestbedTopologyOptions opts;
      opts.num_nodes = config.num_nodes;
      opts.seed = seed;
      return sim::Topology::MakeTestbed(opts);
    }
    case harness::TopologyPreset::kGrid: {
      sim::GridTopologyOptions opts;
      opts.num_nodes = config.num_nodes;
      opts.seed = seed;
      return sim::Topology::MakeGrid(opts);
    }
    case harness::TopologyPreset::kRandom:
      break;
  }
  sim::RandomTopologyOptions opts;
  opts.num_nodes = config.num_nodes;
  opts.seed = seed;
  return sim::Topology::MakeRandom(opts);
}

/// Median wall seconds of `fn`: at least 3 calls, then until 0.2 s or 50.
template <typename Fn>
double MedianSeconds(Fn&& fn) {
  std::vector<double> samples;
  double start = Now();
  while (samples.size() < 3 || (Now() - start < 0.2 && samples.size() < 50)) {
    double t0 = Now();
    fn();
    samples.push_back(Now() - t0);
  }
  return Median(std::move(samples));
}

core::XmitsEstimator MakeXmits(const sim::Topology& topology) {
  core::XmitsEstimator xmits(topology.num_nodes());
  for (int from = 0; from < topology.num_nodes(); ++from) {
    for (const sim::Topology::Link& link : topology.audible_from(static_cast<NodeId>(from))) {
      xmits.AddLink(static_cast<NodeId>(from), link.to, link.prob);
    }
  }
  return xmits;
}

/// Query target sets like the base issues: contiguous owner runs and
/// scattered ~10% subsets, over a `universe`-node network.
std::vector<NodeSet> MakeTargetSets(int universe, uint64_t seed) {
  Rng rng(MixSeed(seed, 0xC0DEC));
  std::vector<NodeSet> sets;
  for (int i = 0; i < 256; ++i) {
    NodeSet set(universe);
    if (i % 2 == 0) {
      int len = static_cast<int>(rng.UniformInt(1, std::max(1, universe / 8)));
      int lo = static_cast<int>(rng.UniformInt(0, universe - len));
      for (int id = lo; id < lo + len; ++id) set.Set(static_cast<NodeId>(id));
    } else {
      for (int id = 0; id < universe; ++id) {
        if (rng.Bernoulli(0.10)) set.Set(static_cast<NodeId>(id));
      }
    }
    sets.push_back(std::move(set));
  }
  return sets;
}

/// Times the public builders each layer runs during setup or remaps, on
/// the first trial's own inputs. Returns false if a codec round trip broke.
bool OutsideTimings(const Workload& workload, const TrialUnit& unit, Metrics* out) {
  const ExperimentConfig& config = unit.config;
  Metrics& m = *out;

  m["sim.topology.build_s"] = MedianSeconds([&] { BuildTopology(config, unit.seed); });
  sim::Topology topology = BuildTopology(config, unit.seed);
  double links = 0;
  for (int n = 0; n < topology.num_nodes(); ++n) {
    links += static_cast<double>(topology.audible_from(static_cast<NodeId>(n)).size());
  }
  m["sim.topology.audible_links"] = links;

  m["sim.partition.build_s"] =
      workload.shards > 1 ? MedianSeconds([&] {
        sim::PartitionNodes(topology, workload.shards, workload.partition);
      })
                          : 0.0;

  std::vector<double> xmits_samples;
  for (int rep = 0; rep < 3; ++rep) {
    core::XmitsEstimator fresh = MakeXmits(topology);
    double t0 = Now();
    fresh.Build();
    xmits_samples.push_back(Now() - t0);
  }
  m["core.xmits.build_s"] = Median(std::move(xmits_samples));

  // The index optimizer over every node, fed 30 readings per producer
  // from the workload's own data source.
  core::XmitsEstimator xmits = MakeXmits(topology);
  xmits.Build();
  std::unique_ptr<workload::DataSource> source = workload::MakeDataSource(
      config.source, config.source_options, topology.positions(), unit.seed);
  core::BuildInputs inputs;
  inputs.domain_lo = source->domain().lo;
  inputs.domain_hi = source->domain().hi;
  for (int n = 1; n < topology.num_nodes(); ++n) {
    std::vector<Value> readings;
    for (int s = 0; s < 30; ++s) {
      readings.push_back(source->Next(static_cast<NodeId>(n), config.sample_interval * s));
    }
    core::ProducerStats p;
    p.id = static_cast<NodeId>(n);
    p.histogram = storage::ValueHistogram::Build(readings, 10);
    p.rate = 1.0 / ToSeconds(config.sample_interval);
    inputs.producers.push_back(std::move(p));
  }
  core::QueryStats queries;
  Value span = inputs.domain_hi - inputs.domain_lo;
  queries.RecordQuery({ValueRange{inputs.domain_lo, inputs.domain_lo + span / 20}}, Seconds(1));
  inputs.xmits = &xmits;
  inputs.query_stats = &queries;
  inputs.now = Seconds(2);
  for (int n = 0; n < topology.num_nodes(); ++n) {
    inputs.candidates.push_back(static_cast<NodeId>(n));
  }
  IndexId id = 1;
  m["core.index.build_s"] =
      MedianSeconds([&] { core::IndexBuilder::Build(inputs, config.builder, id++); });

  std::vector<NodeSet> sets = MakeTargetSets(topology.num_nodes(), unit.seed);
  bool codec_ok = true;
  std::vector<uint8_t> wire;
  double codec_s = MedianSeconds([&] {
    for (int rep = 0; rep < 20; ++rep) {
      for (const NodeSet& set : sets) {
        wire.clear();
        set.EncodeTo(&wire);
        std::optional<NodeSet> back = NodeSet::Decode(wire.data(), wire.size(), set.universe());
        codec_ok = codec_ok && back.has_value() && *back == set;
      }
    }
  });
  m["common.node_set.codec_ns"] = codec_s * 1e9 / (20.0 * static_cast<double>(sets.size()));

  fault::LegacyCrashWaves legacy;
  legacy.fraction = config.node_failure_fraction;
  legacy.at = config.failure_time;
  legacy.wave_count = config.failure_wave_count;
  legacy.wave_interval = config.failure_wave_interval;
  auto build_plan = [&] {
    return fault::BuildFaultPlan(config.fault, legacy, topology, config.num_nodes, unit.seed);
  };
  m["fault.plan_build_s"] = MedianSeconds(build_plan);
  m["fault.events"] = static_cast<double>(build_plan().events.size());
  return codec_ok;
}

std::string FormatNumber(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string FormatRow(const char* name, double value, const char* unit, const char* note) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), "  %-28s %16.6g %-6s %s", name, value, unit, note);
  return buf;
}

/// Host-speed probe: 250k dependent loads around one random cycle over an
/// 8 MiB table (Sattolo's shuffle), about 30 ms. It is a fixed workload
/// that no change to the simulator can touch, so its time tracks only how
/// fast the shared host runs right now. Timed runs divide by it.
double HostSpeedProbe() {
  static const std::vector<uint32_t> cycle = [] {
    std::vector<uint32_t> next(1u << 21);
    for (uint32_t i = 0; i < next.size(); ++i) next[i] = i;
    Rng rng(0x5EED);
    for (size_t i = next.size() - 1; i > 0; --i) {
      std::swap(next[i], next[static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(i) - 1))]);
    }
    return next;
  }();
  double t0 = Now();
  uint32_t at = 0;
  for (int k = 0; k < 250000; ++k) at = cycle[at];
  double elapsed = Now() - t0;
  SCOOP_CHECK_LT(at, cycle.size());  // Keeps the chase observable.
  return elapsed;
}

/// The probe time of the reference host the timed metrics are scaled to
/// (about what the 4-core Xeon the benchmark was written on reads).
constexpr double kReferenceProbeSeconds = 0.030;

/// Each seed's median sample, so every seed weighs the same however many
/// repeats it got.
std::vector<double> PerSeedMedians(const std::vector<std::vector<double>>& per_unit) {
  std::vector<double> medians;
  for (const std::vector<double>& samples : per_unit) medians.push_back(Median(samples));
  return medians;
}

double Mean(const std::vector<double>& values) {
  double sum = 0;
  for (double v : values) sum += v;
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

RunReport RunTimed(const Workload& workload, const std::vector<TrialUnit>& units,
                   const RunOptions& options) {
  constexpr int kSetupProbes = 5;
  constexpr size_t kRepeatChecks = 3;
  constexpr double kProbeEverySeconds = 0.5;
  TrialChecker checker(workload);
  const size_t n = units.size();
  std::vector<std::vector<double>> wall(n), cpu(n), setup(n);
  std::vector<double> probes;
  double last_probe = -1e9;
  auto run_unit = [&](size_t u) {
    const TrialUnit& unit = units[u];
    if (Now() - last_probe >= kProbeEverySeconds) {
      probes.push_back(HostSpeedProbe());
      last_probe = Now();
    }
    for (int p = 0; p < kSetupProbes; ++p) {
      double t0 = Now();
      harness::RunAnyTrial(SetupOnlyConfig(unit.config), unit.seed);
      setup[u].push_back(Now() - t0);
    }
    Timed t = TimeTrial(unit.config, unit.seed);
    checker.Check(u, t.result, "timed trial");
    wall[u].push_back(t.wall_s);
    cpu[u].push_back(t.cpu_s);
  };
  // Whole rounds over every seed, each trial preceded by setup-only
  // trials of the same seed. The measured input set is fixed; only the
  // number of rounds depends on speed: another round starts while one
  // more round of the last round's length fits in `seconds`.
  double start = Now();
  double round_s = 0;
  do {
    double round_start = Now();
    for (size_t u = 0; u < n; ++u) run_unit(u);
    round_s = Now() - round_start;
  } while (Now() - start + round_s <= options.seconds);
  // Digests are compared across repeats of a seed: when one round filled
  // the time, repeat the first few seeds.
  for (size_t u = 0; u < std::min(n, kRepeatChecks) && wall[u].size() < 2; ++u) run_unit(u);

  // Trial costs average over the seeds (a campaign pays the mean); setup
  // takes the median seed, since a few random topologies re-roll their
  // links many times and would dominate a mean.
  const double wall_s = Mean(PerSeedMedians(wall));
  const double cpu_s = Mean(PerSeedMedians(cpu));
  const double setup_s = Median(PerSeedMedians(setup));
  const double probe_s = Median(probes);
  const double scale = kReferenceProbeSeconds / probe_s;
  RunReport report;
  report.attempted = checker.attempted();
  report.failed = checker.failed();
  report.metrics["trial_wall_s"] = wall_s * scale;
  report.metrics["setup_s"] = setup_s * scale;
  report.metrics["cpu_s"] = cpu_s * scale;
  char line[256];
  std::snprintf(line, sizeof(line),
                "raw %s: trial_wall_s %.6f setup_s %.6f cpu_s %.6f; host probe %.6f s "
                "(median of %zu), scale %.4f; %zu seeds x %zu rounds",
                workload.name, wall_s, setup_s, cpu_s, probe_s, probes.size(), scale, n,
                wall.back().size());
  report.table.push_back(line);
  return report;
}

RunReport RunTraced(const Workload& workload, const std::vector<TrialUnit>& units,
                    const RunOptions& options) {
  double start = Now();
  const TrialUnit& unit = units.front();
  TrialChecker checker(workload);
  Metrics outside;
  checker.Expect(OutsideTimings(workload, unit, &outside), "node_set codec",
                 "Decode(Encode(set)) != set");

  // References: the sequential engine's event count (event inflation) and
  // the sharded engine at K = 1, whose result every K-shard trial below is
  // checked against (same checker key).
  double sequential_events = 0;
  if (workload.shards != 1) {
    ExperimentConfig sequential = unit.config;
    sequential.shards = 1;
    Timed seq = TimeTrial(sequential, unit.seed);
    checker.Check(~uint64_t{0}, seq.result, "sequential reference");
    sequential_events = seq.result.sim_events;
    std::cerr << "# trial k1 begin\n";
    ExperimentResult k1 = harness::RunShardedTrial(unit.config, unit.seed, 1);
    checker.Check(0, k1, "sharded K=1 reference");
  }

  ExperimentConfig profiled = unit.config;
  profiled.profile = true;
  std::vector<Metrics> traced;
  std::vector<double> traced_wall, untraced_wall, untraced_cpu;
  ExperimentResult first;
  double pair_s = 0;
  do {
    double pair_start = Now();
    Timed plain = TimeTrial(unit.config, unit.seed);
    checker.Check(0, plain.result, "untraced trial");
    Timed prof = TimeTrial(profiled, unit.seed);
    checker.Check(0, prof.result, "profiled trial");
    if (traced.empty()) first = prof.result;
    traced.push_back(TrialLayerMetrics(prof.result));
    traced_wall.push_back(prof.wall_s);
    untraced_wall.push_back(plain.wall_s);
    untraced_cpu.push_back(plain.cpu_s);
    pair_s = Now() - pair_start;
  } while (Now() - start + pair_s <= options.seconds);

  RunReport report;
  Metrics& m = report.metrics;
  for (const auto& [name, unused] : traced.front()) {
    std::vector<double> values;
    for (const Metrics& t : traced) values.push_back(t.at(name));
    m[name] = Median(std::move(values));
  }
  m.insert(outside.begin(), outside.end());
  const double k = first.resolved_shards;
  const double wall_t = Median(traced_wall);
  const double wall_u = Median(untraced_wall);
  m["sim.shard.event_inflation"] = Ratio(first.sim_events, sequential_events);
  m["sim.shard.core_util"] = Ratio(Median(untraced_cpu), k * wall_u);
  const double buckets = m["sim.queue.self_s"] + m["sim.radio.self_s"] +
                         m["core.agent.self_s"] + m["sim.shard.sync_s"] + m["obs.other_s"];
  m["obs.bucket_coverage"] = Ratio(buckets, k * wall_t);
  m["obs.profile_overhead_frac"] = Ratio(wall_t, wall_u) - 1.0;
  m["peak_rss_mb"] = PeakRssMb();
  report.attempted = checker.attempted();
  report.failed = checker.failed();
  m["failed_frac"] = Ratio(static_cast<double>(report.failed),
                           static_cast<double>(report.attempted));

  // The per-layer table: where the traced trial's wall (x K) went, then
  // every layer metric with the end-to-end metric it should move.
  char line[256];
  std::snprintf(line, sizeof(line),
                "== %s: %zu traced + %zu untraced trials, K = %g, traced wall %.4f s, "
                "untraced wall %.4f s ==",
                workload.name, traced.size(), untraced_wall.size(), k, wall_t, wall_u);
  report.table.push_back(line);
  const std::pair<const char*, const char*> kBuckets[] = {
      {"queue", "sim.queue.self_s"},    {"radio", "sim.radio.self_s"},
      {"agent", "core.agent.self_s"},   {"shard_sync", "sim.shard.sync_s"},
      {"other", "obs.other_s"},
  };
  for (const auto& [label, key] : kBuckets) {
    std::snprintf(line, sizeof(line), "  self %-10s %10.4f s  %5.1f%% of wall x K", label,
                  m[key], 100.0 * Ratio(m[key], k * wall_t));
    report.table.push_back(line);
  }
  const double coverage = m["obs.bucket_coverage"];
  std::snprintf(line, sizeof(line), "  buckets sum %.4f s = %.1f%% of %.4f s (wall x K): %s",
                buckets, 100.0 * coverage, k * wall_t,
                std::abs(coverage - 1.0) <= 0.10 ? "within 10%" : "OUTSIDE 10%");
  report.table.push_back(line);
  report.table.push_back("  metric                                  value unit   moves");
  for (const MetricSpec& spec : LayerMetrics()) {
    report.table.push_back(FormatRow(spec.name, m[spec.name], spec.unit, spec.moves));
  }
  return report;
}

}  // namespace

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> kSpecs = {
      {"trial_wall_s", "s", ""},
      {"setup_s", "s", ""},
      {"cpu_s", "s", ""},
  };
  return kSpecs;
}

const std::vector<MetricSpec>& LayerMetrics() {
  static const std::vector<MetricSpec> kSpecs = {
      {"sim.topology.build_s", "s", "setup_s, all workloads"},
      {"sim.topology.audible_links", "count", "context"},
      {"sim.partition.build_s", "s", "setup_s, grid_1024_k4"},
      {"sim.partition.cut_edges", "count", "sim.shard.*, trial_wall_s, grid_1024_k4"},
      {"sim.partition.imbalance", "ratio", "sim.shard.*, trial_wall_s, grid_1024_k4"},
      {"sim.queue.self_s", "s", "trial_wall_s, grid_1024 + churn_reboot"},
      {"sim.queue.events", "count", "trial_wall_s, grid_1024 + churn_reboot"},
      {"sim.queue.wheel_absorb_rate", "ratio", "trial_wall_s, grid_1024 + churn_reboot"},
      {"sim.queue.ns_per_event", "ns", "compare within one engine only"},
      {"sim.radio.self_s", "s", "trial_wall_s, grid_1024"},
      {"sim.radio.tx", "count", "simulated: speed-only changes keep it identical"},
      {"sim.radio.retx_frac", "ratio", "simulated: speed-only changes keep it identical"},
      {"sim.radio.mac_drop_frac", "ratio", "simulated: speed-only changes keep it identical"},
      {"sim.shard.sync_s", "s", "trial_wall_s + cpu_s, grid_1024_k4"},
      {"sim.shard.stall_s", "s", "trial_wall_s + cpu_s, grid_1024_k4"},
      {"sim.shard.stall_episodes", "count", "trial_wall_s + cpu_s, grid_1024_k4"},
      {"sim.shard.mirrored_frames", "count", "trial_wall_s + cpu_s, grid_1024_k4"},
      {"sim.shard.event_inflation", "ratio", "events at K / sequential events"},
      {"sim.shard.core_util", "ratio", "cpu_s / (K x trial_wall_s)"},
      {"core.agent.self_s", "s", "trial_wall_s, churn_reboot"},
      {"core.xmits.build_s", "s", "setup_s; remap cost on churn_reboot"},
      {"core.index.build_s", "s", "trial_wall_s, grid_1024"},
      {"core.send_retries", "count", "retry path, churn_reboot"},
      {"core.queries_reissued", "count", "retry path, churn_reboot"},
      {"core.readings_rehomed", "count", "retry path, churn_reboot"},
      {"common.node_set.codec_ns", "ns", "trial_wall_s, grid_1024"},
      {"fault.plan_build_s", "s", "setup_s, churn_reboot"},
      {"fault.events", "count", "setup_s, churn_reboot"},
      {"obs.other_s", "s", "unattributed profiler bucket"},
      {"obs.bucket_coverage", "ratio", "bucket sum / (traced wall x K)"},
      {"obs.profile_overhead_frac", "ratio", "traced / untraced trial wall - 1"},
      {"failed_frac", "ratio", "failed / attempted trials"},
      {"peak_rss_mb", "MB", "peak resident memory of the traced run's process"},
  };
  return kSpecs;
}

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> kWorkloads = {
      {"grid_1024", "grid_1024", 1, sim::PartitionKind::kStrip, 2, 0.70, 0.04, 1.0},
      {"grid_1024_k4", "grid_1024", 4, sim::PartitionKind::kMincut, 2, 0.70, 0.04, 1.0},
      {"churn_reboot", "churn_reboot", 1, sim::PartitionKind::kStrip, 40, 0.80, 0.0, 0.05},
  };
  return kWorkloads;
}

const Workload* FindWorkload(std::string_view name) {
  for (const Workload& w : Workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::vector<TrialUnit> MakeUnits(const Workload& workload, uint64_t bench_seed,
                                 bool downscale) {
  Result<scenario::Scenario> parsed = scenario::LoadRegisteredScenario(workload.scenario);
  SCOOP_CHECK(parsed.ok());
  Result<std::vector<scenario::ExpandedRun>> runs = scenario::ExpandScenario(parsed.value());
  SCOOP_CHECK(runs.ok());
  const uint64_t shift = bench_seed * runs.value().size();
  std::vector<TrialUnit> units;
  for (const scenario::ExpandedRun& run : runs.value()) {
    ExperimentConfig config = run.config;
    config.seed += shift;
    config.shards = workload.shards;
    config.partition = workload.partition;
    if (!downscale) config.trials = std::max(config.trials, workload.trials_per_config);
    if (downscale && config.preset == harness::TopologyPreset::kGrid) {
      config.num_nodes = std::min(config.num_nodes, 100);
      config.stabilization = Minutes(2);
      config.duration = Minutes(6);
    }
    for (int t = 0; t < config.trials; ++t) {
      units.push_back(TrialUnit{config, MixSeed(config.seed, static_cast<uint64_t>(t))});
    }
  }
  return units;
}

ExperimentConfig SetupOnlyConfig(ExperimentConfig config) {
  config.duration = Millis(1);
  return config;
}

uint64_t ResultDigest(const ExperimentResult& result) {
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    for (int i = 0; i < 8; ++i) {
      h ^= (bits >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  size_t count = 0;
  const scenario::MetricColumn* columns = scenario::MetricColumns(&count);
  for (size_t i = 0; i < count; ++i) mix(columns[i].get(result));
  for (const ExperimentResult::QueryTimelinePoint& p : result.query_timeline) {
    mix(p.t_seconds);
    mix(p.targets);
    mix(p.responders);
  }
  return h;
}

std::string BandViolation(const Workload& workload, const ExperimentResult& r) {
  char buf[160];
  if (r.readings_produced <= 0 || r.queries_issued <= 0) {
    return "no readings produced or no queries issued";
  }
  if (!(r.storage_success >= workload.min_storage_success)) {
    std::snprintf(buf, sizeof(buf), "storage_success %.4f < %.2f", r.storage_success,
                  workload.min_storage_success);
    return buf;
  }
  if (!(r.query_success >= workload.min_query_success)) {
    std::snprintf(buf, sizeof(buf), "query_success %.4f < %.2f", r.query_success,
                  workload.min_query_success);
    return buf;
  }
  if (r.readings_lost > workload.max_lost_frac * r.readings_produced) {
    std::snprintf(buf, sizeof(buf), "readings_lost %.0f > %.2f of %.0f produced",
                  r.readings_lost, workload.max_lost_frac, r.readings_produced);
    return buf;
  }
  return "";
}

Metrics TrialLayerMetrics(const ExperimentResult& r) {
  const double wheel_total = r.queue_wheel_absorbed + r.queue_wheel_spilled;
  return Metrics{
      {"sim.partition.cut_edges", r.partition_cut_edges},
      {"sim.partition.imbalance", r.partition_imbalance},
      {"sim.queue.self_s", r.profile_queue_seconds},
      {"sim.queue.events", r.sim_events},
      {"sim.queue.wheel_absorb_rate", Ratio(r.queue_wheel_absorbed, wheel_total)},
      {"sim.queue.ns_per_event", Ratio(r.profile_queue_seconds * 1e9, r.sim_events)},
      {"sim.radio.self_s", r.profile_radio_seconds},
      {"sim.radio.tx", r.total},
      {"sim.radio.retx_frac", Ratio(r.retransmissions, r.total)},
      {"sim.radio.mac_drop_frac", Ratio(r.mac_drops, r.total)},
      {"sim.shard.sync_s", r.profile_shard_sync_seconds},
      {"sim.shard.stall_s", r.shard_stall_us * 1e-6},
      {"sim.shard.stall_episodes", r.shard_stall_episodes},
      {"sim.shard.mirrored_frames", r.shard_mirrored_frames},
      {"core.agent.self_s", r.profile_agent_seconds},
      {"core.send_retries", r.send_retries},
      {"core.queries_reissued", r.queries_reissued},
      {"core.readings_rehomed", r.readings_rehomed},
      {"obs.other_s", r.profile_other_seconds},
  };
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

RunReport RunWorkload(const Workload& workload, uint64_t bench_seed, const RunOptions& options) {
  std::vector<TrialUnit> units = MakeUnits(workload, bench_seed, options.downscale);
  return options.trace ? RunTraced(workload, units, options) : RunTimed(workload, units, options);
}

std::string ResultJson(const RunReport& report, const std::vector<MetricSpec>& specs) {
  std::string out = "{\"correct\": ";
  out += report.failed == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(report.attempted);
  out += ", \"failed\": " + std::to_string(report.failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < specs.size(); ++i) {
    auto it = report.metrics.find(specs[i].name);
    double value = it == report.metrics.end() ? 0.0 : it->second;
    if (i > 0) out += ", ";
    out += "\"" + std::string(specs[i].name) + "\": {\"value\": " + FormatNumber(value) +
           ", \"unit\": \"" + specs[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

std::string BuildStampJson() {
  cpu_set_t set;
  CPU_ZERO(&set);
  int affinity = sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : 0;
#if defined(__clang__)
  const char* compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  const char* compiler = "gcc " __VERSION__;
#else
  const char* compiler = "unknown";
#endif
#ifdef NDEBUG
  const char* assertions = "off";
#else
  const char* assertions = "on";
#endif
  std::string out = "{\"nproc\": " + std::to_string(affinity);
  out += ", \"build_type\": \"" + std::string(PERFBENCH_BUILD_TYPE) + "\"";
  out += ", \"compiler\": \"" + std::string(compiler) + "\"";
  out += ", \"sanitize\": \"" + std::string(PERFBENCH_SANITIZE) + "\"";
  out += ", \"assertions\": \"" + std::string(assertions) + "\"}";
  return out;
}

std::string UnfitBuildReason() {
  std::string build_type = PERFBENCH_BUILD_TYPE;
  if (build_type == "Debug" || build_type.empty()) {
    return "build type '" + build_type + "' is unoptimized";
  }
  if (!std::string(PERFBENCH_SANITIZE).empty()) {
    return "sanitizers '" + std::string(PERFBENCH_SANITIZE) + "' are compiled in";
  }
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "a sanitizer is compiled in";
#endif
#ifndef NDEBUG
  return "assertions are on (NDEBUG unset)";
#endif
  return "";
}

}  // namespace scoop::perfbench
