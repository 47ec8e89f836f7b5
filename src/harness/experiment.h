// Experiment harness: assembles a full simulated Scoop/LOCAL/BASE/HASH
// deployment from an ExperimentConfig, runs it (optionally over several
// trials), and aggregates the paper's metrics -- message counts by type,
// success rates, per-node skew, and energy/lifetime estimates. The
// campaign runner (and through it every figure and table scenario), the
// integration tests, and the examples drive this.
#ifndef SCOOP_HARNESS_EXPERIMENT_H_
#define SCOOP_HARNESS_EXPERIMENT_H_

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "core/hash_model.h"
#include "core/index_builder.h"
#include "fault/fault_plan.h"
#include "metrics/telemetry.h"
#include "net/wire.h"
#include "sim/partition.h"
#include "workload/data_source.h"

namespace scoop::harness {

/// Storage policy under test (§6 systems table).
enum class Policy {
  kScoop,           ///< Full Scoop (adaptive index).
  kLocal,           ///< Store locally, flood queries.
  kBase,            ///< Send everything to the basestation.
  kHashAnalytical,  ///< GHT-style hashing, closed-form model (like paper).
  kHashSim,         ///< GHT-style hashing, fully simulated (extension).
};

const char* PolicyName(Policy policy);

/// Topology families (§6: 62-node office testbed and TOSSIM topologies,
/// plus the dense-lattice extension).
enum class TopologyPreset {
  kTestbed,  ///< Elongated office floor, base near one end.
  kRandom,   ///< Uniform square area, base in a corner.
  kGrid,     ///< Dense square lattice, base at a corner.
};

const char* TopologyPresetName(TopologyPreset preset);

/// One experiment specification. Defaults mirror the paper's §6 table.
struct ExperimentConfig {
  Policy policy = Policy::kScoop;
  workload::DataSourceKind source = workload::DataSourceKind::kReal;
  workload::DataSourceOptions source_options;

  TopologyPreset preset = TopologyPreset::kRandom;
  int num_nodes = 63;  ///< 62 sensors + 1 basestation.

  SimTime duration = Minutes(40);
  SimTime stabilization = Minutes(10);

  SimTime sample_interval = Seconds(15);
  SimTime summary_interval = Seconds(110);
  SimTime remap_interval = Seconds(240);

  bool queries_enabled = true;
  SimTime query_interval = Seconds(15);
  /// Queries per burst: every query_interval, this many queries are issued
  /// back to back (spaced query_burst_spacing apart). 1 = the paper's
  /// steady workload; >1 models a user session hammering the basestation.
  int query_burst_size = 1;
  SimTime query_burst_spacing = Seconds(1);
  /// Value-range queries (§3 default) or explicit node-list queries (§5.5,
  /// used by Figure 4's selectivity sweep).
  enum class QueryMode { kValueRange, kNodeList };
  QueryMode query_mode = QueryMode::kValueRange;
  /// Query width as a fraction of the value domain (paper: 1-5%).
  double query_width_lo = 0.01;
  double query_width_hi = 0.05;
  /// kNodeList: fraction of the (non-base) nodes each query names.
  double node_list_fraction = 0.10;

  int trials = 3;
  uint64_t seed = 42;

  /// Shards (threads) one trial is split across by the engine
  /// (sim/sharded_engine.h). 1 = one shard run inline on the calling
  /// thread; K >= 2 = K shards on K threads; 0 = auto (K from the
  /// hardware). Results are bit-identical for every K; only wall-clock
  /// speed changes.
  int shards = 1;

  /// How multi-shard trials split the topology (sim/partition.h):
  /// contiguous coordinate strips or min-cut regions on the audible graph.
  /// Results are identical for both kinds (and a single shard has nothing
  /// to split); only boundary traffic and wall-clock speed change.
  sim::PartitionKind partition = sim::PartitionKind::kStrip;

  /// Crash-stop failure injection (the fault.crash_* scenario keys): this
  /// fraction of non-base nodes loses its radio at `failure_time` (0 = no
  /// failures). Models the §2.1 observation that nodes fail or move out
  /// of range mid-deployment.
  double node_failure_fraction = 0.0;
  SimTime failure_time = Minutes(20);
  /// Failure waves: the fraction above is killed again at each of
  /// `failure_wave_count` instants spaced `failure_wave_interval` apart
  /// (wave w at failure_time + w * interval), each wave claiming fresh
  /// victims. 1 = the single mid-run failure event.
  int failure_wave_count = 1;
  SimTime failure_wave_interval = Minutes(5);

  /// Typed fault injection (src/fault/): crash-reboot churn, link
  /// degradation, spatial partitions, base outage/failover, and the
  /// graceful-degradation knobs. Together with the crash-stop fields above
  /// it feeds one FaultPlan per trial, built deterministically from
  /// (config, topology, seed).
  fault::FaultConfig fault;

  // --- Scoop feature knobs (ablations) ---
  int max_batch = 5;
  bool enable_neighbor_shortcut = true;
  bool enable_descendant_routing = true;
  core::IndexBuilderOptions builder;

  // --- Observability (src/obs/; all off by default) ---
  /// Chrome-trace JSON output path ("" = tracing off). Multi-trial runs
  /// write one file per trial (a "-t<trial>" suffix is inserted).
  std::string trace_out;
  /// Metrics JSONL output path ("" = metrics off); same per-trial suffix.
  std::string metrics_out;
  /// Simulated-time grid the metrics registry is sampled on.
  SimTime metrics_interval = Seconds(10);
  /// Attach the wall-clock sim profiler; bucket seconds land in the
  /// profile_*_seconds result fields (perf-only, like wall_seconds).
  bool profile = false;
};

/// Aggregated (trial-averaged) results.
struct ExperimentResult {
  /// Transmissions by packet type, including retransmissions.
  std::array<double, kNumPacketTypes> sent_by_type{};
  double total = 0;               ///< All transmissions.
  double total_excl_beacons = 0;  ///< The paper's Figure 3 cost metric.
  double retransmissions = 0;
  double mac_drops = 0;

  // Figure 3 breakdown convenience accessors.
  double data() const { return sent_by_type[static_cast<size_t>(PacketType::kData)]; }
  double summary() const {
    return sent_by_type[static_cast<size_t>(PacketType::kSummary)];
  }
  double mapping() const {
    return sent_by_type[static_cast<size_t>(PacketType::kMapping)];
  }
  double query_reply() const {
    return sent_by_type[static_cast<size_t>(PacketType::kQuery)] +
           sent_by_type[static_cast<size_t>(PacketType::kReply)];
  }

  // Success metrics (§6 "other experiments").
  /// Stored / produced (paper ~93%). Counts stores, not unique readings:
  /// with fault.send_retry_max > 0 an ACK-lost-but-delivered send gets
  /// retried and stored twice (at-least-once delivery), so heavy-churn
  /// runs can exceed 1.0.
  double storage_success = 0;
  double owner_hit_rate = 0;    ///< Stored at mapped owner (paper ~85%).
  double query_success = 0;     ///< Replies received / asked (paper ~78%).
  double summary_delivery = 0;  ///< Summaries reaching base (paper ~60%).

  // Graceful degradation under faults (src/fault/).
  double readings_lost = 0;      ///< Readings dropped with no fallback storage.
  double readings_orphaned = 0;  ///< Parked locally: owner unreachable.
  double readings_rehomed = 0;   ///< Orphans re-routed after a later remap.
  double queries_reissued = 0;   ///< Base-side timeout re-issues.
  double parent_losses = 0;      ///< Routing-tree parent evictions.
  double send_retries = 0;       ///< Bounded-backoff send retries scheduled.

  /// One row per closed query: when it closed, how many nodes it asked,
  /// how many answered. Deterministic for a fixed seed (close order).
  /// Single-trial runs only -- AggregateTrials leaves it empty -- and not
  /// a CSV column; the churn integration test reads recovery off it.
  struct QueryTimelinePoint {
    double t_seconds = 0;
    int targets = 0;
    int responders = 0;
  };
  std::vector<QueryTimelinePoint> query_timeline;

  // Workload volume.
  double readings_produced = 0;
  double queries_issued = 0;
  double tuples_returned = 0;
  double avg_pct_nodes_queried = 0;  ///< Figure 4 x-axis.

  // Index lifecycle.
  double indices_built = 0;
  double indices_disseminated = 0;
  double indices_suppressed = 0;
  /// Fraction of the value domain the final index maps to the basestation
  /// (P2: grows with query pressure). Scoop policy only.
  double base_owned_fraction = 0;

  // Root skew (§6).
  double root_sent = 0;
  double root_received = 0;
  double avg_node_sent = 0;  ///< Mean over non-root nodes.
  double max_node_sent = 0;

  // Energy/lifetime (§2.1 model).
  double avg_node_lifetime_days = 0;
  double root_lifetime_days = 0;

  // Perf telemetry (host-side). Deliberately NOT part of the deterministic
  // metric-column table the table and CSV reporters render: wall time varies
  // run to run, and those outputs must stay byte-identical for a fixed
  // seed. The campaign runner surfaces these via its perf report instead.
  double wall_seconds = 0;  ///< Host wall-clock the trial took.
  double sim_events = 0;    ///< Discrete events the trial executed.
  /// Always 0: the queue has no timer wheel; kept because perfbench reads them.
  double queue_wheel_absorbed = 0;
  double queue_wheel_spilled = 0;

  // Profiler buckets (wall-clock attribution, config.profile only; same
  // perf-only status as wall_seconds). Multi-shard trials sum across shard
  // threads, so the buckets total ~K times the elapsed wall time.
  double profile_queue_seconds = 0;
  double profile_radio_seconds = 0;
  double profile_agent_seconds = 0;
  double profile_shard_sync_seconds = 0;
  double profile_other_seconds = 0;

  // Shard telemetry (perf-only, like wall_seconds; stall_* and
  // mirrored_frames are zero for single-shard trials). `resolved_shards`
  // is the K the trial actually ran at -- recorded so `--shards=0` (auto)
  // perf probes are unambiguous across machines. stall_* are wall-clock
  // derived and nondeterministic; mirrored_frames / partition_* are
  // deterministic for a fixed (config, K, partition).
  double resolved_shards = 1;
  double shard_stall_us = 0;
  double shard_stall_episodes = 0;
  double shard_mirrored_frames = 0;
  double partition_cut_edges = 0;
  double partition_imbalance = 0;
};

/// Runs `config.trials` trials (seeds derived from config.seed) and averages.
ExperimentResult RunExperiment(const ExperimentConfig& config);

/// Runs a single trial with an explicit seed, at ResolvedShards(config)
/// shards.
ExperimentResult RunTrial(const ExperimentConfig& config, uint64_t seed);

/// Runs a single trial with an explicit shard count (>= 1), overriding
/// config.shards. Produces identical results for every `shards` value;
/// the K=1 run is the determinism reference the equivalence suite pins
/// against.
ExperimentResult RunShardedTrial(const ExperimentConfig& config, uint64_t seed,
                                 int shards);

/// The shard count `config.shards` resolves to: the value itself, or the
/// hardware concurrency (clamped to [1, 8]) when 0 (auto).
int ResolvedShards(const ExperimentConfig& config);

/// Runs one trial of any policy with an explicit seed: simulation for the
/// simulated policies, the closed-form model for kHashAnalytical. Reentrant
/// (no shared mutable state), so trials may run on concurrent threads; the
/// campaign runner shards on this.
ExperimentResult RunAnyTrial(const ExperimentConfig& config, uint64_t seed);

/// Averages per-trial rows into the aggregate the campaign reports. Summation
/// follows the order of `trials`, so a fixed row order yields bit-identical
/// aggregates regardless of how the trials were scheduled.
ExperimentResult AggregateTrials(const std::vector<ExperimentResult>& trials);

/// Inserts `suffix` before `path`'s extension ("a/b.json" + "-t1" ->
/// "a/b-t1.json"); appended when there is no extension. "" passes through.
/// Used to split trace/metrics outputs per trial and per campaign combo.
std::string ExpandObsPath(const std::string& path, const std::string& suffix);

/// Evaluates the paper's analytical HASH model for this workload over the
/// same topology the simulation would use.
core::HashModelResult RunHashAnalysis(const ExperimentConfig& config, uint64_t seed);

}  // namespace scoop::harness

#endif  // SCOOP_HARNESS_EXPERIMENT_H_
