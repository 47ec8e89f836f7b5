#include "harness/experiment.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <thread>

#include "common/check.h"
#include "common/logging.h"
#include "common/rng.h"
#include "core/agent_base.h"
#include "core/policy_agents.h"
#include "core/query.h"
#include "core/scoop_base_agent.h"
#include "core/scoop_node_agent.h"
#include "metrics/energy_model.h"
#include "metrics/message_stats.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "sim/radio_constants.h"
#include "sim/sharded_engine.h"
#include "sim/topology.h"

namespace scoop::harness {

namespace {

using core::AgentBase;
using core::AgentConfig;
using core::Query;

sim::Topology MakeTopology(const ExperimentConfig& config, uint64_t seed) {
  if (config.preset == TopologyPreset::kTestbed) {
    sim::TestbedTopologyOptions opts;
    opts.num_nodes = config.num_nodes;
    opts.seed = seed;
    return sim::Topology::MakeTestbed(opts);
  }
  if (config.preset == TopologyPreset::kGrid) {
    sim::GridTopologyOptions opts;
    opts.num_nodes = config.num_nodes;
    opts.seed = seed;
    return sim::Topology::MakeGrid(opts);
  }
  sim::RandomTopologyOptions opts;
  opts.num_nodes = config.num_nodes;
  opts.seed = seed;
  return sim::Topology::MakeRandom(opts);
}

AgentConfig MakeAgentConfig(const ExperimentConfig& config, NodeId self,
                            metrics::Telemetry* telemetry, obs::TraceSink* trace,
                            workload::DataSource* source) {
  AgentConfig agent;
  agent.self = self;
  agent.base = 0;
  agent.num_nodes = config.num_nodes;
  agent.sample_interval = config.sample_interval;
  agent.summary_interval = config.summary_interval;
  agent.remap_interval = config.remap_interval;
  agent.sampling_start = config.stabilization;
  agent.max_batch = config.max_batch;
  agent.enable_neighbor_shortcut = config.enable_neighbor_shortcut;
  agent.enable_descendant_routing = config.enable_descendant_routing;
  agent.builder = config.builder;
  agent.hash_domain = source->domain();
  agent.fault_orphan_rehoming = config.fault.orphan_rehoming;
  agent.fault_send_retry_max = config.fault.send_retry_max;
  agent.fault_query_reissue_max = config.fault.query_reissue_max;
  agent.telemetry = telemetry;
  agent.trace = trace;
  agent.sample_fn = [source](NodeId node, SimTime now) { return source->Next(node, now); };
  return agent;
}

/// Writes `text` to `path`, logging (not failing) on I/O errors so a bad
/// trace path never kills a finished trial.
void WriteTextFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    SCOOP_LOG(kWarning) << "cannot open " << path << " for writing";
    return;
  }
  out << text;
  if (!out.good()) {
    SCOOP_LOG(kWarning) << "short write to " << path;
  }
}

/// Folds one profiler's buckets into the result's perf fields. The
/// profiler must already be stopped at the end of its shard's run loop, so
/// post-run work -- trace export, result collection -- never pollutes the
/// buckets.
void AddProfile(ExperimentResult* r, obs::SimProfiler* profiler) {
  if (profiler == nullptr) return;
  r->profile_queue_seconds += profiler->Seconds(obs::SimProfiler::kQueue);
  r->profile_radio_seconds += profiler->Seconds(obs::SimProfiler::kRadio);
  r->profile_agent_seconds += profiler->Seconds(obs::SimProfiler::kAgent);
  r->profile_shard_sync_seconds += profiler->Seconds(obs::SimProfiler::kShardSync);
  r->profile_other_seconds += profiler->Seconds(obs::SimProfiler::kOther);
}

/// Per-shard sinks, indexed by shard: each agent reports into its owning
/// shard's Telemetry and trace sink, so shards never contend.
using ShardTelemetry = std::vector<metrics::Telemetry>;
using ShardTraces = std::vector<std::unique_ptr<obs::TraceSink>>;

/// Installs one base agent (node 0) plus num_nodes-1 node agents on the
/// engine, wiring each to its owning shard's sinks. Returns the base.
template <typename BaseT, typename NodeT>
AgentBase* InstallPolicy(sim::ShardedEngine* engine, const ExperimentConfig& config,
                         ShardTelemetry* telemetry, const ShardTraces& traces,
                         workload::DataSource* source) {
  auto agent_config = [&](NodeId id) {
    size_t s = static_cast<size_t>(engine->shard_of(id));
    return MakeAgentConfig(config, id, &(*telemetry)[s], traces[s].get(), source);
  };
  auto base = std::make_unique<BaseT>(agent_config(0));
  AgentBase* base_ptr = base.get();
  engine->SetApp(0, std::move(base));
  for (int i = 1; i < config.num_nodes; ++i) {
    NodeId id = static_cast<NodeId>(i);
    engine->SetApp(id, std::make_unique<NodeT>(agent_config(id)));
  }
  return base_ptr;
}

AgentBase* InstallAgents(sim::ShardedEngine* engine, const ExperimentConfig& config,
                         ShardTelemetry* telemetry, const ShardTraces& traces,
                         workload::DataSource* source) {
  switch (config.policy) {
    case Policy::kScoop:
      return InstallPolicy<core::ScoopBaseAgent, core::ScoopNodeAgent>(
          engine, config, telemetry, traces, source);
    case Policy::kLocal:
      return InstallPolicy<core::LocalBaseAgent, core::LocalNodeAgent>(
          engine, config, telemetry, traces, source);
    case Policy::kBase:
      return InstallPolicy<core::BasePolicyBaseAgent, core::BasePolicyNodeAgent>(
          engine, config, telemetry, traces, source);
    case Policy::kHashSim:
      return InstallPolicy<core::HashBaseAgent, core::HashNodeAgent>(
          engine, config, telemetry, traces, source);
    case Policy::kHashAnalytical:
      SCOOP_CHECK(false);  // RunAnyTrial evaluates the model instead.
  }
  return nullptr;
}

/// Generates the §6 query workload: every query_interval, a value-range
/// query over 1-5% of the domain, about the recent past. Its events run on
/// the shard that owns the basestation.
class QueryDriver {
 public:
  QueryDriver(sim::ShardedEngine* engine, const ExperimentConfig& config, AgentBase* base,
              ValueRange domain, uint64_t seed)
      : engine_(engine),
        config_(config),
        base_(base),
        domain_(domain),
        rng_(MixSeed(seed, 0x9E44)) {}

  void Start() {
    if (!config_.queries_enabled) return;
    ScheduleNext(config_.stabilization + config_.query_interval);
  }

  double AvgPctNodesQueried() const {
    return issued_ == 0 ? 0.0 : pct_sum_ / static_cast<double>(issued_);
  }

 private:
  void ScheduleNext(SimTime at) {
    if (at > config_.duration - Seconds(2)) return;
    engine_->ScheduleDriver(at, [this, at] {
      IssueOne();
      // Burst mode: the remaining burst_size-1 queries follow at
      // burst-spacing offsets (burst_size == 1 schedules nothing extra, so
      // the steady workload's event sequence is untouched).
      for (int k = 1; k < config_.query_burst_size; ++k) {
        SimTime burst_at = at + k * config_.query_burst_spacing;
        if (burst_at > config_.duration - Seconds(2)) break;
        engine_->ScheduleDriver(burst_at, [this] { IssueOne(); });
      }
      ScheduleNext(at + config_.query_interval);
    });
  }

  void IssueOne() {
    SimTime now = engine_->DriverNow();
    Query query;
    query.time_lo = std::max<SimTime>(0, now - kHistoryWindow);
    query.time_hi = now;
    if (config_.query_mode == ExperimentConfig::QueryMode::kNodeList) {
      // §5.5: "a user can query values from one or more specific nodes".
      int pool = config_.num_nodes - 1;
      int count = std::clamp(
          static_cast<int>(std::lround(config_.node_list_fraction * pool)), 1, pool);
      std::vector<NodeId> all;
      for (int i = 1; i < config_.num_nodes; ++i) all.push_back(static_cast<NodeId>(i));
      rng_.Shuffle(all.begin(), all.end());
      query.explicit_nodes.assign(all.begin(), all.begin() + count);
    } else {
      int64_t domain_size = static_cast<int64_t>(domain_.hi) - domain_.lo + 1;
      double frac =
          config_.query_width_lo +
          rng_.UniformDouble() * (config_.query_width_hi - config_.query_width_lo);
      int64_t width = std::max<int64_t>(1, static_cast<int64_t>(frac * domain_size));
      int64_t start_max = domain_size - width;
      Value lo = domain_.lo + static_cast<Value>(rng_.UniformInt(0, start_max));
      query.ranges.push_back(ValueRange{lo, lo + static_cast<Value>(width) - 1});
    }
    base_->IssueQuery(query);
    ++issued_;
    // Figure 4's x-axis: how many nodes the planner decided to ask, read
    // off the telemetry delta this query caused.
    const metrics::Telemetry& t = *base_->config().telemetry;
    double delta = static_cast<double>(t.query_targets_total - last_targets_total_);
    last_targets_total_ = t.query_targets_total;
    pct_sum_ += delta / static_cast<double>(config_.num_nodes - 1);
  }

  /// Queries ask about this much recent history (§3: snapshot queries over
  /// recent readings).
  static constexpr SimTime kHistoryWindow = Seconds(60);

  sim::ShardedEngine* engine_;
  ExperimentConfig config_;
  AgentBase* base_;
  ValueRange domain_;
  Rng rng_;
  uint64_t issued_ = 0;
  double pct_sum_ = 0;
  uint64_t last_targets_total_ = 0;
};

/// Builds the trial's FaultPlan, folding the legacy failure_* knobs in as
/// crash-stop waves (identical victim selection and timing to the historic
/// BuildFailureWaves).
fault::FaultPlan BuildTrialFaultPlan(const ExperimentConfig& config,
                                     const sim::Topology& topology, uint64_t seed) {
  fault::LegacyCrashWaves legacy;
  legacy.fraction = config.node_failure_fraction;
  legacy.at = config.failure_time;
  legacy.wave_count = config.failure_wave_count;
  legacy.wave_interval = config.failure_wave_interval;
  return fault::BuildFaultPlan(config.fault, legacy, topology, config.num_nodes, seed);
}

/// True when the trial has any fault machinery on: scheduled events, link
/// windows, or agent-side degradation knobs. Gates the fault counters and
/// gauges so fault-free runs export exactly the metrics they always did.
bool FaultActive(const ExperimentConfig& config, const fault::FaultPlan& plan) {
  return plan.any() || config.fault.orphan_rehoming ||
         config.fault.send_retry_max > 0 || config.fault.query_reissue_max > 0;
}

/// Per-sink observability for fault events: counters on the PR 7 metrics
/// grid plus `fault.*` trace instants. All members null = off; recording
/// is branch-on-null, so fault application is identical with obs on/off.
struct FaultObs {
  obs::TraceSink* trace = nullptr;
  uint64_t* crash = nullptr;
  uint64_t* reboot = nullptr;
  uint64_t* partition = nullptr;

  void Resolve(obs::MetricsRegistry* registry) {
    if (registry == nullptr) return;
    crash = registry->Counter("fault.crash");
    reboot = registry->Counter("fault.reboot");
    partition = registry->Counter("fault.partition");
  }
};

const char* FaultInstantName(fault::FaultKind kind) {
  switch (kind) {
    case fault::FaultKind::kRadioDown:
    case fault::FaultKind::kCrash:
      return "fault.crash";
    case fault::FaultKind::kRadioUp:
      return "fault.radio_up";
    case fault::FaultKind::kReboot:
      return "fault.reboot";
    case fault::FaultKind::kPromote:
      return "fault.promote";
    case fault::FaultKind::kDemote:
      return "fault.demote";
    case fault::FaultKind::kMarkPartition:
      return "fault.partition";
  }
  return "fault.?";
}

void RecordFaultObs(FaultObs* obs, const fault::FaultEvent& ev, SimTime now) {
  switch (ev.kind) {
    case fault::FaultKind::kRadioDown:
    case fault::FaultKind::kCrash:
      if (obs->crash != nullptr) ++*obs->crash;
      break;
    case fault::FaultKind::kReboot:
      if (obs->reboot != nullptr) ++*obs->reboot;
      break;
    case fault::FaultKind::kMarkPartition:
      if (obs->partition != nullptr) ++*obs->partition;
      break;
    default:
      break;  // kRadioUp/kPromote/kDemote: trace-only.
  }
  if (obs->trace != nullptr) {
    obs->trace->Instant(now, FaultInstantName(ev.kind), obs::TraceCat::kFault,
                        ev.node, "kind", static_cast<uint64_t>(ev.kind));
  }
}

/// Post-run metric collection. `processed` is the engine's total
/// executed-event count.
ExperimentResult CollectResult(const ExperimentConfig& config,
                               const metrics::MessageStats& stats,
                               const metrics::Telemetry& telemetry,
                               double avg_pct_nodes_queried, AgentBase* base_agent,
                               uint64_t processed) {
  ExperimentResult r;
  for (int t = 0; t < kNumPacketTypes; ++t) {
    const metrics::TypeCounters& c = stats.ByType(static_cast<PacketType>(t));
    r.sent_by_type[static_cast<size_t>(t)] = static_cast<double>(c.sent);
    r.retransmissions += static_cast<double>(c.retransmissions);
  }
  r.mac_drops = static_cast<double>(stats.TotalDrops());
  r.total = static_cast<double>(stats.TotalSent());
  r.total_excl_beacons = static_cast<double>(stats.TotalSentExclBeacons());

  r.storage_success = telemetry.StorageSuccessRate();
  r.owner_hit_rate = telemetry.OwnerHitRate();
  r.query_success = telemetry.QuerySuccessRate();
  r.summary_delivery = telemetry.SummaryDeliveryRate();
  r.readings_lost = static_cast<double>(telemetry.readings_lost);
  r.readings_orphaned = static_cast<double>(telemetry.readings_orphaned);
  r.readings_rehomed = static_cast<double>(telemetry.readings_rehomed);
  r.queries_reissued = static_cast<double>(telemetry.queries_reissued);
  r.parent_losses = static_cast<double>(telemetry.parent_losses);
  r.send_retries = static_cast<double>(telemetry.send_retries);
  r.readings_produced = static_cast<double>(telemetry.readings_produced);
  r.queries_issued = static_cast<double>(telemetry.queries_issued);
  r.tuples_returned = static_cast<double>(telemetry.tuples_returned);
  r.indices_built = static_cast<double>(telemetry.indices_built);
  r.indices_disseminated = static_cast<double>(telemetry.indices_disseminated);
  r.indices_suppressed = static_cast<double>(telemetry.indices_suppressed);
  r.avg_pct_nodes_queried = avg_pct_nodes_queried;

  if (config.policy == Policy::kScoop) {
    auto* scoop_base = dynamic_cast<core::ScoopBaseAgent*>(base_agent);
    if (scoop_base != nullptr && !scoop_base->index_history().empty()) {
      const core::StorageIndex& index = scoop_base->index_history().back().index;
      int64_t domain =
          static_cast<int64_t>(index.domain_hi()) - index.domain_lo() + 1;
      // O(entries) walk over the index's coalesced ranges; equivalent to
      // (and regression-tested against) one Lookup per domain value.
      r.base_owned_fraction =
          static_cast<double>(index.OwnedValueCount(0)) / static_cast<double>(domain);
    }
  }

  r.root_sent = static_cast<double>(stats.SentBy(0));
  r.root_received = static_cast<double>(stats.ReceivedBy(0));
  double sum_sent = 0;
  uint64_t max_sent = 0;
  for (int i = 1; i < config.num_nodes; ++i) {
    uint64_t s = stats.SentBy(static_cast<NodeId>(i));
    sum_sent += static_cast<double>(s);
    max_sent = std::max(max_sent, s);
  }
  r.avg_node_sent = sum_sent / std::max(1, config.num_nodes - 1);
  r.max_node_sent = static_cast<double>(max_sent);

  // Energy: radio traffic dominates (§2.1). The lifetime comparison uses
  // workload bytes (tx + addressed rx, beacons excluded): the always-on
  // listening cost is identical across policies and would only dilute the
  // per-policy differences the paper reports.
  double sum_lifetime = 0;
  for (int i = 1; i < config.num_nodes; ++i) {
    sum_lifetime +=
        metrics::LifetimeDays(stats.WorkloadBytesBy(static_cast<NodeId>(i)), config.duration);
  }
  r.avg_node_lifetime_days = sum_lifetime / std::max(1, config.num_nodes - 1);
  r.root_lifetime_days = metrics::LifetimeDays(stats.WorkloadBytesBy(0), config.duration);
  r.sim_events = static_cast<double>(processed);
  return r;
}

}  // namespace

std::string ExpandObsPath(const std::string& path, const std::string& suffix) {
  if (path.empty()) return path;
  size_t slash = path.find_last_of('/');
  size_t dot = path.find_last_of('.');
  if (dot == std::string::npos || (slash != std::string::npos && dot < slash)) {
    std::string out = path;
    out += suffix;
    return out;
  }
  std::string out = path.substr(0, dot);
  out += suffix;
  out += path.substr(dot);
  return out;
}

const char* TopologyPresetName(TopologyPreset preset) {
  switch (preset) {
    case TopologyPreset::kTestbed:
      return "testbed";
    case TopologyPreset::kRandom:
      return "random";
    case TopologyPreset::kGrid:
      return "grid";
  }
  return "?";
}

const char* PolicyName(Policy policy) {
  switch (policy) {
    case Policy::kScoop:
      return "scoop";
    case Policy::kLocal:
      return "local";
    case Policy::kBase:
      return "base";
    case Policy::kHashAnalytical:
      return "hash";
    case Policy::kHashSim:
      return "hash-sim";
  }
  return "?";
}

ExperimentResult RunTrial(const ExperimentConfig& config, uint64_t seed) {
  return RunShardedTrial(config, seed, ResolvedShards(config));
}

int ResolvedShards(const ExperimentConfig& config) {
  if (config.shards != 0) return std::clamp(config.shards, 1, 64);
  unsigned hw = std::thread::hardware_concurrency();
  return std::clamp(hw == 0 ? 1 : static_cast<int>(hw), 1, 8);
}

ExperimentResult RunShardedTrial(const ExperimentConfig& config, uint64_t seed, int shards) {
  SCOOP_CHECK(config.policy != Policy::kHashAnalytical);
  SCOOP_CHECK_GE(config.num_nodes, 2);
  SCOOP_CHECK_LE(config.num_nodes, kMaxSupportedNodes);
  SCOOP_CHECK_GE(shards, 1);

  sim::ShardedEngineOptions opts;
  opts.seed = seed;
  opts.shards = shards;
  opts.partition = config.partition;
  sim::ShardedEngine engine(MakeTopology(config, seed), opts);
  const int k = engine.num_shards();

  // One Telemetry per shard -- agents touch only their own shard's sink, so
  // shards never contend -- merged after the run. Every counter is a sum,
  // so the merged totals are K-invariant even though the split across
  // sinks is not. The radios keep the traffic ledger the same way.
  std::vector<metrics::Telemetry> shard_telemetry(static_cast<size_t>(k));

  // Observability sinks follow the same one-per-shard rule: each shard's
  // instrumentation fires on its own thread, so shards never contend;
  // export merges them afterwards.
  std::vector<std::unique_ptr<obs::TraceSink>> traces(static_cast<size_t>(k));
  std::vector<std::unique_ptr<obs::MetricsRegistry>> registries(static_cast<size_t>(k));
  std::vector<std::unique_ptr<obs::SimProfiler>> profilers(static_cast<size_t>(k));
  for (int s = 0; s < k; ++s) {
    if (!config.trace_out.empty()) {
      traces[static_cast<size_t>(s)] = std::make_unique<obs::TraceSink>();
    }
    if (!config.metrics_out.empty()) {
      registries[static_cast<size_t>(s)] = std::make_unique<obs::MetricsRegistry>();
    }
    if (config.profile) {
      profilers[static_cast<size_t>(s)] = std::make_unique<obs::SimProfiler>();
    }
    engine.EnableObservability(s, traces[static_cast<size_t>(s)].get(),
                               registries[static_cast<size_t>(s)].get(),
                               profilers[static_cast<size_t>(s)].get(),
                               config.metrics_interval);
  }

  std::unique_ptr<workload::DataSource> source = workload::MakeDataSource(
      config.source, config.source_options, engine.topology().positions(), seed);
  AgentBase* base = InstallAgents(&engine, config, &shard_telemetry, traces, source.get());

  // Per-query success timeline; on_query_complete fires on the base
  // shard's thread only, so a plain vector is race-free.
  std::vector<ExperimentResult::QueryTimelinePoint> timeline;
  base->on_query_complete = [&timeline](const core::QueryOutcome& o) {
    timeline.push_back(ExperimentResult::QueryTimelinePoint{
        ToSeconds(o.closed_at), o.targets, o.responders});
  };

  QueryDriver queries(&engine, config, base, source->domain(), seed);

  // Fault events go through the engine's pre-Start fault channel, which
  // feeds every shard's AliveFloor (the lookahead floor that makes aborts
  // conservative). Scheduled in plan order, so same-time events keep the
  // plan's deterministic order on each shard for every K. Observability
  // lands in the victim's shard sinks (the callback runs on that thread).
  fault::FaultPlan plan = BuildTrialFaultPlan(config, engine.topology(), seed);
  if (plan.channel.active()) engine.SetFaultChannel(&plan.channel);
  std::vector<FaultObs> fault_obs(static_cast<size_t>(k));
  for (int s = 0; s < k; ++s) {
    fault_obs[static_cast<size_t>(s)].trace = traces[static_cast<size_t>(s)].get();
    if (FaultActive(config, plan)) {
      fault_obs[static_cast<size_t>(s)].Resolve(registries[static_cast<size_t>(s)].get());
    }
  }
  for (const fault::FaultEvent& ev : plan.events) {
    FaultObs* fo = &fault_obs[static_cast<size_t>(engine.shard_of(ev.node))];
    engine.ScheduleFault(ev.at, ev.node, [&engine, fo, ev] {
      switch (ev.kind) {
        case fault::FaultKind::kRadioDown:
          engine.FaultSetAlive(ev.node, false);
          break;
        case fault::FaultKind::kRadioUp:
          engine.FaultSetAlive(ev.node, true);
          break;
        case fault::FaultKind::kCrash:
          engine.FaultSetAlive(ev.node, false);
          engine.FaultCrash(ev.node);
          break;
        case fault::FaultKind::kReboot:
          engine.FaultSetAlive(ev.node, true);
          engine.FaultReboot(ev.node);
          break;
        case fault::FaultKind::kPromote:
          engine.FaultRootPromote(ev.node, true);
          break;
        case fault::FaultKind::kDemote:
          engine.FaultRootPromote(ev.node, false);
          break;
        case fault::FaultKind::kMarkPartition:
          break;  // The link channel applies the window; this is obs-only.
      }
      RecordFaultObs(fo, ev, ev.at);
    });
  }
  if (FaultActive(config, plan)) {
    for (int s = 0; s < k; ++s) {
      obs::MetricsRegistry* reg = registries[static_cast<size_t>(s)].get();
      if (reg == nullptr) continue;
      metrics::Telemetry* tel = &shard_telemetry[static_cast<size_t>(s)];
      reg->Gauge("data.orphaned", [tel] { return tel->readings_orphaned; });
      reg->Gauge("data.rehomed", [tel] { return tel->readings_rehomed; });
      reg->Gauge("query.reissued", [tel] { return tel->queries_reissued; });
      reg->Gauge("route.parent_lost", [tel] { return tel->parent_losses; });
    }
  }

  ScopedLogClock log_clock(
      [](const void* ctx) {
        return static_cast<const sim::ShardedEngine*>(ctx)->DriverNow();
      },
      &engine);
  engine.Start();
  queries.Start();
  engine.RunUntil(config.duration);

  metrics::Telemetry telemetry = shard_telemetry[0];
  for (int s = 1; s < k; ++s) telemetry.MergeFrom(shard_telemetry[static_cast<size_t>(s)]);

  if (!config.trace_out.empty()) {
    std::vector<const obs::TraceSink*> sinks;
    for (const auto& t : traces) sinks.push_back(t.get());
    WriteTextFile(config.trace_out, obs::ExportChromeTrace(sinks));
  }
  if (!config.metrics_out.empty()) {
    std::vector<const obs::MetricsRegistry*> regs;
    for (const auto& r : registries) regs.push_back(r.get());
    WriteTextFile(config.metrics_out, obs::ExportMetricsJsonLines(regs));
  }
  SCOOP_LOG(kInfo) << "trial done: policy=" << PolicyName(config.policy)
                   << " seed=" << seed << " shards=" << k
                   << " events=" << engine.processed();

  ExperimentResult r = CollectResult(config, engine.traffic(), telemetry,
                                     queries.AvgPctNodesQueried(), base,
                                     engine.processed());
  r.query_timeline = std::move(timeline);
  r.resolved_shards = static_cast<double>(k);
  r.shard_stall_us = static_cast<double>(engine.stall_us());
  r.shard_stall_episodes = static_cast<double>(engine.stall_episodes());
  r.shard_mirrored_frames = static_cast<double>(engine.mirrored_frames());
  r.partition_cut_edges = static_cast<double>(engine.cut_edges());
  r.partition_imbalance = engine.partition_imbalance();
  for (auto& p : profilers) AddProfile(&r, p.get());
  return r;
}

ExperimentResult RunAnyTrial(const ExperimentConfig& config, uint64_t seed) {
  auto wall_start = std::chrono::steady_clock::now();
  ExperimentResult r;
  if (config.policy == Policy::kHashAnalytical) {
    core::HashModelResult m = RunHashAnalysis(config, seed);
    r.sent_by_type[static_cast<size_t>(PacketType::kData)] = m.data_messages;
    r.sent_by_type[static_cast<size_t>(PacketType::kQuery)] = m.query_messages;
    r.sent_by_type[static_cast<size_t>(PacketType::kReply)] = m.reply_messages;
    r.total = m.total;
    r.total_excl_beacons = m.total;
  } else {
    r = RunTrial(config, seed);
  }
  r.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();
  return r;
}

ExperimentResult AggregateTrials(const std::vector<ExperimentResult>& trials) {
  SCOOP_CHECK_GE(trials.size(), 1u);
  // Every averaged scalar; sent_by_type is averaged alongside. Each field
  // is summed in trial order, then divided, so aggregates are bit-stable.
  using R = ExperimentResult;
  static constexpr double R::*kFields[] = {
      &R::total, &R::total_excl_beacons, &R::retransmissions, &R::mac_drops, &R::storage_success,
      &R::owner_hit_rate, &R::query_success, &R::summary_delivery, &R::readings_lost,
      &R::readings_orphaned, &R::readings_rehomed, &R::queries_reissued, &R::parent_losses,
      &R::send_retries, &R::readings_produced, &R::queries_issued, &R::tuples_returned,
      &R::indices_built, &R::indices_disseminated, &R::indices_suppressed, &R::base_owned_fraction,
      &R::avg_pct_nodes_queried, &R::root_sent, &R::root_received, &R::avg_node_sent,
      &R::max_node_sent, &R::avg_node_lifetime_days, &R::root_lifetime_days, &R::wall_seconds,
      &R::sim_events, &R::profile_queue_seconds, &R::profile_radio_seconds,
      &R::profile_agent_seconds, &R::profile_shard_sync_seconds, &R::profile_other_seconds,
      &R::resolved_shards, &R::shard_stall_us, &R::shard_stall_episodes, &R::shard_mirrored_frames,
      &R::partition_cut_edges, &R::partition_imbalance,
  };
  ExperimentResult sum;
  sum.resolved_shards = 0;  // The field defaults to 1; sum from zero.
  for (const ExperimentResult& r : trials) {
    for (size_t t = 0; t < sum.sent_by_type.size(); ++t) sum.sent_by_type[t] += r.sent_by_type[t];
    for (double R::*f : kFields) sum.*f += r.*f;
  }
  double k = static_cast<double>(trials.size());
  for (double& v : sum.sent_by_type) v /= k;
  for (double R::*f : kFields) sum.*f /= k;
  return sum;
}

ExperimentResult RunExperiment(const ExperimentConfig& config) {
  SCOOP_CHECK_GE(config.trials, 1);
  std::vector<ExperimentResult> rows;
  rows.reserve(static_cast<size_t>(config.trials));
  for (int trial = 0; trial < config.trials; ++trial) {
    ExperimentConfig c = config;
    if (config.trials > 1) {
      // One trace/metrics file per trial; a shared path would be clobbered.
      std::string suffix = "-t";
      suffix += std::to_string(trial);
      c.trace_out = ExpandObsPath(config.trace_out, suffix);
      c.metrics_out = ExpandObsPath(config.metrics_out, suffix);
    }
    rows.push_back(RunAnyTrial(c, MixSeed(config.seed, static_cast<uint64_t>(trial))));
  }
  return AggregateTrials(rows);
}

core::HashModelResult RunHashAnalysis(const ExperimentConfig& config, uint64_t seed) {
  sim::Topology topology = MakeTopology(config, seed);
  core::XmitsEstimator xmits(config.num_nodes);
  for (int i = 0; i < config.num_nodes; ++i) {
    // Only audible links matter: AddLink drops anything below its minimum
    // quality, so walking the CSR neighbor lists instead of the full matrix
    // feeds it the identical link set.
    for (const sim::Topology::Link& link : topology.audible_from(static_cast<NodeId>(i))) {
      // Effective per-attempt success = delivery * ack delivery, matching
      // what the simulated link layer experiences.
      double p_ack = std::pow(topology.delivery_prob(link.to, static_cast<NodeId>(i)),
                              sim::kAckShortnessExponent);
      xmits.AddLink(static_cast<NodeId>(i), link.to, link.prob * p_ack);
    }
  }
  xmits.Build();

  std::unique_ptr<workload::DataSource> source = workload::MakeDataSource(
      config.source, config.source_options, topology.positions(), seed);
  ValueRange domain = source->domain();
  int64_t domain_size = static_cast<int64_t>(domain.hi) - domain.lo + 1;

  core::HashModelInputs inputs;
  inputs.xmits = &xmits;
  inputs.base = 0;
  inputs.num_nodes = config.num_nodes;
  inputs.readings_per_sec =
      static_cast<double>(config.num_nodes - 1) / ToSeconds(config.sample_interval);
  inputs.queries_per_sec =
      config.queries_enabled ? 1.0 / ToSeconds(config.query_interval) : 0.0;
  inputs.mean_query_width_values =
      (config.query_width_lo + config.query_width_hi) / 2.0 *
      static_cast<double>(domain_size);
  inputs.active_duration = config.duration - config.stabilization;
  return core::EvaluateHashModel(inputs);
}

}  // namespace scoop::harness
