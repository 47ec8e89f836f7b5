#include "scenario/scenario_registry.h"

#include "scenario/scenario_parser.h"

namespace scoop::scenario {

namespace {

// Keys omitted from a spec keep the ExperimentConfig defaults, which mirror
// the paper's §6 table -- so these specs state only what each experiment
// changes. Every paper figure and in-text table is one entry here, run with
// `scoop_campaign --scenario=<name>`; each spec's cross product holds every
// row of the figure or table (fig3_left also covers the testbed bars, and
// fig3_middle the root-skew table's policies), and the abl_* ablations
// sweep whole knob grids that include the paper's variants.

constexpr const char kFig3Left[] = R"(
name = fig3_left
description = Figure 3 (left): storage methods on the 62-node testbed (policy x source grid covering the figure's four bars)
topology = testbed
sweep.policy = scoop, local, base
sweep.source = unique, gaussian
)";

constexpr const char kFig3Middle[] = R"(
name = fig3_middle
description = Figure 3 (middle): Scoop vs LOCAL, HASH, BASE over the REAL trace
source = real
topology = random
sweep.policy = scoop, local, hash, base
)";

constexpr const char kFig3Right[] = R"(
name = fig3_right
description = Figure 3 (right): Scoop across the five data sources
policy = scoop
topology = random
sweep.source = unique, equal, real, gaussian, random
)";

constexpr const char kFig4Selectivity[] = R"(
name = fig4_selectivity
description = Figure 4: cost vs percentage of nodes queried (node-list queries, REAL trace)
source = real
query_mode = node-list
sweep.policy = scoop, local, base
sweep.node_list_fraction = 0.05, 0.10, 0.20, 0.40, 0.60, 0.80, 1.0
)";

constexpr const char kFig5QueryInterval[] = R"(
name = fig5_query_interval
description = Figure 5: cost vs query interval (REAL trace)
source = real
sweep.policy = scoop, local, base
sweep.query_interval_seconds = 5, 10, 15, 30, 50
)";

constexpr const char kTblScalability[] = R"(
name = tbl_scalability
description = In-text (§6): scalability up to 100 nodes, REAL and RANDOM sources
policy = scoop
trials = 2
sweep.source = real, random
sweep.nodes = 25, 50, 63, 100
)";

constexpr const char kTblLossRates[] = R"(
name = tbl_loss_rates
description = In-text (§6): Scoop storage, owner-hit, query-success and summary-delivery rates on both topologies
policy = scoop
source = real
sweep.topology = testbed, random
)";

constexpr const char kTblEnergyLifetime[] = R"(
name = tbl_energy_lifetime
description = In-text (§6): battery lifetime per policy at the default and a query-heavy query rate (REAL trace)
source = real
sweep.query_interval_seconds = 15, 3
sweep.policy = local, scoop, base
)";

constexpr const char kTblSampleInterval[] = R"(
name = tbl_sample_interval
description = In-text (§6): Scoop cost per data source as the sample interval grows
policy = scoop
sweep.source = unique, real, gaussian, random
sweep.sample_interval_seconds = 5, 15, 30, 60
)";

constexpr const char kAblFailures[] = R"(
name = abl_failures
description = Robustness: Scoop when a fraction of the sensors loses its radio at minute 20 (REAL trace)
policy = scoop
source = real
trials = 2
fault.crash_minute = 20
sweep.fault.crash_fraction = 0, 0.1, 0.2, 0.3
)";

constexpr const char kAblRoutingFeatures[] = R"(
name = abl_routing_features
description = Ablation of the §5.4 routing features: reading batching, the neighbor shortcut and descendant routing (Scoop, REAL trace)
policy = scoop
source = real
trials = 2
sweep.max_batch = 1, 5, 10
sweep.neighbor_shortcut = on, off
sweep.descendant_routing = on, off
)";

constexpr const char kAblExtensions[] = R"(
name = abl_extensions
description = The §4 extensions: owner sets, range-granularity placement and the store-local fallback (Scoop, GAUSSIAN)
policy = scoop
source = gaussian
trials = 2
sweep.owner_set = 1, 2, 3
sweep.range_granularity = 1, 5, 10
sweep.consider_store_local = off, on
)";

constexpr const char kAblHashModel[] = R"(
name = abl_hash_model
description = Validation: simulated HASH against the analytical HASH model Figure 3 uses (GAUSSIAN)
source = gaussian
trials = 2
sweep.policy = hash-sim, hash
)";

constexpr const char kGridDense[] = R"(
name = grid_dense
description = Dense 11x11 lattice (121 nodes), REAL trace
source = real
topology = grid
nodes = 121
trials = 2
sweep.policy = scoop, local, base
)";

constexpr const char kGrid1024[] = R"(
name = grid_1024
description = 32x32 lattice (1024 nodes, past the old 128-node query-bitmap cap; NodeSet query codec), REAL trace, Scoop policy
policy = scoop
source = real
topology = grid
nodes = 1024
duration_minutes = 10
stabilization_minutes = 3
trials = 1
)";

constexpr const char kBurstyQueries[] = R"(
name = bursty_queries
description = Bursty query sessions: every 2 minutes a user fires 8 queries spaced 2 s apart
source = real
query_interval_seconds = 120
query_burst_size = 8
query_burst_spacing_seconds = 2
sweep.policy = scoop, local, base
)";

constexpr const char kFailureWaves[] = R"(
name = failure_waves
description = Three mid-run failure waves, each killing 10% of the sensors, 5 minutes apart
source = real
fault.crash_fraction = 0.10
fault.crash_minute = 15
fault.crash_wave_count = 3
fault.crash_wave_interval_minutes = 5
trials = 1
sweep.policy = scoop, local, base
sweep.seed = 1..4
)";

constexpr const char kChurnReboot[] = R"(
name = churn_reboot
description = Crash-reboot churn: three waves each power-cycling 20% of the sensors for 45 s, with orphan re-homing, bounded send retries, and base-side query re-issue on
source = real
duration_minutes = 30
stabilization_minutes = 5
sample_interval_seconds = 10
summary_interval_seconds = 60
remap_interval_seconds = 120
query_interval_seconds = 10
fault.reboot_fraction = 0.2
fault.reboot_minute = 14
fault.reboot_wave_count = 3
fault.reboot_wave_interval_minutes = 4
fault.reboot_downtime_seconds = 45
fault.orphan_rehoming = on
fault.send_retry_max = 2
fault.query_reissue_max = 1
trials = 1
sweep.seed = 1..3
)";

constexpr const char kPartitionHeal[] = R"(
name = partition_heal
description = Spatial partition: links crossing the left-half boundary are severed for 6 minutes mid-run, then heal; degradation knobs keep data parked until re-homing
source = real
duration_minutes = 30
stabilization_minutes = 5
remap_interval_seconds = 120
fault.partition_start_minute = 14
fault.partition_end_minute = 20
fault.orphan_rehoming = on
fault.send_retry_max = 2
fault.query_reissue_max = 1
trials = 1
sweep.seed = 1..3
)";

constexpr const char kBaseFailover[] = R"(
name = base_failover
description = Base outage/failover: the basestation dies for 5 minutes mid-run and node 1 is promoted to tree root for the window
source = real
duration_minutes = 30
stabilization_minutes = 5
fault.base_outage_start_minute = 15
fault.base_outage_end_minute = 20
fault.base_backup = 1
fault.orphan_rehoming = on
fault.send_retry_max = 2
trials = 1
sweep.seed = 1..3
)";

constexpr const char kGaussianSkew[] = R"(
name = gaussian_skew
description = Skewed Gaussian sources: per-node means biased toward the low end of the domain
source = gaussian
sweep.policy = scoop, local, base
sweep.gaussian_mean_skew = 1, 2, 4
)";

constexpr const char kSmokeTiny[] = R"(
name = smoke_tiny
description = 2-node CI smoke: a seconds-long run exercising the campaign pipeline end to end
nodes = 2
duration_minutes = 2
stabilization_minutes = 0.5
trials = 2
sweep.policy = scoop, local
)";

const RegistryEntry kRegistry[] = {
    {"fig3_left", kFig3Left},
    {"fig3_middle", kFig3Middle},
    {"fig3_right", kFig3Right},
    {"fig4_selectivity", kFig4Selectivity},
    {"fig5_query_interval", kFig5QueryInterval},
    {"tbl_scalability", kTblScalability},
    {"tbl_loss_rates", kTblLossRates},
    {"tbl_energy_lifetime", kTblEnergyLifetime},
    {"tbl_sample_interval", kTblSampleInterval},
    {"abl_failures", kAblFailures},
    {"abl_routing_features", kAblRoutingFeatures},
    {"abl_extensions", kAblExtensions},
    {"abl_hash_model", kAblHashModel},
    {"grid_dense", kGridDense},
    {"grid_1024", kGrid1024},
    {"bursty_queries", kBurstyQueries},
    {"failure_waves", kFailureWaves},
    {"churn_reboot", kChurnReboot},
    {"partition_heal", kPartitionHeal},
    {"base_failover", kBaseFailover},
    {"gaussian_skew", kGaussianSkew},
    {"smoke_tiny", kSmokeTiny},
};

}  // namespace

const RegistryEntry* RegisteredScenarios(size_t* count) {
  *count = sizeof(kRegistry) / sizeof(kRegistry[0]);
  return kRegistry;
}

const char* FindRegisteredSpec(std::string_view name) {
  for (const RegistryEntry& entry : kRegistry) {
    if (name == entry.name) return entry.spec;
  }
  return nullptr;
}

Result<Scenario> LoadRegisteredScenario(std::string_view name) {
  const char* spec = FindRegisteredSpec(name);
  if (spec == nullptr) {
    return Status::NotFound("no registered scenario named '" + std::string(name) + "'");
  }
  return ParseScenario(spec, "<registry:" + std::string(name) + ">");
}

}  // namespace scoop::scenario
