// Deterministic fault injection: a seeded, sim-time-scheduled plan of
// typed fault events -- crash-stop waves (subsuming the legacy
// `failure_*` knobs), crash-reboot churn, spatial partitions, and base
// outage/failover -- built once per trial from (config, seed) and then
// replayed identically at every shard count.
//
// The plan is pure data: BuildFaultPlan draws all randomness up front
// from dedicated streams, so the same (config, topology, seed) always
// yields the same event list regardless of engine, shard count, or
// observability settings.
#ifndef SCOOP_FAULT_FAULT_PLAN_H_
#define SCOOP_FAULT_FAULT_PLAN_H_

#include <vector>

#include "common/sim_time.h"
#include "common/types.h"
#include "fault/link_fault.h"

namespace scoop::sim {
class Topology;
}  // namespace scoop::sim

namespace scoop::fault {

/// Fault-injection knobs, all off by default. Mirrored one-to-one by the
/// `fault.*` scenario keys (scenario_parser.cc). Region coordinates are
/// normalized to [0, 1] over the topology's position bounding box, so one
/// scenario works across topology presets and sizes.
struct FaultConfig {
  // --- Crash-reboot churn: waves of nodes power-cycle. Each victim loses
  // its radio at the wave instant and returns `reboot_downtime` later with
  // cleared storage and a stale index, and must rejoin the routing tree.
  double reboot_fraction = 0.0;  ///< Fraction of non-base nodes per wave (0 = off).
  SimTime reboot_time = Minutes(20);
  int reboot_wave_count = 1;
  SimTime reboot_wave_interval = Minutes(5);
  SimTime reboot_downtime = Seconds(60);

  // --- Spatial partition: the region is the x band [x_lo, x_hi] over the
  // full height of the deployment. Every link crossing the band's boundary
  // is severed over [start, end) (both islands stay internally connected),
  // then heals. Active iff end > start.
  SimTime partition_start = 0;
  SimTime partition_end = 0;
  double partition_x_lo = 0.0;
  double partition_x_hi = 0.5;

  // --- Base outage/failover: the basestation's radio dies over
  // [start, end) and `base_backup` is promoted to tree root for the
  // window. Active iff end > start and base_backup != 0; ValidateConfig
  // (scenario_parser.h) rejects a window set any other way.
  SimTime base_outage_start = 0;
  SimTime base_outage_end = 0;
  int base_backup = 0;

  // --- Graceful-degradation knobs (consumed by the agents, not the plan;
  // carried here so one `fault.*` config block covers the subsystem).
  /// Owner unreachable -> store locally with an "orphaned" mark and
  /// re-home at the next remap instead of dropping.
  bool orphan_rehoming = false;
  /// Bounded retry-with-backoff for data/summary forwarding after the MAC
  /// gives up (0 = off; attempt k waits 250 ms << k, see AgentBase).
  int send_retry_max = 0;
  /// Base-side query re-issue after timeout against the responder set
  /// still missing (0 = off; at most this many re-issues per query).
  int query_reissue_max = 0;
};

/// The legacy crash-stop knobs (`node_failure_fraction` & friends on
/// ExperimentConfig), folded into the plan as compatibility aliases.
struct LegacyCrashWaves {
  double fraction = 0.0;
  SimTime at = Minutes(20);
  int wave_count = 1;
  SimTime wave_interval = Minutes(5);
};

/// The values are stable: traces carry them as `args.kind` (6 was a
/// retired link-degradation marker).
enum class FaultKind : uint8_t {
  kRadioDown = 0,      ///< Crash-stop: radio off forever (legacy failure waves).
  kRadioUp = 1,        ///< Radio back on without agent reset (base outage heal).
  kCrash = 2,          ///< Radio off + agent OnCrash (start of a reboot cycle).
  kReboot = 3,         ///< Radio on + agent OnReboot (storage cleared, tree rejoin).
  kPromote = 4,        ///< Node becomes tree root (base failover backup).
  kDemote = 5,         ///< Node stops being tree root (base back up).
  kMarkPartition = 7,  ///< Marker: a partition window opens (counters/trace only).
};

struct FaultEvent {
  SimTime at = 0;
  FaultKind kind = FaultKind::kRadioDown;
  NodeId node = 0;
};

/// A trial's complete fault schedule: discrete events (sorted by time;
/// same-time order is the deterministic build order) plus the
/// link-probability channel the radios consult.
struct FaultPlan {
  std::vector<FaultEvent> events;
  LinkFaultChannel channel;

  bool any() const { return !events.empty() || channel.active(); }
};

/// Builds the plan for one trial. The legacy waves reproduce the historic
/// victim selection bit-for-bit (stream MixSeed(seed, 0xDEAD)); reboot
/// waves draw from an independent stream, so enabling them never perturbs
/// a legacy schedule. `topology` supplies positions for region masks.
FaultPlan BuildFaultPlan(const FaultConfig& config, const LegacyCrashWaves& legacy,
                         const sim::Topology& topology, int num_nodes,
                         uint64_t seed);

}  // namespace scoop::fault

#endif  // SCOOP_FAULT_FAULT_PLAN_H_
