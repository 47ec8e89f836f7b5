// Deterministic fault injection: a seeded, sim-time-scheduled plan of
// typed fault events -- crash-stop waves (subsuming the legacy
// `failure_*` knobs), crash-reboot churn, link-degradation windows,
// spatial partitions, and base outage/failover -- built once per trial
// from (config, seed) and then replayed identically at every shard count.
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

  // --- Link degradation: delivery probabilities of links touching the
  // region are multiplied by `link_degrade_factor` over [start, end).
  double link_degrade_factor = 1.0;  ///< 1.0 = off.
  SimTime link_degrade_start = 0;
  SimTime link_degrade_end = 0;
  double link_degrade_x_lo = 0.0;
  double link_degrade_x_hi = 1.0;
  double link_degrade_y_lo = 0.0;
  double link_degrade_y_hi = 1.0;

  // --- Spatial partition: every link crossing the rectangle's boundary is
  // severed over [start, end) (both islands stay internally connected),
  // then heals. Active iff end > start.
  SimTime partition_start = 0;
  SimTime partition_end = 0;
  double partition_x_lo = 0.0;
  double partition_x_hi = 0.5;
  double partition_y_lo = 0.0;
  double partition_y_hi = 1.0;

  // --- Base outage/failover: the basestation's radio dies over
  // [start, end) and `base_backup` is promoted to tree root for the
  // window. Active iff end > start and base_backup != 0.
  SimTime base_outage_start = 0;
  SimTime base_outage_end = 0;
  int base_backup = 0;

  // --- Graceful-degradation knobs (consumed by the agents, not the plan;
  // carried here so one `fault.*` config block covers the subsystem).
  /// Owner unreachable -> store locally with an "orphaned" mark and
  /// re-home at the next remap instead of dropping.
  bool orphan_rehoming = false;
  /// Bounded retry-with-backoff for data/summary forwarding after the MAC
  /// gives up (0 = off; attempt k waits backoff << k).
  int send_retry_max = 0;
  SimTime send_retry_backoff = Millis(250);
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

enum class FaultKind : uint8_t {
  kRadioDown,      ///< Crash-stop: radio off forever (legacy failure waves).
  kRadioUp,        ///< Radio back on without agent reset (base outage heal).
  kCrash,          ///< Radio off + agent OnCrash (start of a reboot cycle).
  kReboot,         ///< Radio on + agent OnReboot (storage cleared, tree rejoin).
  kPromote,        ///< Node becomes tree root (base failover backup).
  kDemote,         ///< Node stops being tree root (base back up).
  kMarkLinkDown,   ///< Marker: a link-degradation window opens (counters/trace only).
  kMarkPartition,  ///< Marker: a partition window opens (counters/trace only).
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
