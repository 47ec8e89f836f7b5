#include "fault/fault_plan.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "common/rng.h"
#include "sim/topology.h"

namespace scoop::fault {

namespace {

/// Marks the nodes whose x coordinate, normalized to [0, 1] over the
/// topology's bounding box, falls inside [x_lo, x_hi]: a band over the
/// deployment's full height. A degenerate x extent (all nodes on one
/// vertical line) maps every node to 0.
std::vector<bool> RegionMask(const sim::Topology& topology, int num_nodes, double x_lo,
                             double x_hi) {
  double min_x = 0, max_x = 0;
  for (int i = 0; i < num_nodes; ++i) {
    const sim::Point& p = topology.position(static_cast<NodeId>(i));
    if (i == 0 || p.x < min_x) min_x = p.x;
    if (i == 0 || p.x > max_x) max_x = p.x;
  }
  double w = max_x - min_x;
  std::vector<bool> inside(static_cast<size_t>(num_nodes), false);
  for (int i = 0; i < num_nodes; ++i) {
    const sim::Point& p = topology.position(static_cast<NodeId>(i));
    double nx = w > 0 ? (p.x - min_x) / w : 0.0;
    inside[static_cast<size_t>(i)] = nx >= x_lo && nx <= x_hi;
  }
  return inside;
}

/// Shuffled non-base victim order for one wave family, sliced into waves
/// exactly like the historic BuildFailureWaves: fresh victims per wave,
/// drawn without replacement from a single shuffled order.
void AppendWaves(std::vector<FaultEvent>* events, double fraction, SimTime first,
                 int wave_count, SimTime wave_interval, SimTime downtime,
                 bool reboot, int num_nodes, Rng* rng) {
  if (fraction <= 0) return;
  std::vector<NodeId> victims;
  for (int i = 1; i < num_nodes; ++i) victims.push_back(static_cast<NodeId>(i));
  rng->Shuffle(victims.begin(), victims.end());
  int per_wave = static_cast<int>(fraction * (num_nodes - 1));
  per_wave = std::clamp(per_wave, 0, num_nodes - 1);
  size_t begin = 0;
  for (int w = 0; w < std::max(1, wave_count); ++w) {
    size_t end = std::min(victims.size(), begin + static_cast<size_t>(per_wave));
    if (begin >= end) break;
    SimTime at = first + w * wave_interval;
    for (size_t i = begin; i < end; ++i) {
      events->push_back(FaultEvent{
          at, reboot ? FaultKind::kCrash : FaultKind::kRadioDown, victims[i]});
      if (reboot) {
        events->push_back(FaultEvent{at + downtime, FaultKind::kReboot, victims[i]});
      }
    }
    begin = end;
  }
}

}  // namespace

FaultPlan BuildFaultPlan(const FaultConfig& config, const LegacyCrashWaves& legacy,
                         const sim::Topology& topology, int num_nodes,
                         uint64_t seed) {
  FaultPlan plan;

  // Legacy crash-stop waves. Stream and slicing reproduce the historic
  // BuildFailureWaves bit-for-bit, so `failure_waves` goldens stand.
  if (legacy.fraction > 0) {
    Rng rng(MixSeed(seed, 0xDEAD));
    AppendWaves(&plan.events, legacy.fraction, legacy.at, legacy.wave_count,
                legacy.wave_interval, /*downtime=*/0, /*reboot=*/false, num_nodes,
                &rng);
  }

  // Crash-reboot churn on an independent stream: enabling it never
  // perturbs a concurrent legacy schedule's victim selection.
  if (config.reboot_fraction > 0) {
    Rng rng(MixSeed(seed, 0xB00F));
    AppendWaves(&plan.events, config.reboot_fraction, config.reboot_time,
                config.reboot_wave_count, config.reboot_wave_interval,
                std::max<SimTime>(config.reboot_downtime, kMillisecond),
                /*reboot=*/true, num_nodes, &rng);
  }

  // Crash-stop wins: a node whose radio is off forever gets no crash or
  // reboot at or after that instant (a reboot would bring it back). Both
  // victim draws above stay untouched, so a config that uses only one of
  // the two families is unaffected.
  if (legacy.fraction > 0 && config.reboot_fraction > 0) {
    std::vector<SimTime> stopped_at(static_cast<size_t>(num_nodes),
                                    std::numeric_limits<SimTime>::max());
    for (const FaultEvent& e : plan.events) {
      if (e.kind == FaultKind::kRadioDown) {
        stopped_at[e.node] = std::min(stopped_at[e.node], e.at);
      }
    }
    std::erase_if(plan.events, [&stopped_at](const FaultEvent& e) {
      return (e.kind == FaultKind::kCrash || e.kind == FaultKind::kReboot) &&
             e.at >= stopped_at[e.node];
    });
  }

  // Partition window: sever boundary-crossing links, then heal.
  if (config.partition_end > config.partition_start) {
    plan.channel.AddWindow(
        config.partition_start, config.partition_end,
        RegionMask(topology, num_nodes, config.partition_x_lo, config.partition_x_hi));
    plan.events.push_back(
        FaultEvent{config.partition_start, FaultKind::kMarkPartition, 0});
  }

  // Base outage/failover: radio silence at the base, backup promoted for
  // the window, both reversed at the healing edge.
  if (config.base_outage_end > config.base_outage_start && config.base_backup != 0) {
    SCOOP_CHECK_GT(config.base_backup, 0);
    SCOOP_CHECK_LT(config.base_backup, num_nodes);
    NodeId backup = static_cast<NodeId>(config.base_backup);
    plan.events.push_back(
        FaultEvent{config.base_outage_start, FaultKind::kRadioDown, 0});
    plan.events.push_back(
        FaultEvent{config.base_outage_start, FaultKind::kPromote, backup});
    plan.events.push_back(FaultEvent{config.base_outage_end, FaultKind::kRadioUp, 0});
    plan.events.push_back(
        FaultEvent{config.base_outage_end, FaultKind::kDemote, backup});
  }

  // Time-sorted; same-time order stays the deterministic build order
  // above, which both engines replay identically.
  std::stable_sort(plan.events.begin(), plan.events.end(),
                   [](const FaultEvent& a, const FaultEvent& b) { return a.at < b.at; });
  return plan;
}

}  // namespace scoop::fault
