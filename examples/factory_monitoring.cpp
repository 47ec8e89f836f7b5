// Factory-floor monitoring (the paper's §1 motivating deployment): battery
// powered motes on equipment classify their recent vibration readings on a
// 1-20 scale (§4 "composite detections"), store the classes in-network via
// Scoop, and an operator asks "which machines showed high vibration in the
// last few minutes?" -- without flooding the plant.
//
// Demonstrates: driving ScoopNode/ScoopBase agents directly (no harness),
// a custom composite-value sampler, value-range queries, and the
// summary-based MAX shortcut.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

#include "core/query.h"
#include "core/scoop_base_agent.h"
#include "core/scoop_node_agent.h"
#include "metrics/message_stats.h"
#include "metrics/telemetry.h"
#include "sim/sharded_engine.h"

using namespace scoop;

namespace {

/// Vibration class 1-20 per machine: most machines idle around 2-5, a few
/// "hot" machines ramp up mid-run (a bearing going bad).
Value VibrationClass(NodeId machine, SimTime now, Rng* rng) {
  bool degrading = (machine % 9) == 3;  // A couple of problem machines.
  double base = 2.0 + (machine % 4);
  if (degrading && now > Minutes(16)) {
    base += 9.0 + 3.0 * (ToSeconds(now - Minutes(16)) / 600.0);
  }
  double v = base + rng->Gaussian(0, 0.7);
  return std::clamp(static_cast<Value>(std::lround(v)), 1, 20);
}

}  // namespace

int main() {
  const int kMachines = 40;  // 39 motes + plant gateway (base).
  sim::RandomTopologyOptions topo_opts;
  topo_opts.num_nodes = kMachines;
  topo_opts.area_width = 40;
  topo_opts.area_height = 30;
  topo_opts.seed = 5;
  sim::Topology topo = sim::Topology::MakeRandom(topo_opts);

  sim::ShardedEngineOptions net_opts;
  net_opts.seed = 5;
  sim::ShardedEngine net(topo, net_opts);  // One shard: runs inline.

  metrics::Telemetry telemetry;
  Rng sample_rng(99);
  core::ScoopBaseAgent* gateway = nullptr;
  for (int i = 0; i < kMachines; ++i) {
    core::AgentConfig cfg;
    cfg.self = static_cast<NodeId>(i);
    cfg.base = 0;
    cfg.num_nodes = kMachines;
    cfg.sampling_start = Minutes(3);
    cfg.sample_interval = Seconds(10);
    cfg.summary_interval = Seconds(60);
    cfg.remap_interval = Seconds(120);
    cfg.telemetry = &telemetry;
    cfg.sample_fn = [&sample_rng](NodeId machine, SimTime now) {
      return VibrationClass(machine, now, &sample_rng);
    };
    if (i == 0) {
      auto app = std::make_unique<core::ScoopBaseAgent>(cfg);
      gateway = app.get();
      net.SetApp(0, std::move(app));
    } else {
      net.SetApp(static_cast<NodeId>(i), std::make_unique<core::ScoopNodeAgent>(cfg));
    }
  }
  net.Start();

  std::printf("Factory monitoring: %d machines reporting vibration classes 1-20.\n",
              kMachines - 1);
  std::printf("A few machines develop bearing faults at t=16min...\n\n");

  // Operator asks for high-vibration events every 5 minutes.
  for (int round = 1; round <= 5; ++round) {
    net.RunUntil(Minutes(3) + Minutes(5) * round);
    core::Query query;
    query.time_lo = net.DriverNow() - Minutes(5);
    query.time_hi = net.DriverNow();
    query.ranges.push_back(ValueRange{12, 20});  // "high vibration"
    uint32_t id = gateway->IssueQuery(query);
    net.RunUntil(net.DriverNow() + Seconds(15));

    const core::QueryOutcome* outcome = gateway->outcome(id);
    std::printf("t=%2.0f min: high-vibration readings in last 5 min: ",
                ToSeconds(net.DriverNow()) / 60);
    if (outcome == nullptr || outcome->tuples.empty()) {
      std::printf("none");
    } else {
      std::map<NodeId, int> per_machine;
      for (const ReplyTuple& t : outcome->tuples) ++per_machine[t.producer];
      for (const auto& [machine, count] : per_machine) {
        std::printf("machine %d (%d readings, asked %d nodes)  ", machine, count,
                    outcome->targets);
      }
    }
    std::printf("\n");
  }

  // Aggregate shortcut: the plant-wide maximum comes straight from stored
  // summaries -- zero network messages (§5.5).
  core::Query max_query;
  max_query.kind = core::Query::Kind::kMax;
  max_query.time_lo = net.DriverNow() - Minutes(10);
  max_query.time_hi = net.DriverNow();
  uint32_t max_id = gateway->IssueQuery(max_query);
  const core::QueryOutcome* max_outcome = gateway->outcome(max_id);
  if (max_outcome != nullptr && max_outcome->aggregate.has_value()) {
    std::printf("\nPlant-wide max vibration class (from summaries, 0 messages): %d\n",
                *max_outcome->aggregate);
  }

  const metrics::MessageStats traffic = net.traffic();
  std::printf("\nTotals: %llu readings produced, messages sent (incl. retx):\n",
              static_cast<unsigned long long>(telemetry.readings_produced));
  for (int t = 0; t < kNumPacketTypes; ++t) {
    PacketType type = static_cast<PacketType>(t);
    const metrics::TypeCounters& c = traffic.ByType(type);
    std::printf("  %s: %llu (retx %llu)\n", PacketTypeName(type),
                static_cast<unsigned long long>(c.sent),
                static_cast<unsigned long long>(c.retransmissions));
  }
  std::printf("  total: %llu (excl beacons: %llu), MAC drops: %llu\n",
              static_cast<unsigned long long>(traffic.TotalSent()),
              static_cast<unsigned long long>(traffic.TotalSentExclBeacons()),
              static_cast<unsigned long long>(traffic.TotalDrops()));
  return 0;
}
