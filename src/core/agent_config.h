// Configuration shared by every Scoop protocol agent (node and basestation)
// and by the baseline-policy agents: identity, the settings a scenario key
// sets (defaults follow the paper's §6 experiment table), and wiring.
// Protocol constants no experiment varies live at their one consumer
// instead: the beacon, maintenance and query timers, reply and rebroadcast
// jitters, the reply cap and the neighbor-shortcut quality floor in
// agent_base.cc (the query timeout as AgentBase::kQueryTimeout); the
// index-adoption slack and §5.3 suppression threshold (0.90) in
// scoop_base_agent.cc; owner hysteresis (0.90) in index_builder.cc; the
// 30-reading summary window in storage/summary_builder.h; and the
// substrate's own constants in NeighborTable, RoutingTree,
// DescendantsTable, FlashStore and TrickleTimer.
#ifndef SCOOP_CORE_AGENT_CONFIG_H_
#define SCOOP_CORE_AGENT_CONFIG_H_

#include <functional>

#include "common/sim_time.h"
#include "common/types.h"
#include "core/index_builder.h"
#include "metrics/telemetry.h"
#include "obs/trace.h"
#include "net/wire.h"

namespace scoop::core {

/// Per-agent configuration. One instance is shared (by value) across all
/// agents of a run, with `self` differing.
struct AgentConfig {
  // --- Identity ---
  NodeId self = 0;
  NodeId base = 0;
  /// Total nodes including the basestation.
  int num_nodes = 0;
  AttrId attr = 0;

  bool is_base() const { return self == base; }

  // --- Timers (§6 defaults) ---
  SimTime sample_interval = Seconds(15);     ///< 1 reading / 15 s.
  SimTime summary_interval = Seconds(110);   ///< 1 summary / 110 s.
  SimTime remap_interval = Seconds(240);     ///< New index every 4 min.
  /// Nodes start sampling after the network stabilizes (paper: 10 min).
  SimTime sampling_start = Minutes(10);

  // --- Scoop features (ablation knobs) ---
  /// Readings batched per data packet (§5.4; paper default 5).
  int max_batch = 5;
  /// Routing rule 3: shortcut through the neighbor list.
  bool enable_neighbor_shortcut = true;
  /// Routing rule 5: route down via the descendants list.
  bool enable_descendant_routing = true;
  /// Figure 2 options (store-local fallback, owner sets, range placement).
  IndexBuilderOptions builder;

  // --- HASH policy ---
  /// Value domain the static hash covers (HASH has no statistics loop).
  ValueRange hash_domain{0, 100};

  // --- Graceful degradation under faults (src/fault/; all off = the
  // --- historical drop-on-failure behavior) ---
  /// Owner unreachable (no route / retries exhausted): store the readings
  /// locally with an "orphaned" mark and re-home them after the next
  /// index arrives, instead of dropping or base-fallback-only.
  bool fault_orphan_rehoming = false;
  /// Bounded retry-with-backoff after the MAC gives up on a data or
  /// summary packet (0 = off; attempt k re-sends after 250 ms << k).
  int fault_send_retry_max = 0;
  /// Base: re-issue a timed-out query against the responders still missing
  /// (0 = off; at most this many re-issues per query).
  int fault_query_reissue_max = 0;

  // --- Wiring ---
  /// Success counters (shared across agents); required.
  metrics::Telemetry* telemetry = nullptr;
  /// Structured trace sink for query/index lifecycle events; may be null
  /// (off). Observation-only: agents record into it but never branch on it.
  obs::TraceSink* trace = nullptr;
  /// Sampling function: value produced by `node` at `time`. Must be set for
  /// agents that sample.
  std::function<Value(NodeId, SimTime)> sample_fn;
};

}  // namespace scoop::core

#endif  // SCOOP_CORE_AGENT_CONFIG_H_
