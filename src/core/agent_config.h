// Configuration shared by every Scoop protocol agent (node and basestation)
// and by the baseline-policy agents. Defaults follow the paper's §6
// experiment table. Protocol constants no experiment varies live at their
// one consumer instead: the §5.3 suppression threshold (0.90) in
// ScoopBaseAgent, owner hysteresis (0.90) in index_builder.cc, and the
// send-retry backoff (250 ms) in AgentBase.
#ifndef SCOOP_CORE_AGENT_CONFIG_H_
#define SCOOP_CORE_AGENT_CONFIG_H_

#include <functional>

#include "common/sim_time.h"
#include "common/types.h"
#include "core/index_builder.h"
#include "metrics/telemetry.h"
#include "net/descendants.h"
#include "obs/trace.h"
#include "net/neighbor_table.h"
#include "net/routing_tree.h"
#include "net/wire.h"
#include "storage/flash_store.h"
#include "storage/summary_builder.h"
#include "trickle/trickle_timer.h"

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
  SimTime beacon_interval = Seconds(10);
  /// Inbound-quality entries carried per beacon (bidirectional ETX).
  int beacon_link_report_size = 12;
  SimTime sample_interval = Seconds(15);     ///< 1 reading / 15 s.
  SimTime summary_interval = Seconds(110);   ///< 1 summary / 110 s.
  SimTime remap_interval = Seconds(240);     ///< New index every 4 min.
  /// Nodes start sampling after the network stabilizes (paper: 10 min).
  SimTime sampling_start = Minutes(10);
  /// How long the base waits for query replies before closing a query.
  SimTime query_timeout = Seconds(12);
  /// How long after a new index generation the planner still assumes nodes
  /// may have routed data under the previous one (Trickle dissemination +
  /// adoption delay, §5.3/§5.5).
  SimTime index_adoption_slack = Seconds(60);
  /// Table-maintenance cadence (evictions, parent timeout).
  SimTime maintenance_interval = Seconds(30);

  // --- Scoop features (ablation knobs) ---
  /// Readings batched per data packet (§5.4; paper default 5).
  int max_batch = 5;
  /// Routing rule 3: shortcut through the neighbor list.
  bool enable_neighbor_shortcut = true;
  /// Minimum estimated link quality before rule 3 takes a shortcut (P4:
  /// avoid lossy links that cause expensive retransmissions).
  double shortcut_min_quality = 0.3;
  /// Routing rule 5: route down via the descendants list.
  bool enable_descendant_routing = true;
  /// Figure 2 options (store-local fallback, owner sets, range placement).
  IndexBuilderOptions builder;

  // --- Buffers ---
  /// Recent-readings buffer feeding summaries (§5.2; paper: 30).
  int recent_readings_capacity = 30;

  // --- Query dissemination (modified Trickle, §5.5) ---
  /// Suppress a pending query rebroadcast after hearing it this many times.
  int query_redundancy_k = 2;
  SimTime query_rebroadcast_jitter = Millis(400);
  /// Replies spread over a few seconds so dozens of responders do not
  /// collide near the base (§5.5: "it takes several seconds for the first
  /// replies to come back").
  SimTime reply_jitter = Seconds(3);
  /// Guard against pathological reply floods; chunking still applies.
  int max_reply_tuples = 90;

  // --- Mapping gossip (§5.3) ---
  trickle::TrickleOptions mapping_trickle{Seconds(2), Seconds(64), 1};

  // --- Substrate options ---
  net::NeighborTableOptions neighbor;
  net::RoutingTreeOptions tree;
  net::DescendantsOptions descendants;
  storage::FlashOptions flash;
  storage::SummaryBuilderOptions summary;

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
  /// Success counters (shared across agents); may be null.
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
