// The Scoop basestation (§5.2-§5.5): collects summary statistics, rebuilds
// the storage index every remap interval with the Figure 2 optimizer,
// suppresses dissemination of an index that routes at least 90% of the
// produced traffic like the last one (§5.3), initiates Trickle gossip of
// mapping chunks, plans queries over all historically active indices,
// answers MAX/MIN aggregates from every summary it ever received (§5.5:
// the base never discards them), and collects replies.
#ifndef SCOOP_CORE_SCOOP_BASE_AGENT_H_
#define SCOOP_CORE_SCOOP_BASE_AGENT_H_

#include <map>
#include <memory>
#include <vector>

#include "core/agent_base.h"
#include "core/index_builder.h"
#include "core/query_stats.h"
#include "core/xmits_estimator.h"

namespace scoop::core {

/// What an aggregate query (§5.5) needs from one received summary: the
/// time span its readings cover and their value extremes. The base keeps
/// one per summary with histogram content for the whole run -- the paper's
/// "never discards" rule at four numbers a summary.
struct SummaryExtent {
  SimTime cover_lo = 0;
  SimTime cover_hi = 0;
  Value vmin = 0;
  Value vmax = 0;
};

/// One disseminated index generation (the base never discards old indices).
struct IndexGeneration {
  SimTime built_at = 0;
  StorageIndex index;
  double expected_cost = 0;
};

/// The Scoop basestation agent.
class ScoopBaseAgent : public AgentBase {
 public:
  explicit ScoopBaseAgent(const AgentConfig& config);

  /// Issues a user query (§5.5). Tuples queries are planned against every
  /// index that may have been active in the query's time range; aggregate
  /// queries are answered from summaries when possible. Returns the query
  /// id; the outcome is available via outcome() once closed.
  uint32_t IssueQuery(const Query& query) override;

  // --- Introspection ---
  /// Indices disseminated so far, oldest first.
  const std::vector<IndexGeneration>& index_history() const { return index_history_; }
  /// Last summary recorded per node.
  const std::map<NodeId, SummaryPayload>& latest_summaries() const { return latest_; }
  /// Every summary's extent, in arrival order.
  const std::vector<SummaryExtent>& summary_extents() const { return extents_; }
  const QueryStats& query_stats() const { return query_stats_; }
  /// Force an immediate remap (tests/examples); returns true if a new index
  /// was disseminated (false = suppressed or no statistics yet).
  bool RemapNow();

 protected:
  void OnAgentBoot() override;
  void HandleSummaryAtBase(const Packet& pkt) override;
  void OnPacketAtBase(const Packet& pkt) override;
  bool MappingGossipEnabled() const override { return true; }

 private:
  void LoopRemap();

  /// Rebuilds the xmits estimator from the latest summaries + tree edges.
  void RebuildXmits();

  /// Plans the target node set for a tuples query (§5.5): all owners of the
  /// queried value ranges in every index generation active during the time
  /// range; floods when no index covers it.
  std::vector<NodeId> PlanTargets(const Query& query) const;

  /// Attempts to answer an aggregate query from stored summaries (§5.5).
  bool TryAnswerFromSummaries(const Query& query, QueryOutcome* outcome) const;

  /// Per-node data-rate estimate from consecutive summaries.
  struct RateTracker {
    SimTime prev_time = 0;
    bool has_prev = false;
    double rate = 0;  // readings/sec
  };

  std::map<NodeId, SummaryPayload> latest_;
  std::vector<SummaryExtent> extents_;
  std::map<NodeId, RateTracker> rates_;
  std::map<NodeId, NodeId> tree_edges_;  // node -> parent (latest seen)

  XmitsEstimator xmits_;
  QueryStats query_stats_;
  std::vector<IndexGeneration> index_history_;
  StorageIndex last_disseminated_;
  IndexId next_index_id_ = 1;
};

}  // namespace scoop::core

#endif  // SCOOP_CORE_SCOOP_BASE_AGENT_H_
