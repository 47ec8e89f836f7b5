#include "core/scoop_base_agent.h"

#include <algorithm>
#include <set>

#include "common/check.h"
#include "storage/histogram.h"

namespace scoop::core {

namespace {

/// Suppress dissemination when the new index routes at least this fraction
/// of the produced traffic identically to the last disseminated one (§5.3).
constexpr double kSuppressionSimilarity = 0.90;

}  // namespace

ScoopBaseAgent::ScoopBaseAgent(const AgentConfig& config)
    : AgentBase(config), xmits_(config.num_nodes) {
  SCOOP_CHECK(config.is_base());
}

void ScoopBaseAgent::OnAgentBoot() {
  // Regular remap cadence (every remap_interval; remaps silently skip while
  // no statistics exist). An additional early remap fires as soon as most
  // nodes have reported, so the expensive pre-index flooding window stays
  // short (§5.3: nodes default to LOCAL until the first index arrives).
  SimTime start =
      cfg_.sampling_start > ctx().now() ? cfg_.sampling_start - ctx().now() : 0;
  ctx().Schedule(start + cfg_.remap_interval, [this] { LoopRemap(); });
}

// ---------------------------------------------------------------------------
// Statistics collection (§5.2)
// ---------------------------------------------------------------------------

void ScoopBaseAgent::OnPacketAtBase(const Packet& pkt) {
  // Every packet header reveals a (node, parent) routing-tree edge.
  if (pkt.hdr.origin != cfg_.self && pkt.hdr.origin_parent != kInvalidNodeId &&
      static_cast<int>(pkt.hdr.origin) < cfg_.num_nodes &&
      static_cast<int>(pkt.hdr.origin_parent) < cfg_.num_nodes) {
    tree_edges_[pkt.hdr.origin] = pkt.hdr.origin_parent;
  }
}

void ScoopBaseAgent::HandleSummaryAtBase(const Packet& pkt) {
  const SummaryPayload& summary = pkt.As<SummaryPayload>();
  NodeId node = pkt.hdr.origin;
  if (node == cfg_.self || static_cast<int>(node) >= cfg_.num_nodes) return;
  SimTime now = ctx().now();
  ++telemetry().summaries_received_at_base;

  // Per-node data-rate estimate from the readings reported between
  // consecutive summaries.
  RateTracker& tracker = rates_[node];
  if (tracker.has_prev && now > tracker.prev_time) {
    double elapsed = ToSeconds(now - tracker.prev_time);
    double observed = static_cast<double>(summary.sample_count) / elapsed;
    tracker.rate = tracker.rate > 0 ? 0.5 * tracker.rate + 0.5 * observed : observed;
  } else if (summary.sample_count > 0) {
    // First summary: assume the report covers one summary interval.
    tracker.rate =
        static_cast<double>(summary.sample_count) / ToSeconds(cfg_.summary_interval);
  }
  tracker.prev_time = now;
  tracker.has_prev = true;

  // The base keeps the *last* histogram per node (tolerates summary loss)
  // for the index builder, and every summary's extent for aggregate
  // queries (§5.5). A summary covers its recent-readings buffer: capacity
  // readings at one per sample interval before its arrival.
  latest_[node] = summary;
  if (!summary.bins.empty()) {
    extents_.push_back(SummaryExtent{
        now - cfg_.sample_interval * cfg_.recent_readings_capacity, now, summary.vmin,
        summary.vmax});
  }

  // Early first dissemination: once most nodes have reported, build the
  // first index immediately instead of waiting out the remap interval.
  if (index_history_.empty() &&
      static_cast<int>(latest_.size()) * 5 >= (cfg_.num_nodes - 1) * 3) {
    RemapNow();
  }
}

void ScoopBaseAgent::RebuildXmits() {
  // Every remap re-ingests the latest statistics from scratch; Build()
  // then runs one Dijkstra per source over the resulting graph.
  xmits_.Clear();
  for (const auto& [node, summary] : latest_) {
    for (const NeighborEntry& nbr : summary.neighbors) {
      if (static_cast<int>(nbr.id) >= cfg_.num_nodes) continue;
      // The summary reports the quality of the link neighbor -> node.
      xmits_.AddLink(nbr.id, node, static_cast<double>(nbr.quality_x255) / 255.0);
    }
  }
  for (const auto& [node, parent] : tree_edges_) {
    xmits_.AddTreeEdge(node, parent);
  }
  // Links the base itself observes.
  for (NodeId nbr : neighbors_.Ids()) {
    xmits_.AddLink(nbr, cfg_.self, neighbors_.Quality(nbr));
  }
  xmits_.Build();
}

// ---------------------------------------------------------------------------
// Index construction + dissemination (§4, §5.3)
// ---------------------------------------------------------------------------

void ScoopBaseAgent::LoopRemap() {
  RemapNow();
  ctx().Schedule(cfg_.remap_interval, [this] { LoopRemap(); });
}

bool ScoopBaseAgent::RemapNow() {
  if (latest_.empty()) return false;  // No statistics yet.

  BuildInputs inputs;
  inputs.attr = cfg_.attr;
  inputs.base = cfg_.self;
  inputs.now = ctx().now();
  inputs.xmits = &xmits_;
  inputs.query_stats = &query_stats_;

  Value lo = std::numeric_limits<Value>::max();
  Value hi = std::numeric_limits<Value>::min();
  for (const auto& [node, summary] : latest_) {
    if (summary.bins.empty()) continue;
    lo = std::min(lo, summary.vmin);
    hi = std::max(hi, summary.vmax);
    ProducerStats producer;
    producer.id = node;
    producer.histogram =
        storage::ValueHistogram::FromSummary(summary.vmin, summary.vmax, summary.bins);
    producer.rate = rates_[node].rate;
    inputs.producers.push_back(std::move(producer));
  }
  if (inputs.producers.empty() || lo > hi) return false;
  inputs.domain_lo = lo;
  inputs.domain_hi = hi;
  inputs.previous = last_disseminated_.valid() ? &last_disseminated_ : nullptr;
  for (int i = 0; i < cfg_.num_nodes; ++i) {
    inputs.candidates.push_back(static_cast<NodeId>(i));
  }

  RebuildXmits();
  BuildResult result = IndexBuilder::Build(inputs, cfg_.builder, next_index_id_);
  ++telemetry().indices_built;
  if (cfg_.trace != nullptr) {
    cfg_.trace->Instant(ctx().now(), "index.build", obs::TraceCat::kIndex,
                        static_cast<uint16_t>(cfg_.self), "id", next_index_id_,
                        "producers", inputs.producers.size());
  }

  // Suppression (§5.3): if behaviour barely changes *for the traffic that
  // actually flows*, let nodes keep using the old index and save the
  // mapping messages.
  if (last_disseminated_.valid() &&
      IndexBuilder::WeightedSimilarity(inputs, result.index, last_disseminated_) >=
          kSuppressionSimilarity) {
    ++telemetry().indices_suppressed;
    if (cfg_.trace != nullptr) {
      cfg_.trace->Instant(ctx().now(), "index.suppress", obs::TraceCat::kIndex,
                          static_cast<uint16_t>(cfg_.self), "id", next_index_id_);
    }
    return false;
  }

  ++next_index_id_;
  last_disseminated_ = result.index;
  index_history_.push_back(
      IndexGeneration{ctx().now(), result.index, result.expected_cost});
  ++telemetry().indices_disseminated;
  if (cfg_.trace != nullptr) {
    cfg_.trace->Instant(ctx().now(), "index.disseminate", obs::TraceCat::kIndex,
                        static_cast<uint16_t>(cfg_.self), "id",
                        result.index.id());
  }

  // Chunk to the MTU and seed our own gossip store; Trickle spreads it.
  MappingPayload empty_chunk;
  int max_entries =
      (ctx().radio_options().max_packet_bytes - PacketHeader::kWireSize -
       empty_chunk.WireSize()) /
      RangeEntry::kWireSize;
  for (const MappingPayload& chunk : result.index.ToChunks(max_entries)) {
    mutable_index_store().AddChunk(chunk);
  }
  // Kick the gossip timer so dissemination starts immediately. The
  // HandleMappingPacket path does this for nodes; the base seeds locally.
  KickGossip();
  return true;
}

// ---------------------------------------------------------------------------
// Query planning + answering (§5.5)
// ---------------------------------------------------------------------------

std::vector<NodeId> ScoopBaseAgent::PlanTargets(const Query& query) const {
  if (!query.explicit_nodes.empty()) return query.explicit_nodes;

  std::set<NodeId> targets;
  bool flood = false;
  // Until the first index is disseminated all data sits at its producers
  // (§5.3), so queries overlapping the data period must flood. Once an
  // index exists, the planner follows it; readings stored locally during
  // the brief pre-index window are no longer hunted down by flooding
  // (they account for part of the paper's <100% query recall).
  bool overlaps_data_period = query.time_hi >= cfg_.sampling_start;
  if (index_history_.empty()) {
    if (!overlaps_data_period) return {};  // Nothing can exist yet.
    flood = true;
  }
  bool any_index_active = false;
  // An index generation is possibly in force from its build time until the
  // adoption slack after the *next* generation appeared (nodes adopt
  // asynchronously and may miss mapping chunks, §5.3/§5.5).
  for (size_t i = 0; i < index_history_.size(); ++i) {
    SimTime active_from = index_history_[i].built_at;
    SimTime active_to = (i + 1 < index_history_.size())
                            ? index_history_[i + 1].built_at + cfg_.index_adoption_slack
                            : std::numeric_limits<SimTime>::max();
    if (active_to < query.time_lo || active_from > query.time_hi) continue;
    any_index_active = true;
    const StorageIndex& index = index_history_[i].index;
    std::vector<ValueRange> ranges = query.ranges;
    if (ranges.empty()) {
      ranges.push_back(ValueRange{index.domain_lo(), index.domain_hi()});
    }
    for (const ValueRange& r : ranges) {
      for (NodeId owner : index.OwnersInRange(r.lo, r.hi)) {
        if (owner == kStoreLocalOwner) {
          flood = true;  // Store-local period: any node may hold the data.
        } else {
          targets.insert(owner);
        }
      }
    }
  }
  // Flood when required: no index yet, or a store-local generation covers
  // the window.
  (void)any_index_active;
  if (flood) {
    std::vector<NodeId> all;
    for (int i = 0; i < cfg_.num_nodes; ++i) {
      if (static_cast<NodeId>(i) != cfg_.self) all.push_back(static_cast<NodeId>(i));
    }
    return all;
  }
  targets.erase(cfg_.self);
  return {targets.begin(), targets.end()};
}

bool ScoopBaseAgent::TryAnswerFromSummaries(const Query& query,
                                            QueryOutcome* outcome) const {
  if (query.kind == Query::Kind::kTuples) return false;
  if (!query.ranges.empty()) return false;  // Range-restricted aggregates need tuples.
  bool found = false;
  Value best = 0;
  for (const SummaryExtent& e : extents_) {
    if (e.cover_hi < query.time_lo || e.cover_lo > query.time_hi) continue;
    Value candidate = query.kind == Query::Kind::kMax ? e.vmax : e.vmin;
    if (!found) {
      best = candidate;
      found = true;
    } else {
      best = query.kind == Query::Kind::kMax ? std::max(best, candidate)
                                             : std::min(best, candidate);
    }
  }
  if (!found) return false;
  outcome->query = query;
  outcome->answered_from_summaries = true;
  outcome->aggregate = best;
  return true;
}

uint32_t ScoopBaseAgent::IssueQuery(const Query& query) {
  // Node-list queries bypass the index and say nothing about which values
  // users care about; only value queries feed the Figure 2 statistics.
  if (query.explicit_nodes.empty()) {
    query_stats_.RecordQuery(query.ranges, ctx().now());
  }

  QueryOutcome summary_outcome;
  if (TryAnswerFromSummaries(query, &summary_outcome)) {
    ++telemetry().queries_answered_from_summaries;
    return RecordImmediateOutcome(std::move(summary_outcome));
  }

  std::vector<NodeId> targets = PlanTargets(query);
  return IssueQueryToTargets(query, targets);
}

}  // namespace scoop::core
