#include "core/scoop_node_agent.h"

#include <optional>

#include "common/check.h"
#include "storage/summary_builder.h"

namespace scoop::core {

ScoopNodeAgent::ScoopNodeAgent(const AgentConfig& config)
    : AgentBase(config),
      recent_readings_(static_cast<size_t>(storage::kSummaryReadings)) {
  SCOOP_CHECK(!config.is_base());
}

void ScoopNodeAgent::OnAgentBoot() { ScheduleSummaryLoop(); }

// ---------------------------------------------------------------------------
// Sampling and the producer side of §5.4
// ---------------------------------------------------------------------------

void ScoopNodeAgent::OnSample(Value v) {
  Reading reading{v, ctx().now()};
  recent_readings_.Push(reading);
  ++samples_since_summary_;

  const StorageIndex* index = index_store_.current();
  if (index == nullptr) {
    // No complete storage index yet: default to local storage (§5.3).
    StoreReadings(OwnReadings(cfg_.self, kNoIndex, {reading}), StoreClass::kLocalNoIndex);
    return;
  }

  RouteReading(PickOwner(*index, v), reading);
}

NodeId ScoopNodeAgent::PickOwner(const StorageIndex& index, Value v) const {
  if (!index.multi_owner()) {
    std::optional<NodeId> owner = index.Lookup(v);
    return owner.has_value() ? *owner : cfg_.self;
  }
  // Owner-set extension (§4): choose the most convenient candidate.
  std::vector<NodeId> candidates = index.LookupAll(v);
  if (candidates.empty()) return cfg_.self;
  double best_quality = -1.0;
  NodeId best_neighbor = kInvalidNodeId;
  for (NodeId c : candidates) {
    if (c == cfg_.self || c == kStoreLocalOwner) return c;
    std::optional<double> quality = neighbors_.TrackedQuality(c);
    if (quality.has_value() && *quality > best_quality) {
      best_quality = *quality;
      best_neighbor = c;
    }
  }
  return best_neighbor != kInvalidNodeId ? best_neighbor : candidates.front();
}

void ScoopNodeAgent::RouteBatch(NodeId /*owner*/, std::vector<Reading> readings) {
  const StorageIndex* index = index_store_.current();
  if (index == nullptr || !index->valid()) {
    // Index vanished (cannot normally happen); store locally.
    StoreReadings(OwnReadings(cfg_.self, kNoIndex, std::move(readings)),
                  StoreClass::kLocalNoIndex);
    return;
  }
  auto groups = SplitByOwner(readings, [this, index](Value v) { return PickOwner(*index, v); });
  for (auto& [owner, group] : groups) {
    RouteData(OwnReadings(owner, index->id(), std::move(group)), cfg_.self, tree_.parent());
  }
}

// ---------------------------------------------------------------------------
// Forwarding side of §5.4 (rule 1: newer-index rewriting)
// ---------------------------------------------------------------------------

void ScoopNodeAgent::HandleData(const Packet& pkt) {
  const DataPayload& incoming = pkt.As<DataPayload>();
  const StorageIndex* index = index_store_.current();
  if (index == nullptr || index->id() <= incoming.sid) {
    // Our index is no newer: forward unchanged (rules 2-6).
    RouteData(incoming, pkt.hdr.origin, pkt.hdr.origin_parent);
    return;
  }
  // Rule 1: we hold a newer index; rewrite owner and sid. Readings that now
  // map to different owners are split into separate packets.
  auto groups = SplitByOwner(incoming.readings, [index, &incoming](Value v) {
    return index->Lookup(v).value_or(incoming.owner);
  });
  for (auto& [owner, readings] : groups) {
    NodeId dst = owner == kStoreLocalOwner ? incoming.producer : owner;
    RouteData(DataPayload{.attr = incoming.attr, .producer = incoming.producer, .owner = dst,
                          .sid = index->id(), .readings = std::move(readings)},
              pkt.hdr.origin, pkt.hdr.origin_parent);
  }
}

void ScoopNodeAgent::OnAgentReboot() {
  // Volatile sampling state died with the node: the recent-readings buffer
  // feeding summaries and the since-last-summary count.
  recent_readings_.Clear();
  samples_since_summary_ = 0;
}

// ---------------------------------------------------------------------------
// Summaries (§5.2)
// ---------------------------------------------------------------------------

void ScoopNodeAgent::ScheduleSummaryLoop() {
  SimTime start = cfg_.sampling_start > ctx().now() ? cfg_.sampling_start - ctx().now() : 0;
  // First summary goes out once some readings exist; subsequent ones every
  // summary_interval with +-10% jitter.
  SimTime phase = ctx().rng().UniformInt(cfg_.sample_interval, cfg_.summary_interval);
  ctx().Schedule(start + phase, [this] { LoopSummary(); });
}

void ScoopNodeAgent::LoopSummary() {
  if (!is_down()) SendSummary();
  // The jitter draw happens even while down: the per-node RNG stream must
  // advance identically whether or not this node's summary went out.
  SimTime interval = ctx().rng().UniformInt(cfg_.summary_interval * 9 / 10,
                                            cfg_.summary_interval * 11 / 10);
  ctx().Schedule(interval, [this] { LoopSummary(); });
}

void ScoopNodeAgent::SendSummary() {
  if (recent_readings_.empty()) return;
  SummaryPayload summary =
      storage::BuildSummary(cfg_.attr, recent_readings_, samples_since_summary_, neighbors_,
                            index_store_.current_id());
  samples_since_summary_ = 0;
  ++telemetry().summaries_sent;
  SendUp(MakeFromSelf(std::move(summary)));
}

}  // namespace scoop::core
