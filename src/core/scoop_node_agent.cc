#include "core/scoop_node_agent.h"

#include <map>
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

  NodeId owner = PickOwner(*index, v);
  if (owner == kStoreLocalOwner || owner == cfg_.self) {
    StoreReadings(OwnReadings(cfg_.self, index->id(), {reading}), StoreClass::kOwner);
    return;
  }

  // Batch readings destined for the same owner (§5.4). A reading for a
  // different owner flushes the batch first.
  if (batch_.active && batch_.owner != owner) FlushBatch();
  if (!batch_.active) {
    batch_.active = true;
    batch_.owner = owner;
    batch_.sid = index->id();
    batch_.readings.clear();
  }
  batch_.readings.push_back(reading);
  if (static_cast<int>(batch_.readings.size()) >= cfg_.max_batch) FlushBatch();
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

void ScoopNodeAgent::FlushBatch() {
  if (!batch_.active) return;
  batch_.active = false;
  const StorageIndex* index = index_store_.current();
  if (index == nullptr || !index->valid()) {
    // Index vanished (cannot normally happen); store locally.
    StoreReadings(OwnReadings(cfg_.self, kNoIndex, std::move(batch_.readings)),
                  StoreClass::kLocalNoIndex);
    return;
  }
  // Rule 1 applies to queued readings as well: resolve owners against the
  // *current* index, splitting the batch if the mapping changed.
  std::map<NodeId, std::vector<Reading>> groups;
  for (const Reading& r : batch_.readings) {
    groups[PickOwner(*index, r.value)].push_back(r);
  }
  batch_.readings.clear();
  for (auto& [owner, readings] : groups) {
    RouteData(OwnReadings(owner, index->id(), std::move(readings)), cfg_.self, tree_.parent());
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
  std::map<NodeId, std::vector<Reading>> groups;
  for (const Reading& r : incoming.readings) {
    std::optional<NodeId> owner = index->Lookup(r.value);
    groups[owner.value_or(incoming.owner)].push_back(r);
  }
  for (auto& [owner, readings] : groups) {
    NodeId dst = owner == kStoreLocalOwner ? incoming.producer : owner;
    RouteData(DataPayload{.attr = incoming.attr, .producer = incoming.producer, .owner = dst,
                          .sid = index->id(), .readings = std::move(readings)},
              pkt.hdr.origin, pkt.hdr.origin_parent);
  }
}

void ScoopNodeAgent::OnIndexCompleted() {
  // A new index may re-map the pending batch; flush it under the new
  // mapping rather than letting it go stale.
  FlushBatch();
}

void ScoopNodeAgent::OnAgentReboot() {
  // Volatile sampling state died with the node: the recent-readings buffer
  // feeding summaries, the outgoing batch, and the since-last-summary
  // count.
  recent_readings_.Clear();
  batch_.active = false;
  batch_.readings.clear();
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
