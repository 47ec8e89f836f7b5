#include "core/agent_base.h"

#include <algorithm>

#include "common/check.h"
#include "sim/radio_constants.h"

namespace scoop::core {

namespace {

/// Delay before the first send retry (fault.send_retry_max); attempt k
/// waits this << k.
constexpr SimTime kSendRetryBackoff = Millis(250);

/// Beacon period: each beacon waits a uniform draw from [1/2, 3/2] of it,
/// so the interval must be at least 2 microseconds.
constexpr SimTime kBeaconInterval = Seconds(10);
static_assert(kBeaconInterval / 2 >= 1);
/// Inbound-quality entries carried per beacon (bidirectional ETX).
constexpr int kBeaconLinkReportSize = 12;
/// Table-maintenance cadence (neighbor and descendant evictions).
constexpr SimTime kMaintenanceInterval = Seconds(30);

/// Minimum estimated link quality before rule 3 takes a shortcut (P4:
/// avoid lossy links that cause expensive retransmissions).
constexpr double kShortcutMinQuality = 0.3;

// --- Query dissemination (modified Trickle, §5.5) ---
/// Suppress a pending query rebroadcast after hearing it this many times.
constexpr int kQueryRedundancyK = 2;
/// A rebroadcast waits a uniform draw from [10 ms, this].
constexpr SimTime kQueryRebroadcastJitter = Millis(400);
static_assert(kQueryRebroadcastJitter >= Millis(10));
/// Replies spread over [50 ms, this] so dozens of responders do not
/// collide near the base (§5.5: "it takes several seconds for the first
/// replies to come back").
constexpr SimTime kReplyJitter = Seconds(3);
static_assert(kReplyJitter >= Millis(50));
/// Guard against pathological reply floods; chunking still applies.
constexpr int kMaxReplyTuples = 90;

}  // namespace

AgentBase::AgentBase(const AgentConfig& config)
    : cfg_(config),
      tree_(config.self, config.is_base()),
      ledger_(config.num_nodes) {
  SCOOP_CHECK(cfg_.telemetry != nullptr);
  SCOOP_CHECK_GT(cfg_.num_nodes, 0);
  SCOOP_CHECK_LT(static_cast<int>(cfg_.self), cfg_.num_nodes);
  SCOOP_CHECK(cfg_.is_base() || cfg_.sample_fn != nullptr);
}

AgentBase::~AgentBase() = default;

void AgentBase::OnBoot(sim::Context& ctx) {
  ctx_ = &ctx;
  if (MappingGossipEnabled()) {
    gossip_ = std::make_unique<trickle::TrickleDriver>(ctx_, [this] { ShareGossipChunk(); });
    gossip_->Start();
  }
  ScheduleBeaconLoop();
  ScheduleMaintenanceLoop();
  if (!cfg_.is_base()) ScheduleSampling();
  OnAgentBoot();
}

void AgentBase::OnReceive(sim::Context& ctx, const Packet& pkt, const sim::ReceiveInfo& info) {
  (void)ctx;
  neighbors_.OnPacketSeen(pkt.hdr.link_src, pkt.hdr.seq, ctx_->now(), info.in_link);
  if (info.duplicate && pkt.hdr.type != PacketType::kBeacon) {
    return;  // Link-layer retransmission we already processed.
  }
  if (cfg_.is_base()) OnPacketAtBase(pkt);
  switch (pkt.hdr.type) {
    case PacketType::kBeacon:
      HandleBeacon(pkt, info.in_link);
      break;
    case PacketType::kSummary:
      MaybeLearnDescendant(pkt);
      if (cfg_.is_base()) {
        HandleSummaryAtBase(pkt);
      } else {
        SendUp(pkt);  // Relay toward the base.
      }
      break;
    case PacketType::kMapping:
      HandleMappingPacket(pkt);
      break;
    case PacketType::kData:
      HandleData(pkt);
      break;
    case PacketType::kQuery:
      HandleQueryPacket(pkt);
      break;
    case PacketType::kReply:
      MaybeLearnDescendant(pkt);
      HandleReplyPacket(pkt);
      break;
  }
}

void AgentBase::OnSnoop(sim::Context& ctx, const Packet& pkt, const sim::ReceiveInfo& info) {
  (void)ctx;
  // Promiscuous listening feeds the link estimator (§5.2).
  neighbors_.OnPacketSeen(pkt.hdr.link_src, pkt.hdr.seq, ctx_->now(), info.in_link);
}

void AgentBase::OnSendDone(sim::Context& ctx, const Packet& pkt, bool success) {
  (void)ctx;
  if (success) return;
  if (pkt.hdr.type == PacketType::kData) {
    const DataPayload& d = pkt.As<DataPayload>();
    // Last-ditch fallback (§5.4 discussion): if the failed hop was a
    // shortcut or a downward branch, fall back to the parent path; data
    // that cannot go anywhere is stored here rather than dropped when
    // possible.
    if (!cfg_.is_base() && tree_.parent() != kInvalidNodeId &&
        pkt.hdr.link_dst != tree_.parent()) {
      Packet retry = pkt;
      retry.hdr.link_dst = tree_.parent();
      ctx_->Unicast(tree_.parent(), std::move(retry));
      return;
    }
    if (cfg_.is_base()) {
      StoreReadings(d, StoreClass::kFallback);
      return;
    }
    if (!MaybeRetrySend(pkt)) ParkOrLose(d);
    return;
  }
  if (pkt.hdr.type == PacketType::kSummary) MaybeRetrySend(pkt);
}

bool AgentBase::MaybeRetrySend(const Packet& pkt) {
  if (cfg_.fault_send_retry_max <= 0) return false;
  if (pkt.hdr.retry_attempt >= cfg_.fault_send_retry_max) return false;
  // Bounded retry-with-backoff (fault degradation): re-send toward the
  // then-current parent after an exponentially growing, draw-free delay.
  // The attempt count rides in the header's host-only retry_attempt field.
  Packet retry = pkt;
  SimTime backoff = kSendRetryBackoff << retry.hdr.retry_attempt;
  ++retry.hdr.retry_attempt;
  ++telemetry().send_retries;
  ctx_->Schedule(backoff, [this, retry] {
    if (down_) {
      // Crashed while backing off. Account for the readings rather than
      // letting them vanish with the dead radio.
      if (retry.hdr.type == PacketType::kData) ParkOrLose(retry.As<DataPayload>());
      return;
    }
    NodeId dst =
        tree_.parent() != kInvalidNodeId ? tree_.parent() : retry.hdr.link_dst;
    Packet p = retry;
    p.hdr.link_dst = dst;
    ctx_->Unicast(dst, std::move(p));
  });
  return true;
}

// ---------------------------------------------------------------------------
// Fault lifecycle (src/fault/)
// ---------------------------------------------------------------------------

void AgentBase::OnCrash(sim::Context& ctx) {
  (void)ctx;
  down_ = true;
}

void AgentBase::OnReboot(sim::Context& ctx) {
  (void)ctx;
  down_ = false;
  // Volatile state is gone: stored tuples, routing tree, link estimates,
  // descendant cache, the query ids heard, the outgoing batch (its
  // readings are neither stored nor counted lost), and the orphan buffer
  // (its readings stay counted as orphaned-but-never-rehomed, so the loss
  // is visible in the accounting). The index store survives deliberately
  // -- a rebooted node holds a stale index until gossip catches it up
  // (§5.3).
  flash_.Clear();
  neighbors_ = net::NeighborTable();
  tree_ = net::RoutingTree(cfg_.self, cfg_.is_base());
  descendants_ = net::DescendantsTable();
  queries_heard_.clear();
  batch_.clear();
  orphans_.clear();
  OnAgentReboot();
}

void AgentBase::OnRootPromote(sim::Context& ctx, bool promote) {
  (void)ctx;
  // Failover backup: advertise root status (depth 0, cost 0) in beacons so
  // the tree re-converges on us while the real base is dark. cfg_.base is
  // untouched: queries and summary handling stay at the configured base,
  // and data routed to a promoted non-base node pools there (rule 6's
  // no-route store) until the outage heals -- degraded, never dropped.
  tree_.SetRoot(promote || cfg_.is_base());
}

// ---------------------------------------------------------------------------
// Tree maintenance
// ---------------------------------------------------------------------------

void AgentBase::ScheduleBeaconLoop() {
  SimTime jitter = ctx_->rng().UniformInt(kBeaconInterval / 2, kBeaconInterval * 3 / 2);
  ctx_->Schedule(jitter, [this] {
    SendBeacon();
    ScheduleBeaconLoop();
  });
}

void AgentBase::SendBeacon() {
  if (down_) return;  // Crashed: the radio is off anyway; skip the work.
  bool had_parent = tree_.parent() != kInvalidNodeId;
  tree_.MaybeTimeoutParent(ctx_->now());
  if (had_parent && tree_.parent() == kInvalidNodeId) {
    ++telemetry().parent_losses;
    if (cfg_.trace != nullptr) {
      cfg_.trace->Instant(ctx_->now(), "route.parent_lost", obs::TraceCat::kFault,
                          static_cast<uint16_t>(cfg_.self));
    }
  }
  BeaconPayload beacon = tree_.MakeBeacon();
  // Tell neighbors how well we hear them (bidirectional link estimation).
  beacon.link_report = neighbors_.BestNeighbors(kBeaconLinkReportSize);
  ctx_->Broadcast(MakeFromSelf(std::move(beacon)));
}

void AgentBase::ScheduleMaintenanceLoop() {
  ctx_->Schedule(kMaintenanceInterval, [this] {
    neighbors_.EvictStale(ctx_->now());
    descendants_.EvictStale(ctx_->now());
    ScheduleMaintenanceLoop();
  });
}

void AgentBase::ScheduleSampling() {
  SimTime start = cfg_.sampling_start > ctx_->now() ? cfg_.sampling_start - ctx_->now() : 0;
  SimTime phase = ctx_->rng().UniformInt(0, cfg_.sample_interval - 1);
  ctx_->Schedule(start + phase, [this] { SampleTick(); });
}

void AgentBase::SampleTick() {
  // A crashed node samples nothing; the timer chain keeps ticking so
  // sampling resumes on its own phase after a reboot.
  if (!down_) {
    ++telemetry().readings_produced;
    OnSample(cfg_.sample_fn(cfg_.self, ctx_->now()));
  }
  ctx_->Schedule(cfg_.sample_interval, [this] { SampleTick(); });
}

void AgentBase::HandleBeacon(const Packet& pkt, uint16_t in_link) {
  const BeaconPayload& beacon = pkt.As<BeaconPayload>();
  for (const NeighborEntry& entry : beacon.link_report) {
    if (entry.id == cfg_.self) {
      neighbors_.OnReverseReport(pkt.hdr.link_src,
                                 static_cast<double>(entry.quality_x255) / 255.0, in_link);
    }
  }
  // Route cost uses the expected per-attempt success of unicasts *toward*
  // the candidate (outbound data + inbound ACK), not raw inbound quality.
  tree_.OnBeacon(pkt.hdr.link_src, beacon,
                 neighbors_.UnicastQuality(pkt.hdr.link_src, in_link), ctx_->now());
}

void AgentBase::MaybeLearnDescendant(const Packet& pkt) {
  // Summaries and replies only ever travel up the tree, so the origin of
  // one we receive is a descendant reachable via the link sender (§5.1).
  if (pkt.hdr.origin == cfg_.self) return;
  descendants_.Learn(pkt.hdr.origin, pkt.hdr.link_src, ctx_->now());
  // The origin's parent field additionally identifies direct children.
  if (pkt.hdr.origin_parent == cfg_.self) {
    descendants_.Learn(pkt.hdr.origin, pkt.hdr.origin, ctx_->now());
  }
}

bool AgentBase::SendUp(Packet pkt) {
  if (cfg_.is_base()) return false;
  if (tree_.parent() == kInvalidNodeId) return false;
  ctx_->Unicast(tree_.parent(), std::move(pkt));
  return true;
}

// ---------------------------------------------------------------------------
// Data path (routing rules 2-6 of §5.4)
// ---------------------------------------------------------------------------

void AgentBase::HandleData(const Packet& pkt) {
  RouteData(pkt.As<DataPayload>(), pkt.hdr.origin, pkt.hdr.origin_parent);
}

void AgentBase::RouteData(DataPayload data, NodeId origin, NodeId origin_parent) {
  // Telemetry: a fresh batch leaving its producer (relay hops not counted).
  auto count_tx = [this, origin, &data] {
    if (origin != cfg_.self) return;
    ++telemetry().data_packets_originated;
    telemetry().readings_sent_remote += data.readings.size();
  };
  // Rule 2 (and the store-local sentinel): this node is the destination.
  if (data.owner == kStoreLocalOwner) {
    StoreReadings(data, StoreClass::kOwner);
    return;
  }
  if (data.owner == cfg_.self) {
    StoreReadings(data, StoreClass::kOwner);
    return;
  }
  // Rule 3: shortcut through the neighbor list, ignoring the tree -- but
  // only over links good enough that the shortcut actually saves
  // transmissions (P4).
  if (cfg_.enable_neighbor_shortcut &&
      neighbors_.UnicastQuality(data.owner) >= kShortcutMinQuality) {
    count_tx();
    Packet pkt = MakePacket(origin, origin_parent, std::move(data));
    ctx_->Unicast(pkt.As<DataPayload>().owner, std::move(pkt));
    return;
  }
  // Rule 4: the basestation never routes data back down.
  if (cfg_.is_base()) {
    StoreReadings(data, StoreClass::kFallback);
    return;
  }
  // Rule 5: route down a known child branch.
  if (cfg_.enable_descendant_routing) {
    std::optional<NodeId> hop = descendants_.NextHop(data.owner);
    if (hop.has_value() && *hop != cfg_.self) {
      count_tx();
      Packet pkt = MakePacket(origin, origin_parent, std::move(data));
      ctx_->Unicast(*hop, std::move(pkt));
      return;
    }
  }
  // Rule 6: toward the basestation.
  if (tree_.parent() != kInvalidNodeId) {
    count_tx();
    Packet pkt = MakePacket(origin, origin_parent, std::move(data));
    ctx_->Unicast(tree_.parent(), std::move(pkt));
    return;
  }
  // No route at all: keep the data rather than dropping it.
  StoreReadings(data, StoreClass::kFallback);
}

void AgentBase::RouteReading(NodeId owner, Reading reading) {
  if (owner == kStoreLocalOwner || owner == cfg_.self) {
    StoreReadings(OwnReadings(cfg_.self, kNoIndex, {reading}), StoreClass::kOwner);
    return;
  }
  if (!batch_.empty() && batch_owner_ != owner) FlushBatch();
  batch_owner_ = owner;
  batch_.push_back(reading);
  if (static_cast<int>(batch_.size()) >= cfg_.max_batch) FlushBatch();
}

void AgentBase::FlushBatch() {
  if (batch_.empty()) return;
  std::vector<Reading> readings = std::move(batch_);
  batch_.clear();
  RouteBatch(batch_owner_, std::move(readings));
}

void AgentBase::RouteBatch(NodeId owner, std::vector<Reading> readings) {
  (void)owner;
  (void)readings;
  SCOOP_CHECK(false);  // A policy that batches routes its own batches.
}

void AgentBase::StoreReadings(const DataPayload& data, StoreClass cls) {
  for (const Reading& r : data.readings) {
    flash_.Store(storage::StoredTuple{data.producer, r.value, r.time});
    ++telemetry().readings_stored;
    switch (cls) {
      case StoreClass::kOwner:
        ++telemetry().stored_at_owner;
        break;
      case StoreClass::kLocalNoIndex:
        ++telemetry().stored_local_no_index;
        break;
      case StoreClass::kFallback:
        break;  // Stored, but in no headline category.
    }
  }
}

// ---------------------------------------------------------------------------
// Orphaned readings (fault degradation: owner unreachable)
// ---------------------------------------------------------------------------

void AgentBase::ParkOrLose(const DataPayload& data) {
  if (!cfg_.fault_orphan_rehoming) {
    telemetry().readings_lost += data.readings.size();
    return;
  }
  // Park locally -- the tuples are queryable here in the meantime -- and
  // remember the batch so RehomeOrphans can re-route it once a fresh index
  // arrives.
  StoreReadings(data, StoreClass::kFallback);
  telemetry().readings_orphaned += data.readings.size();
  if (cfg_.trace != nullptr) {
    cfg_.trace->Instant(ctx_->now(), "data.orphaned", obs::TraceCat::kFault,
                        static_cast<uint16_t>(cfg_.self), "readings",
                        static_cast<uint64_t>(data.readings.size()));
  }
  if (orphans_.size() >= kMaxOrphanBatches) {
    // Evict the oldest batch, visibly: its readings move from "awaiting
    // re-home" to lost. (They remain stored locally from the park above.)
    telemetry().readings_lost += orphans_.front().readings.size();
    orphans_.erase(orphans_.begin());
  }
  orphans_.push_back(data);
}

void AgentBase::RehomeOrphans() {
  if (orphans_.empty()) return;
  const StorageIndex* index = index_store_.current();
  if (index == nullptr || !index->valid()) return;  // Keep waiting.
  std::vector<DataPayload> batches = std::move(orphans_);
  orphans_.clear();
  uint64_t rehomed = 0;
  for (DataPayload& stale : batches) {
    // Re-resolve each reading's owner under the newest index, splitting
    // the batch where the mapping diverged (rule 1); unmapped values stay.
    auto groups = SplitByOwner(
        stale.readings, [this, index](Value v) { return index->Lookup(v).value_or(cfg_.self); });
    for (auto& [owner, readings] : groups) {
      rehomed += readings.size();
      telemetry().readings_rehomed += readings.size();
      // Already stored here; the new index now agrees this is home.
      if (owner == kStoreLocalOwner || owner == cfg_.self) continue;
      // Re-routed away: the parked copy was a stopgap, not storage. Undo
      // its readings_stored credit so the batch counts once -- wherever it
      // lands next (owner, fallback, or a fresh orphan park) re-counts it,
      // keeping storage_success a fraction of unique readings.
      telemetry().readings_stored -= readings.size();
      RouteData(DataPayload{.attr = stale.attr, .producer = stale.producer, .owner = owner,
                            .sid = index->id(), .readings = std::move(readings)},
                cfg_.self, tree_.parent());
    }
  }
  if (cfg_.trace != nullptr && rehomed > 0) {
    cfg_.trace->Instant(ctx_->now(), "data.rehomed", obs::TraceCat::kFault,
                        static_cast<uint16_t>(cfg_.self), "readings", rehomed);
  }
}

// ---------------------------------------------------------------------------
// Storage-index gossip (§5.3)
// ---------------------------------------------------------------------------

void AgentBase::KickGossip() {
  if (gossip_ != nullptr) gossip_->NoteInconsistent();
}

void AgentBase::ShareGossipChunk() {
  std::optional<MappingPayload> chunk = index_store_.NextShareChunk();
  if (!chunk.has_value()) return;
  chunk->sender_complete = index_store_.assembling_complete();
  chunk->owned_mask = index_store_.owned_mask();
  ctx_->Broadcast(MakeFromSelf(std::move(*chunk)));
}

void AgentBase::HandleMappingPacket(const Packet& pkt) {
  if (!MappingGossipEnabled()) return;
  const MappingPayload& chunk = pkt.As<MappingPayload>();
  IndexStore::ChunkResult result = index_store_.AddChunk(chunk);
  switch (result) {
    case IndexStore::ChunkResult::kStale:
      // The sender lags a version behind: reset Trickle so our newer
      // chunks spread quickly.
      gossip_->NoteInconsistent();
      break;
    case IndexStore::ChunkResult::kDuplicate:
      // Suppress only in the healthy steady state: both sides complete.
      // Hearing a still-assembling neighbor must not quiet us down, but
      // resetting on every such chunk would storm; our interval is already
      // short right after a dissemination began.
      if (index_store_.assembling_complete() && chunk.sender_complete) {
        gossip_->NoteConsistent();
      }
      break;
    case IndexStore::ChunkResult::kNew:
      gossip_->NoteInconsistent();
      break;
    case IndexStore::ChunkResult::kCompleted:
      gossip_->NoteInconsistent();
      // A new index may re-map the pending batch: send it under the new
      // mapping rather than letting it go stale.
      FlushBatch();
      // A fresh index is the re-homing trigger: owners that were
      // unreachable before the remap may be mapped (or reachable) now.
      RehomeOrphans();
      break;
  }
  // Nodes still missing chunks keep their Trickle hot so their (incomplete)
  // broadcasts keep soliciting the missing pieces from neighbors.
  gossip_->set_hold_at_min(!index_store_.assembling_complete() &&
                           index_store_.newest_heard() != kNoIndex);

  // Deluge-style repair: a complete node that hears an incomplete neighbor
  // answers with precisely a chunk the neighbor lacks (rate-limited).
  if (!chunk.sender_complete && index_store_.assembling_complete() &&
      chunk.index_id == index_store_.newest_heard() &&
      ctx_->now() - last_gossip_help_ >= Seconds(2)) {
    last_gossip_help_ = ctx_->now();
    for (uint8_t idx = 0; idx < 16; ++idx) {
      if ((chunk.owned_mask >> idx) & 1u) continue;
      std::optional<MappingPayload> missing = index_store_.ChunkAt(chunk.index_id, idx);
      if (!missing.has_value()) continue;
      missing->sender_complete = true;
      missing->owned_mask = index_store_.owned_mask();
      Packet help = MakeFromSelf(std::move(*missing));
      SimTime jitter = ctx_->rng().UniformInt(Millis(20), Millis(300));
      ctx_->Schedule(jitter, [this, help] { ctx_->Broadcast(help); });
      break;
    }
  }
}

// ---------------------------------------------------------------------------
// Query dissemination, replies, and collection (§5.5)
// ---------------------------------------------------------------------------

bool AgentBase::ShouldRebroadcastQuery(const QueryPayload& query) const {
  // Walk the at most 32 neighbours and descendants against the target set,
  // not the target set (at 1000+ nodes a flood names the whole network)
  // against the tables.
  auto helps = [this, &query](NodeId id) { return id != cfg_.self && query.targets.Test(id); };
  return descendants_.AnyOf(helps) || neighbors_.AnyOf(helps);
}

void AgentBase::HandleQueryPacket(const Packet& pkt) {
  if (cfg_.is_base()) return;  // Echo of our own flood.
  const QueryPayload& query = pkt.As<QueryPayload>();
  if (++queries_heard_[query.query_id] > 1) return;

  if (query.targets.Test(cfg_.self)) {
    SimTime jitter = ctx_->rng().UniformInt(Millis(50), kReplyJitter);
    QueryPayload copy = query;
    ctx_->Schedule(jitter, [this, copy] { SendQueryReply(copy); });
  }
  if (ShouldRebroadcastQuery(query)) {
    SimTime jitter = ctx_->rng().UniformInt(Millis(10), kQueryRebroadcastJitter);
    Packet copy = pkt;  // Keep the base as origin.
    uint32_t id = query.query_id;
    ctx_->Schedule(jitter, [this, copy, id] {
      // Polite gossip: suppress if we heard the query enough times while
      // waiting (our neighborhood is covered).
      if (queries_heard_[id] > kQueryRedundancyK) return;
      if (cfg_.trace != nullptr) {
        cfg_.trace->Instant(ctx_->now(), "query.fwd", obs::TraceCat::kQuery,
                            static_cast<uint16_t>(cfg_.self), "id", id);
      }
      ctx_->Broadcast(copy);
    });
  }
}

void AgentBase::SendQueryReply(const QueryPayload& query) {
  std::vector<ReplyTuple> tuples = flash_.Scan(query);
  uint16_t total = static_cast<uint16_t>(std::min<size_t>(tuples.size(), 0xFFFF));
  if (cfg_.trace != nullptr) {
    cfg_.trace->Instant(ctx_->now(), "query.scan", obs::TraceCat::kQuery,
                        static_cast<uint16_t>(cfg_.self), "id", query.query_id,
                        "matches", total);
  }
  if (static_cast<int>(tuples.size()) > kMaxReplyTuples) {
    tuples.resize(static_cast<size_t>(kMaxReplyTuples));
  }
  // Chunk to the MTU; nodes reply even when nothing matched (§5.5).
  const int per_chunk = 9;
  int num_chunks =
      std::max(1, (static_cast<int>(tuples.size()) + per_chunk - 1) / per_chunk);
  for (int c = 0; c < num_chunks; ++c) {
    ReplyPayload reply;
    reply.query_id = query.query_id;
    reply.responder = cfg_.self;
    reply.chunk_idx = static_cast<uint8_t>(c);
    reply.num_chunks = static_cast<uint8_t>(num_chunks);
    reply.total_matches = total;
    size_t begin = static_cast<size_t>(c) * per_chunk;
    size_t end = std::min(tuples.size(), begin + per_chunk);
    reply.tuples.assign(tuples.begin() + static_cast<long>(begin),
                        tuples.begin() + static_cast<long>(end));
    // Stagger chunks slightly so they do not collide with each other.
    SimTime delay = Millis(30) * c;
    Packet pkt = MakeFromSelf(std::move(reply));
    ctx_->Schedule(delay, [this, pkt] { SendUp(pkt); });
  }
}

void AgentBase::HandleReplyPacket(const Packet& pkt) {
  if (!cfg_.is_base()) {
    SendUp(pkt);
    return;
  }
  const ReplyPayload& reply = pkt.As<ReplyPayload>();
  // A reply to a re-issue wire id credits the original query; late replies
  // and replies from unrequested nodes are dropped.
  bool first = false;
  QueryLedger::Entry* entry = ledger_.Credit(reply.query_id, reply.responder, &first);
  if (entry == nullptr) return;
  if (first && cfg_.trace != nullptr) {
    cfg_.trace->Instant(ctx_->now(), "query.reply", obs::TraceCat::kQuery,
                        static_cast<uint16_t>(cfg_.self), "id", reply.query_id,
                        "responder", static_cast<uint64_t>(reply.responder));
  }
  QueryOutcome& outcome = entry->outcome;
  outcome.tuples.insert(outcome.tuples.end(), reply.tuples.begin(), reply.tuples.end());
  if (outcome.responders >= outcome.targets) CloseQuery(outcome.query_id);
}

QueryPayload AgentBase::MakeQueryPayload(const Query& query, NodeSet targets) {
  return QueryPayload{.attr = query.attr, .targets = std::move(targets), .time_lo = query.time_lo,
                      .time_hi = query.time_hi, .ranges = query.ranges};
}

bool AgentBase::FitToFrame(QueryPayload* payload) const {
  int set_budget = sim::kMaxPacketBytes - PacketHeader::kWireSize -
                   (payload->WireSize() - payload->targets.WireSize());
  if (payload->targets.WireSize() <= set_budget) return true;
  payload->targets = payload->targets.CoarsenedToFit(set_budget, cfg_.base);
  return payload->targets.WireSize() <= set_budget;
}

std::vector<NodeId> AgentBase::AllSensors() const {
  std::vector<NodeId> all;
  for (int i = 0; i < cfg_.num_nodes; ++i) {
    if (static_cast<NodeId>(i) != cfg_.base) all.push_back(static_cast<NodeId>(i));
  }
  return all;
}

uint32_t AgentBase::IssueQuery(const Query& query) {
  return IssueQueryToTargets(query, AllSensors());
}

uint32_t AgentBase::IssueQueryToTargets(const Query& query,
                                        const std::vector<NodeId>& targets) {
  SCOOP_CHECK(cfg_.is_base());
  SCOOP_CHECK(ctx_ != nullptr);
  NodeSet wire_targets(cfg_.num_nodes);
  DynamicNodeBitmap requested(cfg_.num_nodes);
  for (NodeId t : targets) {
    if (t != cfg_.base) {
      wire_targets.Set(t);
      requested.Set(t);
    }
  }
  // Above the legacy 128-node regime an adversarially scattered set can
  // exceed the MTU even in its smallest form. The extra nodes coarsening
  // adds reply, but the ledger drops them against `requested`, so
  // coarsening is purely a wire-level concession -- outcomes are unchanged.
  QueryPayload payload = MakeQueryPayload(query, std::move(wire_targets));
  if (!FitToFrame(&payload)) {
    // Even a single covering run cannot sit beside this many value ranges
    // (only reachable via hand-built queries; the workloads emit 0-1
    // ranges). Answer from the base's own store instead of emitting an
    // unsendable frame.
    payload.targets = NodeSet(cfg_.num_nodes);
    requested = DynamicNodeBitmap(cfg_.num_nodes);
  }
  uint32_t id = ledger_.Open(query, std::move(requested), ctx_->now());
  payload.query_id = id;
  QueryOutcome& outcome = ledger_.open(id)->outcome;
  if (cfg_.trace != nullptr) {
    cfg_.trace->Instant(ctx_->now(), "query.issue", obs::TraceCat::kQuery,
                        static_cast<uint16_t>(cfg_.self), "id", id, "targets",
                        static_cast<uint64_t>(outcome.targets));
  }
  // The base's own store answers for free (fallback data + values the
  // index mapped to the base).
  outcome.tuples = flash_.Scan(payload);

  ++telemetry().queries_issued;
  telemetry().query_targets_total += static_cast<uint64_t>(outcome.targets);

  if (payload.targets.Empty()) {
    CloseQuery(id);
    return id;
  }
  ctx_->Broadcast(MakeFromSelf(std::move(payload)));
  ctx_->Schedule(kQueryTimeout, [this, id] { CloseQuery(id); });
  return id;
}

void AgentBase::ReissueQuery(uint32_t query_id) {
  // Flood only the requested-but-silent responders, under a fresh wire id
  // so nodes that already reacted to the original flood react again.
  uint32_t wire_id = ledger_.Alias(query_id);
  ++telemetry().queries_reissued;

  const QueryLedger::Entry& entry = *ledger_.open(query_id);
  NodeSet missing(cfg_.num_nodes);
  for (NodeId n : entry.requested.ToVector()) {
    if (!entry.responded.Test(n)) missing.Set(n);
  }
  if (cfg_.trace != nullptr) {
    cfg_.trace->Instant(ctx_->now(), "query.reissue", obs::TraceCat::kFault,
                        static_cast<uint16_t>(cfg_.self), "id", query_id,
                        "missing", static_cast<uint64_t>(missing.Count()));
  }
  // Re-issue sets are subsets of the original, so overflow is rare; an
  // unsendable set just skips the flood and the follow-up timeout closes
  // the query.
  QueryPayload payload = MakeQueryPayload(entry.outcome.query, std::move(missing));
  payload.query_id = wire_id;
  if (!payload.targets.Empty() && FitToFrame(&payload)) {
    ctx_->Broadcast(MakeFromSelf(std::move(payload)));
  }
  // Intentionally NOT bumping queries_issued / query_targets_total: the
  // re-issue is the same logical query, and the QueryDriver's selectivity
  // metric reads those counters as per-query deltas.
  ctx_->Schedule(kQueryTimeout, [this, query_id] { CloseQuery(query_id); });
}

void AgentBase::CloseQuery(uint32_t query_id) {
  QueryLedger::Entry* entry = ledger_.open(query_id);
  if (entry == nullptr) return;  // Already closed.
  // Degradation fallback: an incomplete query with re-issue budget left is
  // not closed -- the still-missing responders are asked again under a
  // fresh wire id and a new timeout is armed.
  if (entry->outcome.responders < entry->outcome.targets &&
      entry->reissues < cfg_.fault_query_reissue_max) {
    ReissueQuery(query_id);
    return;
  }
  const QueryOutcome& outcome = ledger_.Close(query_id, ctx_->now());
  if (entry->flooded && cfg_.trace != nullptr) {
    // The whole issue-to-close lifetime as one span on the base's track.
    cfg_.trace->Span(entry->issued_at, ctx_->now() - entry->issued_at, "query",
                     obs::TraceCat::kQuery, static_cast<uint16_t>(cfg_.self),
                     "id", query_id, "responders",
                     static_cast<uint64_t>(outcome.responders));
  }
  telemetry().replies_received += static_cast<uint64_t>(outcome.responders);
  telemetry().tuples_returned += outcome.tuples.size();
  if (on_query_complete) on_query_complete(outcome);
}

uint32_t AgentBase::RecordImmediateOutcome(QueryOutcome outcome) {
  uint32_t id = ledger_.Record(std::move(outcome));
  ++telemetry().queries_issued;
  CloseQuery(id);
  return id;
}

}  // namespace scoop::core
