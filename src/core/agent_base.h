// Shared protocol machinery for every agent in a Scoop network: routing-
// tree maintenance (§5.1), passive neighbor estimation (§5.2), descendants
// learning (§5.1), query dissemination with the bitmap-filtered "modified
// Trickle" (§5.5), reply generation and collection, storage-index gossip
// (§5.3), and the one data path of §5.4: the sampling loop, the per-owner
// batch, rule 1's split of readings by owner, routing rules 2-6, and the
// park-or-lose choice for a batch whose send failed for good.
//
// Policy agents (Scoop, LOCAL, BASE, HASH) subclass this and only decide:
// which owner a reading goes to (OnSample), how a flushed batch is routed
// (RouteBatch), and which nodes a query asks (IssueQuery).
#ifndef SCOOP_CORE_AGENT_BASE_H_
#define SCOOP_CORE_AGENT_BASE_H_

#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/node_bitmap.h"
#include "core/agent_config.h"
#include "core/index_store.h"
#include "core/query.h"
#include "core/query_ledger.h"
#include "net/descendants.h"
#include "net/neighbor_table.h"
#include "net/routing_tree.h"
#include "sim/app.h"
#include "storage/flash_store.h"
#include "trickle/trickle_driver.h"

namespace scoop::core {

/// Base class for all protocol agents.
class AgentBase : public sim::App {
 public:
  /// How long the base waits for query replies before closing a query.
  static constexpr SimTime kQueryTimeout = Seconds(12);

  explicit AgentBase(const AgentConfig& config);
  ~AgentBase() override;

  // --- sim::App (final; subclasses use the protected hooks) ---
  void OnBoot(sim::Context& ctx) final;
  void OnReceive(sim::Context& ctx, const Packet& pkt, const sim::ReceiveInfo& info) final;
  void OnSnoop(sim::Context& ctx, const Packet& pkt, const sim::ReceiveInfo& info) final;
  void OnSendDone(sim::Context& ctx, const Packet& pkt, bool success) final;
  void OnCrash(sim::Context& ctx) final;
  void OnReboot(sim::Context& ctx) final;
  void OnRootPromote(sim::Context& ctx, bool promote) final;

  // --- Introspection (tests, harness, examples) ---
  const AgentConfig& config() const { return cfg_; }
  const net::RoutingTree& tree() const { return tree_; }
  const net::NeighborTable& neighbors() const { return neighbors_; }
  const net::DescendantsTable& descendants() const { return descendants_; }
  const storage::FlashStore& flash() const { return flash_; }
  const IndexStore& index_store() const { return index_store_; }

  // --- Base-side query machinery (usable by any is_base() agent) ---

  /// Issues a user query (§5.5) and returns its id; the outcome is
  /// available via outcome() once closed. Must only be called on the
  /// basestation agent. Default: flood every sensor (LOCAL's plan).
  virtual uint32_t IssueQuery(const Query& query);

  /// Sends a query to `targets` (the base's own store is always scanned
  /// locally as well). Returns the query id. Must only be called on the
  /// basestation agent.
  uint32_t IssueQueryToTargets(const Query& query, const std::vector<NodeId>& targets);

  /// Outcome of a closed query; nullptr while pending or unknown.
  const QueryOutcome* outcome(uint32_t query_id) const { return ledger_.outcome(query_id); }

  /// Invoked whenever a query closes.
  std::function<void(const QueryOutcome&)> on_query_complete;

 protected:
  /// How a batch of readings came to rest (telemetry classification).
  enum class StoreClass {
    kOwner,        ///< Stored at the owner the routing target designated.
    kLocalNoIndex, ///< Stored at the producer: no complete index yet (§5.3).
    kFallback,     ///< Stored short of the owner: at the base (owner
                   ///< unreachable) or where the packet stalled.
  };

  // --- Hooks for policy subclasses ---

  /// Called once after the shared machinery (and, on sensor nodes, the
  /// sampling timer) booted.
  virtual void OnAgentBoot() {}

  /// Called on a sensor node with each reading it produces, every
  /// cfg_.sample_interval from cfg_.sampling_start on (per-node phase),
  /// except while the node is down.
  virtual void OnSample(Value v) { (void)v; }

  /// Routes a flushed batch (see RouteReading): this node's own readings,
  /// all queued for `owner`. Policies that call RouteReading for a remote
  /// owner override it.
  virtual void RouteBatch(NodeId owner, std::vector<Reading> readings);

  /// Handles a data packet addressed to this node. Default: apply routing
  /// rules 2-6 as-is (no index rewriting).
  virtual void HandleData(const Packet& pkt);

  /// Called on the basestation when a summary arrives.
  virtual void HandleSummaryAtBase(const Packet& pkt) { (void)pkt; }

  /// Called on the basestation for every received packet, before dispatch
  /// (lets it harvest origin/origin_parent tree edges, §5.2).
  virtual void OnPacketAtBase(const Packet& pkt) { (void)pkt; }

  /// Called after the shared reboot handling reset the volatile substrate
  /// (routing tree, neighbors, descendants, flash, outgoing batch, orphan
  /// buffer). The index store is deliberately left as-is: a rebooted node
  /// holds a stale index until gossip catches it up (§5.3).
  virtual void OnAgentReboot() {}

  /// Subclasses using storage-index gossip (Scoop node and base) return
  /// true; mapping packets are then assembled and re-shared via Trickle.
  virtual bool MappingGossipEnabled() const { return false; }

  // --- Services for subclasses ---

  sim::Context& ctx() { return *ctx_; }
  metrics::Telemetry& telemetry() { return *cfg_.telemetry; }
  IndexStore& mutable_index_store() { return index_store_; }

  /// Unicasts `pkt` to the current parent. Returns false (and drops) when
  /// there is no route.
  bool SendUp(Packet pkt);

  /// Applies routing rules 2-6 (§5.4) to a data payload whose owner/sid
  /// fields are already up to date. `origin`/`origin_parent` identify the
  /// producer (preserved across forwarding hops).
  void RouteData(DataPayload data, NodeId origin, NodeId origin_parent);

  /// Stores all readings of `data` in local Flash with telemetry.
  void StoreReadings(const DataPayload& data, StoreClass cls);

  /// Sends this node's own `reading` toward `owner` (§5.4). A reading for
  /// this node (or the store-local owner) is stored at once. Otherwise it
  /// joins the one outgoing batch: a reading for a different owner flushes
  /// the batch first, and a batch of cfg_.max_batch readings is flushed at
  /// once. Flushing hands the batch to RouteBatch.
  void RouteReading(NodeId owner, Reading reading);

  /// Rule 1's re-resolution (§5.4): groups `readings` by the owner
  /// `owner_of(value)` names, in owner-id order. Each caller supplies its
  /// own owner function and fallback.
  template <typename OwnerOf>
  static std::map<NodeId, std::vector<Reading>> SplitByOwner(
      const std::vector<Reading>& readings, OwnerOf owner_of) {
    std::map<NodeId, std::vector<Reading>> groups;
    for (const Reading& r : readings) groups[owner_of(r.value)].push_back(r);
    return groups;
  }

  /// This node's own `readings`, bound for `owner` as looked up in index
  /// version `sid`.
  DataPayload OwnReadings(NodeId owner, IndexId sid, std::vector<Reading> readings) const {
    return DataPayload{.attr = cfg_.attr, .producer = cfg_.self, .owner = owner, .sid = sid,
                       .readings = std::move(readings)};
  }

  /// True between OnCrash and OnReboot: the radio is off and periodic
  /// loops must skip their work (their timers keep firing).
  bool is_down() const { return down_; }

  /// Every sensor node: the target set of a flood.
  std::vector<NodeId> AllSensors() const;

  /// Records a query that was answered without any network traffic (e.g.
  /// from summaries); assigns an id, closes it, and fires the completion
  /// callback. Returns the id.
  uint32_t RecordImmediateOutcome(QueryOutcome outcome);

  /// The wire form of `query` asking `targets`; query_id is left 0.
  static QueryPayload MakeQueryPayload(const Query& query, NodeSet targets);

  /// Resets the mapping-gossip Trickle timer to its fastest interval (used
  /// by the base after seeding a fresh index).
  void KickGossip();

  /// Round-trip helper: stamps this node as origin.
  template <typename P>
  Packet MakeFromSelf(P payload) {
    return MakePacket(cfg_.self, tree_.parent(), std::move(payload));
  }

 private:
  void HandleBeacon(const Packet& pkt, uint16_t in_link);
  void HandleQueryPacket(const Packet& pkt);
  void HandleReplyPacket(const Packet& pkt);
  void HandleMappingPacket(const Packet& pkt);
  void MaybeLearnDescendant(const Packet& pkt);

  /// Modified-Trickle forwarding filter (§5.5): worth re-broadcasting only
  /// if the bitmap intersects the nodes we can plausibly help reach.
  bool ShouldRebroadcastQuery(const QueryPayload& query) const;

  /// Scans local Flash and sends (possibly chunked) replies up the tree.
  void SendQueryReply(const QueryPayload& query);

  /// MTU fit: the §5.5 flood is a single packet, so a target set too large
  /// for one frame is coarsened to a covering superset of id runs (never
  /// across the base). False when even that does not fit.
  bool FitToFrame(QueryPayload* payload) const;

  /// Closes the query `query_id` -- network or immediate -- unless it is
  /// already closed or is re-issued instead; the one close path.
  void CloseQuery(uint32_t query_id);

  /// Sends the outgoing batch (if any) to RouteBatch.
  void FlushBatch();

  /// A data batch whose send failed for good (no retry left). With
  /// cfg_.fault_orphan_rehoming on, parks it locally with an "orphaned"
  /// mark (queryable meanwhile) for re-homing after the next complete
  /// index arrives; otherwise counts its readings lost.
  void ParkOrLose(const DataPayload& data);

  /// Re-routes buffered orphans under the (new) current index.
  void RehomeOrphans();

  /// Bounded retry-with-backoff for a failed data/summary send. Returns
  /// true when a retry was scheduled (the caller should stop handling the
  /// failure); false when retries are off or exhausted.
  bool MaybeRetrySend(const Packet& pkt);

  void ScheduleBeaconLoop();
  void ScheduleMaintenanceLoop();
  /// Arms the sampling timer: first tick at a per-node phase after
  /// cfg_.sampling_start so the network does not sample in lockstep.
  void ScheduleSampling();
  /// One sampling tick; re-arms itself every cfg_.sample_interval.
  void SampleTick();
  void SendBeacon();
  void ShareGossipChunk();

 protected:
  // First, so it shares the object's first cache line with the vtable
  // pointer: every packet heard reads both.
  sim::Context* ctx_ = nullptr;
  AgentConfig cfg_;
  net::NeighborTable neighbors_;
  net::RoutingTree tree_;
  net::DescendantsTable descendants_;
  storage::FlashStore flash_;
  IndexStore index_store_;
  /// Crash-reboot fault state (see is_down()).
  bool down_ = false;

 private:
  /// Re-issues a still-incomplete query at the nodes yet to answer: a
  /// fresh wire id floods the missing set, crediting the original ledger
  /// entry, and a new timeout is armed.
  void ReissueQuery(uint32_t query_id);

  /// Cap on buffered orphan batches; beyond it the oldest batch is
  /// counted lost (never silently dropped) and evicted.
  static constexpr size_t kMaxOrphanBatches = 512;

  std::unique_ptr<trickle::TrickleDriver> gossip_;
  SimTime last_gossip_help_ = -Minutes(1);
  /// How often a sensor node heard each query id; it reacts to the first.
  std::unordered_map<uint32_t, int> queries_heard_;
  /// The outgoing §5.4 batch: this node's readings queued for batch_owner_.
  NodeId batch_owner_ = kInvalidNodeId;
  std::vector<Reading> batch_;
  /// Orphaned batches awaiting re-homing (fault_orphan_rehoming).
  std::vector<DataPayload> orphans_;
  /// Every query id the base hands out.
  QueryLedger ledger_;
};

}  // namespace scoop::core

#endif  // SCOOP_CORE_AGENT_BASE_H_
