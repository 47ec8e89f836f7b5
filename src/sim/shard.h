// The simulator's two hot-path building blocks, one instance of each per
// shard of the engine (sharded_engine.h): a deterministically-ordered event
// queue and the packet-level radio/MAC whose randomness is keyed, not
// stream-shared. A single-shard engine (K = 1) is the plain sequential
// simulator; K > 1 splits the same event population across K queues.
//
// Why a canonical key: breaking timestamp ties by scheduling order is only
// meaningful inside ONE queue. Sharded runs split the event population
// across K queues, so "schedule order" differs per K and cannot order
// same-time events consistently. ShardQueue instead orders every event by
// a canonical key that depends only on simulation content:
//
//   (time, phase, origin, counter)
//
//   phase 0  reception evaluations, keyed (sender, tx generation)
//   phase 1  sender transmit completions, keyed (sender, tx generation)
//   phase 2  everything else (app timers, CSMA sensing, boots, failures,
//            the query driver), keyed (origin node, per-origin counter)
//
// Same-time events at DIFFERENT origins never influence each other within
// one instant (all cross-node influence flows through transmissions, and
// the channel predicates are strict: a span starting at t is invisible to
// queries at t), so ordering them by (phase, origin, counter) is both
// deterministic and identical to any K-way partition of the same run:
// each shard executes the subsequence it owns in the same relative order.
// Phase 0 before phase 1 at equal times lets two shards whose
// transmissions end at the same instant each evaluate the other's frame
// before waiting on its ACK verdict.
//
// ShardRadio is the CSMA MAC in that keyed world: CSMA carrier sense with
// exponential backoff, airtime-accurate transmissions, Bernoulli
// per-directed-link loss, collision corruption between overlapping audible
// transmissions (with capture), half-duplex receivers, promiscuous
// snooping, and link-layer ACK + retransmission for unicasts -- the
// TOSSIM-substitute substrate. Two rules keep it K-invariant: every fresh
// channel acquisition is a *scheduled* carrier-sense event at least
// backoff_min in the future (this is the engine's cross-shard lookahead
// floor: a frame heard about "now" cannot hit the air sooner), and all
// random draws (backoff, per-link loss, ACK) are keyed on stable
// identities (node, transmission generation, receiver) instead of pulled
// from one shared stream whose consumption order would depend on K.
//
// Hot-path design: one transmission touches only the sender's audible
// out-neighbors (the topology's CSR lists), not all N nodes, and channel
// queries run on per-node indexes: carrier sense intersects an
// active-transmitter bitmap with the receiver's interferer set, half
// duplex reads each node's last two transmission spans, and collisions
// read a start-ordered ring of recent transmissions pruned from the
// front. A frame is evaluated in two passes. The first is pure: it walks
// the receivers, tests each against the frame's few overlapping
// transmitters with one delivery-probability load apiece, and fills a
// pre-allocated reception list. Each reception carries its CSR link
// index (Topology::link_base + walk position), so receive-side per-link
// state -- the engine's duplicate filter, the receiver's in-link rank and
// through it the neighbor-table slot -- is found by index, never by
// search. The verdict pass also books each reception in the shard's
// traffic ledger (metrics/message_stats.h), as transmit start and the MAC
// drop sites book theirs. The second pass hands the whole list to the
// deliver hook in one call. One broadcast is O(degree + overlapping
// transmissions) and allocates nothing.
#ifndef SCOOP_SIM_SHARD_H_
#define SCOOP_SIM_SHARD_H_

#include <array>
#include <cstdint>
#include <deque>
#include <limits>
#include <queue>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/check.h"
#include "common/node_bitmap.h"
#include "common/rng.h"
#include "common/small_callback.h"
#include "fault/link_fault.h"
#include "metrics/message_stats.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "sim/app.h"
#include "sim/radio_options.h"
#include "sim/topology.h"

namespace scoop::sim {

/// "No more events / no constraint" sentinel time.
inline constexpr SimTime kSimTimeHorizon = std::numeric_limits<SimTime>::max();

/// Deterministically-ordered event queue for one shard. Orders events by
/// the canonical (time, phase, origin, counter) key documented above, so
/// any K-way partition of one simulation executes each shard's events in
/// the same relative order.
///
/// Pending events sit in one 4-ary min-heap ordered by that key; the
/// head is cached between mutations, so the run loop's head checks and
/// the pop that follows them share one lookup.
///
/// Callbacks live in a slab of reusable slots, so schedule/cancel/run do
/// no per-event heap allocation. An EventId packs a monotonic schedule
/// sequence number (high 40 bits) over the slot index (low 24 bits); it
/// doubles as the staleness check, so handles of events that already ran,
/// were cancelled, or whose slot was reused are rejected with one compare,
/// and cancellation is O(1): the entry goes stale in place. Stale entries
/// are skimmed at the heap top and compacted away in bulk once they
/// outnumber live ones.
class ShardQueue {
 public:
  using Callback = SmallCallback;

  /// `num_origins` bounds the phase-2 origin space: node ids plus any
  /// pseudo-origins (driver, failure injector) the caller packs above them.
  explicit ShardQueue(uint32_t num_origins);

  ShardQueue(const ShardQueue&) = delete;
  ShardQueue& operator=(const ShardQueue&) = delete;

  /// Phase 0: evaluation of (sender, gen)'s transmission at its end time.
  EventId ScheduleEval(SimTime at, NodeId sender, uint32_t gen, Callback fn) {
    return ScheduleInternal(at, MakeOrd(0, sender, gen), sender, gen, std::move(fn));
  }

  /// Phase 1: (sender, gen)'s transmit completion at its end time. The
  /// sender/gen pair is retained so the run loop can ask the radio whether
  /// the head completion is still waiting on a remote ACK verdict.
  EventId ScheduleFinish(SimTime at, NodeId sender, uint32_t gen, Callback fn) {
    return ScheduleInternal(at, MakeOrd(1, sender, gen), sender, gen, std::move(fn));
  }

  /// Phase 2: a regular event (timer, carrier sense, boot, driver). Events
  /// of one origin run in schedule order; the per-origin counter is the
  /// documented FIFO-by-(time, seq) invariant, restricted to the one
  /// sequence that is stable across partitionings.
  EventId ScheduleRegular(SimTime at, uint32_t origin, Callback fn) {
    SCOOP_DCHECK(origin < counters_.size());
    return ScheduleInternal(at, MakeOrd(2, origin, counters_[origin]++), 0, 0,
                            std::move(fn));
  }

  /// Cancels a pending event; no-op if it already ran or was cancelled.
  void Cancel(EventId id);

  /// Current simulated time (time of the last executed event).
  SimTime now() const { return now_; }

  /// Earliest pending event time, kSimTimeHorizon when empty. Exact
  /// (skims stale entries first), not merely a lower bound: the engine's
  /// EPT promise and safe-time execution both read it.
  SimTime HeadTime();

  /// True iff the head event is a phase-1 completion; outputs its key.
  bool HeadFinishInfo(NodeId* sender, uint32_t* gen);

  /// True iff a completion of (sender, gen) at `at` would run next were it
  /// queued now: every pending event is canonically later. The radio then
  /// runs the completion inline instead of queueing it.
  bool FinishWouldRunNext(SimTime at, NodeId sender, uint32_t gen);

  /// Runs the earliest pending event. Returns false when empty.
  bool RunOne();

  /// Moves the clock forward to `t` without running anything; every
  /// pending event must be later than `t`.
  void AdvanceTo(SimTime t);

  bool empty() const { return live_ == 0; }
  size_t size() const { return live_; }
  uint64_t processed() const { return processed_; }
  /// Heap entries, including not-yet-skimmed stale ones.
  size_t heap_size() const { return heap_.size(); }

  /// Optional wall-clock profiler (null = off): callback dispatch is
  /// attributed to kAgent (callees re-attribute themselves, e.g. the radio
  /// switches to kRadio on entry), everything else to the caller's bucket.
  /// Observation-only: profiling never changes event order.
  void set_profiler(obs::SimProfiler* profiler) { profiler_ = profiler; }

 private:
  static constexpr int kSlotBits = 24;
  static constexpr uint32_t kSlotMask = (1u << kSlotBits) - 1;
  static constexpr uint32_t kNilSlot = kSlotMask;

  /// Canonical ordering key: phase in bits 62-63, origin/sender in bits
  /// 44-61 (18 bits: the full 16-bit node space plus pseudo-origins), and
  /// the generation/counter in bits 0-43.
  static uint64_t MakeOrd(uint64_t phase, uint64_t origin, uint64_t ctr) {
    return (phase << 62) | (origin << 44) | ctr;
  }

  struct HeapEntry {
    SimTime at;
    uint64_t ord;
    uint64_t key;  ///< (seq << kSlotBits) | slot; doubles as EventId.
  };

  struct Slot {
    Callback fn;
    uint64_t key = 0;  ///< Id of the armed event, 0 while free.
    uint32_t next_free = kNilSlot;
    NodeId sender = 0;  ///< Phase-1 events: the completing transmitter.
    uint32_t gen = 0;   ///< Phase-1 events: its transmission generation.
  };

  /// Min-heap order on the canonical key. `key` never decides between live
  /// events (ord is unique per queue), but keeps the order total.
  static bool Earlier(const HeapEntry& a, const HeapEntry& b) {
    if (a.at != b.at) return a.at < b.at;
    if (a.ord != b.ord) return a.ord < b.ord;
    return a.key < b.key;
  }

  bool IsLive(const HeapEntry& e) const {
    return slots_[e.key & kSlotMask].key == e.key;
  }

  EventId ScheduleInternal(SimTime at, uint64_t ord, NodeId sender, uint32_t gen,
                           Callback&& fn);
  uint32_t AcquireSlot();
  void ReleaseSlot(uint32_t index);
  // 4-ary implicit min-heap over heap_ (half the levels of a binary heap,
  // cache-line-friendly sift paths).
  void SiftUp(size_t pos);
  void SiftDown(size_t pos);
  /// Removes the heap top (which must exist).
  void PopTop();
  /// Drops cancelled entries off the heap top.
  void SkimStale();
  /// Earliest pending entry (after skimming), or null. Cached until the
  /// next mutation.
  const HeapEntry* PeekHead();
  void MaybeCompact();

  std::vector<HeapEntry> heap_;
  std::vector<Slot> slots_;
  std::vector<uint64_t> counters_;  ///< Per-origin phase-2 schedule counters.
  uint32_t free_head_ = kNilSlot;
  size_t live_ = 0;
  size_t stale_ = 0;
  uint64_t next_seq_ = 0;
  SimTime now_ = 0;
  uint64_t processed_ = 0;
  /// PeekHead's cached result; null = recompute. Reset by every mutation.
  const HeapEntry* head_ = nullptr;
  obs::SimProfiler* profiler_ = nullptr;
};

/// Shard-local radio/MAC. Owns the channel state for its shard's nodes and
/// a read-only mirror of boundary transmissions other shards announce.
class ShardRadio {
 public:
  /// Hooks are inline-storage SmallFunctions, not std::function: they fire
  /// per frame, so boxing them would put an allocation on the hot path.
  /// One node that latched a frame: `addressed` is true for broadcasts
  /// and for unicasts to it, false for an overheard unicast. `link` is
  /// the CSR index of the sender->receiver link (Topology::link_base), so
  /// per-link receive state is one direct load away.
  struct Reception {
    NodeId receiver;
    bool addressed;
    uint32_t link;
  };
  /// Delivery of one frame to every node that latched it, in ascending
  /// receiver id. Called once per frame with a non-empty list, which is
  /// valid only during the call.
  using DeliverHook = SmallFunction<void(const Packet&, std::span<const Reception>)>;
  /// Completion callback toward the sending node's app.
  using SendDoneHook = SmallFunction<void(NodeId src, const Packet&, bool success)>;
  /// Outbound cross-shard notifications, wired by the engine.
  using AnnounceFn =
      SmallFunction<void(NodeId src, uint32_t gen, SimTime start, SimTime end,
                         const Packet& pkt)>;
  using AbortFn = SmallFunction<void(NodeId src, uint32_t gen)>;
  using AckFn = SmallFunction<void(NodeId src, uint32_t gen, bool received)>;

  /// `owner` maps every node to its shard index; `self_shard` is this
  /// radio's shard. Only nodes with owner == self_shard transmit here;
  /// other nodes exist as mirrored channel state.
  ShardRadio(const Topology* topology, const RadioOptions& options, ShardQueue* queue,
             uint64_t seed, const std::vector<int>* owner, int self_shard);

  ShardRadio(const ShardRadio&) = delete;
  ShardRadio& operator=(const ShardRadio&) = delete;

  /// Queues `pkt` for transmission by the locally-owned node `src`.
  /// `pkt.hdr.link_dst` selects broadcast (kBroadcastId) vs ACKed unicast.
  /// The radio stamps link_src and assigns the per-sender sequence number
  /// at first transmission.
  void Send(NodeId src, Packet pkt);

  /// Powers a locally-owned node's radio down (failure injection, §2.1) or
  /// back up. A dead node transmits nothing (its queue is dropped and any
  /// in-flight frame is aborted) and receives nothing. The RF energy of an
  /// aborted frame stays on the air until its scheduled end: other nodes
  /// still carrier-sense and collide with it.
  void SetNodeAlive(NodeId id, bool alive);
  bool IsAlive(NodeId id) const { return alive_[id]; }

  /// Attaches a link-fault channel (nullptr detaches). When set and
  /// active, a link the channel severs fails its delivery and ACK
  /// verdicts. Every shard must attach the SAME channel: the keyed
  /// loss/ACK draws consume no shared stream, so severing links
  /// identically on each shard keeps any K-way partition bit-identical.
  /// The channel must outlive the radio.
  void SetFaultChannel(const fault::LinkFaultChannel* channel) { fault_ = channel; }

  // --- Inbound cross-shard messages (applied by the shard's drain) ---
  void HandleAnnounce(NodeId src, uint32_t gen, SimTime start, SimTime end, Packet pkt);
  void HandleAbort(NodeId src, uint32_t gen);
  void HandleAckResult(NodeId src, uint32_t gen, bool received);

  /// True iff the pending completion of (src, gen) cannot run yet because
  /// its unicast destination lives on another shard and that shard's ACK
  /// verdict has not arrived. The run loop stalls (keeps the event queued,
  /// keeps publishing its promise) instead of executing it.
  bool AckBlocked(NodeId src, uint32_t gen) const;

  /// Wires the per-boundary lookahead: `announce_mask` maps every node to
  /// the set of OTHER shards mirroring its transmissions (the engine's
  /// announce routes), `num_shards` sizes the per-target floor slots.
  /// Must be called once before any Send; the mask must outlive the radio.
  void SetAnnounceTargets(const std::vector<uint64_t>* announce_mask, int num_shards);

  /// Earliest armed carrier-sense time among nodes whose announces reach
  /// shard `target` -- a floor on when this shard can next put a frame on
  /// the air that `target` has to mirror. Per-boundary by construction:
  /// CCAs of interior nodes (and of boundary nodes facing other shards)
  /// never throttle `target`. Not-yet-armed acquisitions are the engine's
  /// global head-floor business: any future event at time t arms its CCA
  /// at >= t + backoff_min. Lazily discards entries that already fired:
  /// strictly before `clock` always, and at == `clock` when
  /// `head_past_clock` says every event at the current instant has run.
  /// kSimTimeHorizon if none.
  SimTime MacFloorFor(int target, SimTime clock, bool head_past_clock);

  /// Boundary transmissions mirrored INTO this shard (announce handled),
  /// over the whole run. Always-on perf telemetry, like
  /// ShardQueue::processed(); the cut quality metric the min-cut
  /// partitioner is judged by.
  uint64_t mirrored_frames() const { return mirrored_frames_; }

  /// This shard's traffic ledger: transmissions by its nodes, receptions
  /// at its nodes, and its MAC drops, over the whole run. Always on; the
  /// engine merges the K ledgers (ShardedEngine::traffic()).
  const metrics::MessageStats& traffic() const { return traffic_; }

  void set_deliver_hook(DeliverHook hook) { deliver_hook_ = std::move(hook); }
  void set_send_done_hook(SendDoneHook hook) { send_done_hook_ = std::move(hook); }
  void set_announce_fn(AnnounceFn fn) { announce_fn_ = std::move(fn); }
  void set_abort_fn(AbortFn fn) { abort_fn_ = std::move(fn); }
  void set_ack_fn(AckFn fn) { ack_fn_ = std::move(fn); }

  const RadioOptions& options() const { return options_; }

  /// Airtime of a packet of `wire_size` bytes (plus link framing).
  SimTime Airtime(int wire_size) const;

  /// Attaches this shard's observability sinks (any may be null). Counter
  /// and histogram pointers are resolved here, once, so the per-event cost
  /// is a branch plus an increment when on and one branch when off.
  /// Observation-only: recording draws no randomness (backoff delays are
  /// recorded after the MAC draws them) and schedules nothing. Each shard
  /// gets its own sinks -- they are only ever touched from its thread.
  /// The registry also samples the traffic ledger, as gauges named
  /// radio.tx_started, radio.deliveries, radio.drops_{channel_busy,no_ack}
  /// and wire.bytes.<type>.
  void EnableObservability(obs::TraceSink* trace, obs::MetricsRegistry* metrics,
                           obs::SimProfiler* profiler);

 private:
  struct OutFrame {
    Packet pkt;
    int retries_left = 0;
    int channel_attempts = 0;
    bool seq_assigned = false;
    SimTime airtime = 0;
  };

  struct PdesMac {
    std::deque<OutFrame> queue;
    bool transmitting = false;
    bool cca_scheduled = false;
    uint16_t next_seq = 1;
    uint32_t tx_gen = 0;
    EventId cca_event = kInvalidEventId;
    SimTime cca_at = 0;  ///< Scheduled sense time, for MacFloor cancellation.
    /// The unicast destination's reception verdict for transmission
    /// `ack_gen` (from a local evaluation or a cross-shard ACK message),
    /// consumed by that transmission's completion. A node has at most one
    /// transmission awaiting its verdict at a time.
    uint32_t ack_gen = 0;
    bool ack_present = false;
    bool ack_received = false;
  };

  struct Transmission {
    NodeId src = kInvalidNodeId;
    SimTime start = 0;
    SimTime end = 0;
  };

  struct TxSpan {
    SimTime start = 0;
    SimTime end = 0;
  };

  /// A mirrored remote transmission awaiting its local evaluation.
  struct RemoteTx {
    Packet pkt;
    SimTime start = 0;
    SimTime end = 0;
  };

  static uint64_t TxKey(NodeId src, uint32_t gen) {
    return (static_cast<uint64_t>(src) << 32) | gen;
  }

  bool Owned(NodeId id) const { return (*owner_)[id] == self_shard_; }

  /// Keyed per-link loss draw for receiver `r` of the transmission whose
  /// key is `tx_key` = MixSeed(link_key_, TxKey(src, gen)): every shard
  /// that evaluates the transmission draws the identical verdict. Certain
  /// outcomes (prob outside (0, 1)) need no generator.
  static bool LinkLossDraw(uint64_t tx_key, NodeId r, double prob) {
    if (prob <= 0.0) return false;
    if (prob >= 1.0) return true;
    Rng rng(MixSeed(tx_key, r), r);
    return rng.Bernoulli(prob);
  }
  bool AckDraw(NodeId src, uint32_t gen, double prob) const {
    Rng rng(MixSeed(ack_key_, TxKey(src, gen)), src);
    return rng.Bernoulli(prob);
  }

  /// Arms carrier sense for the head frame. Fresh acquisitions wait at
  /// least backoff_min (the cross-shard lookahead floor) plus a keyed
  /// jitter; busy retries draw from the binary-exponential BackoffWindow.
  void ScheduleCca(NodeId src, SimTime delay);
  void TryStart(NodeId src);
  void CcaFire(NodeId src);
  void StartTx(NodeId src);
  void FinishCont(NodeId src, uint32_t gen);
  /// Reports a frame's fate to its sender's app, charged to the agent
  /// bucket.
  void NotifySendDone(NodeId src, const Packet& pkt, bool success);
  /// Records the ACK verdict for the locally-owned sender's (src, gen).
  void RecordAckVerdict(NodeId src, uint32_t gen, bool received);
  void EvalLocal(NodeId src, uint32_t gen, SimTime start, SimTime end);
  void EvalRemote(NodeId src, uint32_t gen);
  /// Shared reception computation for a (local or mirrored) transmission.
  void EvalTx(NodeId src, uint32_t gen, SimTime start, SimTime end, const Packet& pkt,
              bool aborted);

  /// Strict-visibility carrier sense: a span starting exactly `now` is
  /// invisible, so same-instant acquisitions never depend on cross-shard
  /// message timing (see file comment).
  bool ChannelBusy(NodeId node) const;
  /// One ring walk per evaluation, shared by every receiver, collects the
  /// transmitters whose frames overlap the window and lie within
  /// collision range of the sender. Collided then tests one receiver
  /// against that (usually empty) list: O(candidates) per receiver instead
  /// of O(ring window), with no RNG.
  void CollectInterferers(NodeId sender, SimTime start, SimTime end);
  /// True iff an overlapping transmitter corrupts `receiver`'s copy of a
  /// frame heard at link probability `signal`. An interferer counts iff
  /// its own link to the receiver p satisfies p >= kInterferenceThreshold
  /// (membership in the receiver's interferer set) and p >= capture_ratio
  /// * signal (no capture): one delivery_prob load per candidate. The
  /// receiver itself needs no skip, since delivery_prob(r, r) is 0.
  bool Collided(NodeId receiver, double signal) const;
  bool WasTransmitting(NodeId node, SimTime start, SimTime end) const;
  void InsertRing(Transmission tx);
  void PruneRing();

  const Topology* topology_;
  RadioOptions options_;
  ShardQueue* queue_;
  /// Optional partition windows (src/fault/); null = off.
  const fault::LinkFaultChannel* fault_ = nullptr;
  const std::vector<int>* owner_;
  int self_shard_;
  uint64_t link_key_;
  uint64_t ack_key_;

  std::vector<PdesMac> mac_;
  std::vector<Rng> mac_rng_;  ///< Per-node backoff streams (owned nodes only).
  std::vector<bool> alive_;

  // Channel state, covering this shard's transmissions plus mirrored
  // boundary announcements. `node_tx_` keeps each node's last two
  // transmission spans, most recent first: a node's frames are serial, so
  // only its latest frame starting before a window's end can overlap the
  // window -- plus at most one starting exactly at its end.
  // `ring_` holds recent transmissions in start order, so overlap queries
  // walk back from the tail and stop one max airtime before the window.
  DynamicNodeBitmap active_tx_;
  std::vector<std::array<TxSpan, 2>> node_tx_;
  std::vector<Transmission> ring_;
  size_t ring_head_ = 0;
  SimTime max_airtime_ = 0;
  /// Scratch for CollectInterferers (reused across evaluations).
  std::vector<NodeId> collide_scratch_;
  /// One frame's receptions, filled by EvalTx's verdict pass and handed to
  /// the deliver hook; reserved to the largest audible out-degree.
  std::vector<Reception> receptions_;
  /// Squared distance beyond which a transmitter cannot corrupt any
  /// reception of a sender's frame (twice the longest audible link).
  double collide_range2_ = 0;

  /// Per-target-shard armed carrier-sense times (min-heaps, indexed by
  /// target shard) and cancelled entries awaiting lazy annihilation
  /// (power-downs cancel scheduled carrier senses). A CCA for node u is
  /// fanned to exactly the shards in (*announce_mask_)[u]: interior nodes
  /// push nothing, so their pending acquisitions never cap any promise.
  using MacHeap =
      std::priority_queue<SimTime, std::vector<SimTime>, std::greater<SimTime>>;
  std::vector<MacHeap> mac_times_;
  std::vector<MacHeap> mac_cancelled_;
  const std::vector<uint64_t>* announce_mask_ = nullptr;
  uint64_t mirrored_frames_ = 0;

  /// Mirrored remote transmissions keyed (src << 32 | gen), consumed by
  /// their evaluation event; aborts keyed the same way.
  std::unordered_map<uint64_t, RemoteTx> remote_tx_;
  std::unordered_set<uint64_t> aborted_;

  metrics::MessageStats traffic_;

  DeliverHook deliver_hook_;
  SendDoneHook send_done_hook_;
  AnnounceFn announce_fn_;
  AbortFn abort_fn_;
  AckFn ack_fn_;

  // --- Observability (all null = off; every site is branch-on-null) ---
  obs::TraceSink* trace_ = nullptr;
  obs::SimProfiler* profiler_ = nullptr;
  obs::Histogram* backoff_hist_ = nullptr;
  uint64_t* ctr_backoffs_ = nullptr;
  uint64_t* ctr_announce_rx_ = nullptr;
  uint64_t* ctr_abort_rx_ = nullptr;
  uint64_t* ctr_ack_rx_ = nullptr;
  uint64_t* ctr_mirror_evals_ = nullptr;
};

}  // namespace scoop::sim

#endif  // SCOOP_SIM_SHARD_H_
