#include "sim/shard.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <string>

#include "common/check.h"

namespace scoop::sim {

namespace {

/// Raw channel bitrate (Mica2: 38.4 kbps; §2.1).
constexpr double kBitrateBps = 38400.0;

/// Link-layer framing overhead per packet (preamble, sync, link src/dst,
/// CRC) added to Packet::WireSize() for airtime.
constexpr int kLinkHeaderBytes = 11;

/// After this many failed channel-acquisition attempts the frame is
/// dropped (counted as a channel drop).
constexpr int kMaxChannelAttempts = 16;

/// Capture effect: a concurrent transmission corrupts reception only if
/// the interferer's link to the receiver is at least this fraction as
/// strong as the signal's (delivery probability as a power proxy).
constexpr double kCaptureRatio = 0.5;

}  // namespace

// ---------------------------------------------------------------------------
// ShardQueue
// ---------------------------------------------------------------------------

ShardQueue::ShardQueue(uint32_t num_origins) : counters_(num_origins, 0) {
  SCOOP_CHECK(num_origins <= (1u << 18));  // Origin field is 18 bits wide.
}

EventId ShardQueue::ScheduleInternal(SimTime at, uint64_t ord, NodeId sender,
                                     uint32_t gen, Callback&& fn) {
  SCOOP_CHECK(at >= now_);
  uint32_t slot = AcquireSlot();
  uint64_t key = (++next_seq_ << kSlotBits) | slot;
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  s.key = key;
  s.sender = sender;
  s.gen = gen;
  head_ = nullptr;
  heap_.push_back(HeapEntry{at, ord, key});
  SiftUp(heap_.size() - 1);
  ++live_;
  return key;
}

uint32_t ShardQueue::AcquireSlot() {
  if (free_head_ != kNilSlot) {
    uint32_t slot = free_head_;
    free_head_ = slots_[slot].next_free;
    return slot;
  }
  SCOOP_CHECK(slots_.size() < kSlotMask);  // kNilSlot stays reserved.
  slots_.emplace_back();
  return static_cast<uint32_t>(slots_.size() - 1);
}

void ShardQueue::ReleaseSlot(uint32_t index) {
  Slot& s = slots_[index];
  s.fn = nullptr;
  s.key = 0;
  s.next_free = free_head_;
  free_head_ = index;
}

void ShardQueue::Cancel(EventId id) {
  if (id == kInvalidEventId) return;
  uint32_t slot = static_cast<uint32_t>(id & kSlotMask);
  if (slot >= slots_.size() || slots_[slot].key != id) return;  // Stale handle.
  head_ = nullptr;
  ReleaseSlot(slot);
  --live_;
  ++stale_;
  MaybeCompact();
}

void ShardQueue::SiftUp(size_t pos) {
  HeapEntry e = heap_[pos];
  while (pos > 0) {
    size_t parent = (pos - 1) >> 2;
    if (!Earlier(e, heap_[parent])) break;
    heap_[pos] = heap_[parent];
    pos = parent;
  }
  heap_[pos] = e;
}

void ShardQueue::SiftDown(size_t pos) {
  HeapEntry e = heap_[pos];
  const size_t n = heap_.size();
  HeapEntry* h = heap_.data();
  for (;;) {
    size_t child = (pos << 2) + 1;
    size_t best;
    if (child + 3 < n) {
      // Full node: tournament-select the earliest of the four children
      // (two independent compares, then one) instead of a serial chain.
      size_t lo = child + (Earlier(h[child + 1], h[child]) ? 1 : 0);
      size_t hi = child + (Earlier(h[child + 3], h[child + 2]) ? 3 : 2);
      best = Earlier(h[hi], h[lo]) ? hi : lo;
    } else if (child < n) {
      best = child;
      for (size_t c = child + 1; c < n; ++c) {
        if (Earlier(h[c], h[best])) best = c;
      }
    } else {
      break;
    }
    if (!Earlier(h[best], e)) break;
    h[pos] = h[best];
    pos = best;
  }
  h[pos] = e;
}

void ShardQueue::PopTop() {
  HeapEntry last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    heap_[0] = last;
    SiftDown(0);
  }
}

void ShardQueue::SkimStale() {
  while (!heap_.empty() && !IsLive(heap_.front())) {
    PopTop();
    --stale_;
  }
}

void ShardQueue::MaybeCompact() {
  // Amortized O(1) per cancel: rebuild the heap only once stale entries
  // outnumber live ones (and are numerous enough to be worth it).
  if (stale_ < 64 || stale_ * 2 <= heap_.size()) return;
  heap_.erase(std::remove_if(heap_.begin(), heap_.end(),
                             [this](const HeapEntry& e) { return !IsLive(e); }),
              heap_.end());
  // Floyd heapify: sift down every internal node, deepest first.
  if (heap_.size() > 1) {
    for (size_t i = (heap_.size() - 2) / 4 + 1; i-- > 0;) SiftDown(i);
  }
  stale_ = 0;
}

const ShardQueue::HeapEntry* ShardQueue::PeekHead() {
  if (head_ != nullptr) return head_;
  SkimStale();
  head_ = heap_.empty() ? nullptr : &heap_.front();
  return head_;
}

SimTime ShardQueue::HeadTime() {
  const HeapEntry* head = PeekHead();
  return head == nullptr ? kSimTimeHorizon : head->at;
}

bool ShardQueue::HeadFinishInfo(NodeId* sender, uint32_t* gen) {
  const HeapEntry* head = PeekHead();
  if (head == nullptr || (head->ord >> 62) != 1) return false;
  const Slot& s = slots_[head->key & kSlotMask];
  *sender = s.sender;
  *gen = s.gen;
  return true;
}

bool ShardQueue::FinishWouldRunNext(SimTime at, NodeId sender, uint32_t gen) {
  const HeapEntry* head = PeekHead();
  if (head == nullptr) return true;
  if (head->at != at) return head->at > at;
  return head->ord > MakeOrd(1, sender, gen);
}

bool ShardQueue::RunOne() {
  const HeapEntry* head = PeekHead();
  if (head == nullptr) return false;
  HeapEntry top = *head;
  head_ = nullptr;
  PopTop();
  uint32_t slot = static_cast<uint32_t>(top.key & kSlotMask);
  Callback fn = std::move(slots_[slot].fn);
  ReleaseSlot(slot);
  --live_;
  now_ = top.at;
  ++processed_;
  if (profiler_ != nullptr) {
    obs::SimProfiler::Bucket prev =
        profiler_->Switch(obs::SimProfiler::kAgent);
    fn();
    profiler_->Switch(prev);
  } else {
    fn();
  }
  return true;
}

void ShardQueue::AdvanceTo(SimTime t) {
  SCOOP_CHECK(t >= now_);
  SCOOP_CHECK(HeadTime() > t);
  now_ = t;
}

// ---------------------------------------------------------------------------
// ShardRadio
// ---------------------------------------------------------------------------

ShardRadio::ShardRadio(const Topology* topology, ShardQueue* queue, uint64_t seed,
                       const std::vector<int>* owner, int self_shard)
    : topology_(topology),
      queue_(queue),
      owner_(owner),
      self_shard_(self_shard),
      link_key_(MixSeed(seed, /*entity_id=*/0x117C)),
      ack_key_(MixSeed(seed, /*entity_id=*/0xACDC)),
      mac_(static_cast<size_t>(topology->num_nodes())),
      alive_(static_cast<size_t>(topology->num_nodes()), true),
      active_tx_(topology->num_nodes()),
      node_tx_(static_cast<size_t>(topology->num_nodes())),
      traffic_(topology->num_nodes()) {
  SCOOP_CHECK(topology != nullptr);
  SCOOP_CHECK(queue != nullptr);
  SCOOP_CHECK(owner != nullptr);
  max_airtime_ = Airtime(kMaxPacketBytes);
  // Per-node backoff streams: draws depend only on the node's own attempt
  // sequence, which is identical for every partitioning.
  uint64_t backoff_key = MixSeed(seed, /*entity_id=*/0xAD10);
  mac_rng_.reserve(mac_.size());
  for (NodeId u = 0; u < topology->num_nodes(); ++u) {
    mac_rng_.emplace_back(MixSeed(backoff_key, u), /*stream=*/u);
  }
  // Geometric collision prefilter: a transmitter farther than twice the
  // longest audible link from a sender cannot corrupt any of its receptions.
  double max_d2 = 0;
  size_t max_degree = 0;
  for (NodeId i = 0; i < topology->num_nodes(); ++i) {
    const Point& a = topology->position(i);
    max_degree = std::max(max_degree, topology->audible_from(i).size());
    for (const Topology::Link& link : topology->audible_from(i)) {
      const Point& b = topology->position(link.to);
      double dx = a.x - b.x;
      double dy = a.y - b.y;
      max_d2 = std::max(max_d2, dx * dx + dy * dy);
    }
  }
  collide_range2_ = 4.0 * max_d2;
  receptions_.reserve(max_degree);
}

void ShardRadio::EnableObservability(obs::TraceSink* trace,
                                     obs::MetricsRegistry* metrics,
                                     obs::SimProfiler* profiler) {
  trace_ = trace;
  profiler_ = profiler;
  if (metrics != nullptr) {
    backoff_hist_ = metrics->Hist("mac.backoff_us");
    ctr_backoffs_ = metrics->Counter("mac.backoffs_scheduled");
    metrics->Gauge("radio.tx_started", [this] { return traffic_.TotalSent(); });
    metrics->Gauge("radio.deliveries", [this] { return traffic_.receptions(); });
    metrics->Gauge("radio.drops_channel_busy",
                   [this] { return traffic_.drops(metrics::DropReason::kChannelBusy); });
    metrics->Gauge("radio.drops_no_ack",
                   [this] { return traffic_.drops(metrics::DropReason::kNoAck); });
    for (int i = 0; i < kNumPacketTypes; ++i) {
      PacketType type = static_cast<PacketType>(i);
      std::string name = "wire.bytes.";
      name += PacketTypeName(type);
      metrics->Gauge(name, [this, type] { return traffic_.ByType(type).bytes_sent; });
    }
    ctr_abort_rx_ = metrics->Counter("shard.abort_rx");
    ctr_ack_rx_ = metrics->Counter("shard.ack_rx");
  }
}

SimTime ShardRadio::Airtime(int wire_size) const {
  double bits = static_cast<double>(kLinkHeaderBytes + wire_size) * 8.0;
  return static_cast<SimTime>(bits / kBitrateBps * kSecond);
}

void ShardRadio::Send(NodeId src, Packet pkt) {
  SCOOP_CHECK_LT(src, mac_.size());
  SCOOP_CHECK_LE(pkt.WireSize(), kMaxPacketBytes);
  SCOOP_DCHECK(Owned(src));
  if (!alive_[src]) return;  // Dead radios transmit nothing.
  obs::ScopedBucket bucket(profiler_, obs::SimProfiler::kRadio);
  if (trace_ != nullptr) {
    trace_->Instant(queue_->now(), "originate", obs::TraceCat::kPacket, src,
                    "type", static_cast<uint64_t>(pkt.hdr.type), "bytes",
                    static_cast<uint64_t>(pkt.WireSize()));
  }
  pkt.hdr.link_src = src;
  OutFrame frame;
  frame.airtime = Airtime(pkt.WireSize());
  frame.pkt = std::move(pkt);
  frame.retries_left =
      (frame.pkt.hdr.link_dst == kBroadcastId) ? 0 : kUnicastRetries;
  mac_[src].queue.push_back(std::move(frame));
  TryStart(src);
}

void ShardRadio::SetNodeAlive(NodeId id, bool alive) {
  SCOOP_CHECK_LT(static_cast<size_t>(id), alive_.size());
  SCOOP_DCHECK(Owned(id));
  alive_[id] = alive;
  if (alive) return;
  PdesMac& mac = mac_[id];
  mac.queue.clear();
  if (mac.cca_scheduled) {
    // The armed carrier sense dies with the node; record its time so
    // MacFloorFor can annihilate the now-dangling entries (one per target
    // shard the sense was fanned to).
    queue_->Cancel(mac.cca_event);
    mac.cca_scheduled = false;
    if (announce_mask_ != nullptr) {
      uint64_t mask = (*announce_mask_)[id];
      while (mask != 0) {
        int t = std::countr_zero(mask);
        mask &= mask - 1;
        mac_cancelled_[t].push(mac.cca_at);
      }
    }
  }
  if (mac.transmitting) {
    // Abort the in-flight frame. Remote shards mirroring it must learn the
    // destination never latched it; the abort is emitted before the
    // generation bump so it names the transmission the mirrors know.
    if (abort_fn_) abort_fn_(id, mac.tx_gen);
    mac.transmitting = false;
    ++mac.tx_gen;
  }
}

bool ShardRadio::ChannelBusy(NodeId node) const {
  SimTime now = queue_->now();
  // Strict visibility both ways: a span starting exactly now is not yet
  // sensed (it may be a boundary announcement whose arrival at this
  // instant is not guaranteed -- excluding it uniformly keeps every K
  // identical), and local spans always have start <= now, so the extra
  // predicate only removes the same-instant case.
  const TxSpan& own = node_tx_[node][0];
  if (own.start < now && own.end > now) return true;
  const InterfererSet& audible = topology_->interferers(node);
  return audible.AnyActive(active_tx_, [&](NodeId a) {
    // Mirrored nodes can hold a future-start span in [0] while an earlier
    // one is still on the air in [1]; check both.
    for (const TxSpan& t : node_tx_[a]) {
      if (t.start < now && t.end > now) return true;
    }
    return false;
  });
}

void ShardRadio::CollectInterferers(NodeId sender, SimTime start, SimTime end) {
  collide_scratch_.clear();
  // One ring walk per evaluation, shared by every receiver: ring entries
  // are in start order, so anything starting more than one max airtime
  // before the window cannot reach into it, and only transmissions
  // actually overlapping the window survive into the per-receiver check.
  const Point& s = topology_->position(sender);
  for (size_t i = ring_.size(); i-- > ring_head_;) {
    const Transmission& tx = ring_[i];
    if (tx.start + max_airtime_ <= start) break;
    if (tx.src == sender) continue;
    if (tx.end <= start || tx.start >= end) continue;  // No time overlap.
    const Point& p = topology_->position(tx.src);
    double dx = s.x - p.x;
    double dy = s.y - p.y;
    if (dx * dx + dy * dy > collide_range2_) continue;  // Too far to matter.
    collide_scratch_.push_back(tx.src);
  }
}

bool ShardRadio::Collided(NodeId receiver, double signal) const {
  const double capture = kCaptureRatio * signal;
  for (NodeId isrc : collide_scratch_) {
    double p = topology_->delivery_prob(isrc, receiver);
    if (p >= Topology::kInterferenceThreshold && p >= capture) return true;
  }
  return false;
}

bool ShardRadio::WasTransmitting(NodeId node, SimTime start, SimTime end) const {
  for (const TxSpan& t : node_tx_[node]) {
    if (t.start < end && t.end > start) return true;
  }
  return false;
}

void ShardRadio::InsertRing(Transmission tx) {
  // Local transmissions start at now() (monotone), but a boundary
  // announcement can carry a start behind the newest local entry; insert
  // from the tail to keep the ring start-ordered for the collision walk.
  size_t pos = ring_.size();
  ring_.push_back(tx);
  while (pos > ring_head_ && ring_[pos - 1].start > tx.start) {
    ring_[pos] = ring_[pos - 1];
    --pos;
  }
  ring_[pos] = tx;
}

void ShardRadio::PruneRing() {
  SimTime horizon = queue_->now() - 4 * max_airtime_;
  while (ring_head_ < ring_.size() && ring_[ring_head_].start + max_airtime_ < horizon) {
    ++ring_head_;
  }
  if (ring_head_ >= 64 && ring_head_ * 2 >= ring_.size()) {
    ring_.erase(ring_.begin(), ring_.begin() + static_cast<ptrdiff_t>(ring_head_));
    ring_head_ = 0;
  }
}

void ShardRadio::ScheduleCca(NodeId src, SimTime delay) {
  PdesMac& mac = mac_[src];
  SimTime at = queue_->now() + delay;
  mac.cca_scheduled = true;
  mac.cca_at = at;
  mac.cca_event = queue_->ScheduleRegular(at, src, [this, src] {
    mac_[src].cca_scheduled = false;
    CcaFire(src);
  });
  // Fan the armed sense time to exactly the shards that would have to
  // mirror the resulting transmission. Interior nodes (empty mask) push
  // nothing: their channel activity never caps a cross-shard promise.
  if (announce_mask_ != nullptr) {
    uint64_t mask = (*announce_mask_)[src];
    while (mask != 0) {
      int t = std::countr_zero(mask);
      mask &= mask - 1;
      mac_times_[t].push(at);
    }
  }
}

void ShardRadio::TryStart(NodeId src) {
  PdesMac& mac = mac_[src];
  if (mac.transmitting || mac.cca_scheduled || mac.queue.empty()) return;
  // The channel is never sensed inline: every acquisition is a scheduled
  // carrier-sense event at least kBackoffMin out. That bound is the
  // engine's cross-shard lookahead -- a neighbor shard that has heard about
  // everything up to t knows no new frame can start before t + kBackoffMin.
  SimTime delay = kBackoffMin + mac_rng_[src].UniformInt(0, kBackoffMin - 1);
  // Record the already-drawn delay (never draw for instrumentation).
  if (backoff_hist_ != nullptr) backoff_hist_->Record(static_cast<uint64_t>(delay));
  if (ctr_backoffs_ != nullptr) ++*ctr_backoffs_;
  if (trace_ != nullptr) {
    trace_->Span(queue_->now(), delay, "cca.wait", obs::TraceCat::kMac, src,
                 "fresh", 1);
  }
  ScheduleCca(src, delay);
}

void ShardRadio::CcaFire(NodeId src) {
  PdesMac& mac = mac_[src];
  if (mac.transmitting || mac.queue.empty()) return;
  obs::ScopedBucket bucket(profiler_, obs::SimProfiler::kRadio);
  OutFrame& frame = mac.queue.front();
  if (!ChannelBusy(src)) {
    StartTx(src);
    return;
  }
  ++frame.channel_attempts;
  if (frame.channel_attempts >= kMaxChannelAttempts) {
    OutFrame dropped = std::move(mac.queue.front());
    mac.queue.pop_front();
    traffic_.OnDrop(metrics::DropReason::kChannelBusy);
    if (trace_ != nullptr) {
      trace_->Instant(queue_->now(), "drop.channel_busy",
                      obs::TraceCat::kPacket, src, "type",
                      static_cast<uint64_t>(dropped.pkt.hdr.type));
    }
    NotifySendDone(src, dropped.pkt, false);
    TryStart(src);
    return;
  }
  SimTime window = BackoffWindow(frame.channel_attempts);
  SimTime delay = 1 + mac_rng_[src].UniformInt(0, window - 1);
  if (backoff_hist_ != nullptr) backoff_hist_->Record(static_cast<uint64_t>(delay));
  if (ctr_backoffs_ != nullptr) ++*ctr_backoffs_;
  if (trace_ != nullptr) {
    trace_->Span(queue_->now(), delay, "backoff", obs::TraceCat::kMac, src,
                 "attempt", static_cast<uint64_t>(frame.channel_attempts),
                 "window_us", static_cast<uint64_t>(window));
  }
  ScheduleCca(src, delay);
}

void ShardRadio::StartTx(NodeId src) {
  PdesMac& mac = mac_[src];
  OutFrame& frame = mac.queue.front();
  if (!frame.seq_assigned) {
    frame.pkt.hdr.seq = mac.next_seq++;
    frame.seq_assigned = true;
  }
  bool is_retx = frame.retries_left < kUnicastRetries &&
                 frame.pkt.hdr.link_dst != kBroadcastId;
  traffic_.OnTransmit(src, frame.pkt, is_retx);

  SimTime start = queue_->now();
  SimTime end = start + frame.airtime;
  if (trace_ != nullptr) {
    trace_->Span(start, frame.airtime, "tx", obs::TraceCat::kPacket, src,
                 "type", static_cast<uint64_t>(frame.pkt.hdr.type), "seq",
                 static_cast<uint64_t>(frame.pkt.hdr.seq));
  }
  InsertRing(Transmission{src, start, end});
  node_tx_[src][1] = node_tx_[src][0];
  node_tx_[src][0] = TxSpan{start, end};
  active_tx_.Set(src);
  mac.transmitting = true;
  uint32_t gen = ++mac.tx_gen;
  if (announce_fn_) announce_fn_(src, gen, start, end, frame.pkt);
  // The evaluation event queues the completion in turn (see EvalLocal).
  queue_->ScheduleEval(end, src, gen,
                       [this, src, gen, start, end] { EvalLocal(src, gen, start, end); });
  // No floor entry for the completion: while the evaluation and then the
  // completion are pending the queue head stays <= end, so the engine's
  // head floor already bounds every message this transmission can lead to
  // (the next acquisition starts >= end + kBackoffMin; the ACK verdict at
  // `end` needs no coverage -- the remote completion stalls on the message
  // itself).
}

void ShardRadio::EvalLocal(NodeId src, uint32_t gen, SimTime start, SimTime end) {
  const PdesMac& mac = mac_[src];
  // An aborted local frame needs no evaluation: the generation bump at the
  // power-down makes it stale here.
  if (gen == mac.tx_gen && mac.transmitting) {
    EvalTx(src, gen, start, end, mac.queue.front().pkt, /*aborted=*/false);
  }
  // The completion is the phase-1 event keyed (src, gen) at `end`. When it
  // is canonically next -- no evaluation at `end` still pending, no
  // completion keyed before it, and its ACK verdict in hand -- it runs
  // right here; otherwise it is queued under that key. Either way it runs
  // at the same point of the canonical order, so every K still matches.
  if (!AckBlocked(src, gen) && queue_->FinishWouldRunNext(end, src, gen)) {
    FinishCont(src, gen);
  } else {
    queue_->ScheduleFinish(end, src, gen, [this, src, gen] { FinishCont(src, gen); });
  }
}

void ShardRadio::EvalRemote(NodeId src, uint32_t gen) {
  uint64_t key = TxKey(src, gen);
  auto it = remote_tx_.find(key);
  SCOOP_CHECK(it != remote_tx_.end());
  ++mirrored_frames_;
  const RemoteTx& tx = it->second;
  if (tx.aborted) {
    if (ctr_abort_rx_ != nullptr) ++*ctr_abort_rx_;
    if (trace_ != nullptr) {
      trace_->Instant(queue_->now(), "abort.rx", obs::TraceCat::kShardSync, src, "gen", gen);
    }
  }
  EvalTx(src, gen, tx.start, tx.end, tx.pkt, tx.aborted);
  // Retire the mirror's active bit unless a newer announced span of this
  // node is still (or not yet) on the air.
  if (node_tx_[src][0].end <= queue_->now()) active_tx_.Clear(src);
  remote_tx_.erase(it);
  PruneRing();
}

void ShardRadio::EvalTx(NodeId src, uint32_t gen, SimTime start, SimTime end,
                        const Packet& pkt, bool aborted) {
  obs::ScopedBucket bucket(profiler_, obs::SimProfiler::kRadio);
  NodeId dst = pkt.hdr.link_dst;
  bool dst_received = false;
  if (!aborted) {
    // A partition window severs a link in place of its keyed draw; every
    // shard asks the same channel at the same (src, r, end), so the
    // verdicts stay identical under any K-way partition. Evaluated at the
    // transmission end (= delivery instant).
    bool faulted = fault_ != nullptr && fault_->active();
    const uint64_t tx_key = MixSeed(link_key_, TxKey(src, gen));
    CollectInterferers(src, start, end);
    const bool maybe_collided = !collide_scratch_.empty();
    // Verdict pass: walk the sender's audible out-neighbors in ascending
    // id, but only for receivers this shard owns; the other shards run
    // the same walk over their own nodes with identical keyed draws. The
    // pass is pure, so running every verdict before any delivery changes
    // nothing: apps react only through Send and Schedule, which never
    // start a transmission inline, and liveness changes only in fault
    // events.
    receptions_.clear();
    const uint64_t workload_bytes = metrics::MessageStats::WorkloadBytes(pkt);
    const uint32_t link_base = topology_->link_base(src);
    std::span<const Topology::Link> links = topology_->audible_from(src);
    for (uint32_t k = 0; k < links.size(); ++k) {
      const Topology::Link& link = links[k];
      NodeId r = link.to;
      if (!Owned(r)) continue;
      if (!alive_[r]) continue;                                // Dead radios hear nothing.
      if (faulted && fault_->Severed(src, r, end)) continue;   // Partitioned.
      if (!LinkLossDraw(tx_key, r, link.prob)) continue;       // Link loss.
      if (WasTransmitting(r, start, end)) continue;            // Half duplex.
      if (maybe_collided && Collided(r, link.prob)) continue;  // Corrupted.
      bool addressed = (dst == kBroadcastId) || (dst == r);
      if (dst == r) dst_received = true;
      traffic_.OnReceive(r, addressed, workload_bytes);
      // Trace addressed receptions only; snoops are counted, not traced.
      if (trace_ != nullptr && addressed) {
        trace_->Instant(end, "deliver", obs::TraceCat::kPacket, r, "src",
                        static_cast<uint64_t>(src), "type",
                        static_cast<uint64_t>(pkt.hdr.type));
      }
      receptions_.push_back(Reception{r, addressed, link_base + k});
    }
    if (!receptions_.empty() && deliver_hook_) {
      // The receivers' handlers run here: charge them to the agent bucket.
      obs::ScopedBucket agent(profiler_, obs::SimProfiler::kAgent);
      deliver_hook_(pkt, receptions_);
    }
    // The destination's shard resolves the ACK verdict (it alone knows the
    // receiver's state) and reports it to the sender's completion.
    if (dst != kBroadcastId && Owned(dst) && topology_->delivery_prob(src, dst) > 0) {
      if (Owned(src)) {
        HandleAckResult(src, gen, dst_received);
      } else if (ack_fn_) {
        ack_fn_(src, gen, dst_received);
      }
    }
  }
}

bool ShardRadio::AckBlocked(NodeId src, uint32_t gen) const {
  const PdesMac& mac = mac_[src];
  if (gen != mac.tx_gen || !mac.transmitting) return false;  // Stale: no-op finish.
  NodeId dst = mac.queue.front().pkt.hdr.link_dst;
  if (dst == kBroadcastId) return false;
  if (Owned(dst)) return false;  // Local evaluation already ran (phase 0 < 1).
  if (topology_->delivery_prob(src, dst) <= 0) return false;  // No verdict coming.
  return !mac.ack_present || mac.ack_gen != gen;
}

void ShardRadio::NotifySendDone(NodeId src, const Packet& pkt, bool success) {
  if (!send_done_hook_) return;
  obs::ScopedBucket agent(profiler_, obs::SimProfiler::kAgent);
  send_done_hook_(src, pkt, success);
}

void ShardRadio::FinishCont(NodeId src, uint32_t gen) {
  obs::ScopedBucket bucket(profiler_, obs::SimProfiler::kRadio);
  PdesMac& mac = mac_[src];
  if (gen != mac.tx_gen) {
    if (!mac.transmitting) active_tx_.Clear(src);
    return;
  }
  SCOOP_CHECK(mac.transmitting);
  mac.transmitting = false;
  active_tx_.Clear(src);
  SCOOP_CHECK(!mac.queue.empty());

  OutFrame& frame = mac.queue.front();
  NodeId dst = frame.pkt.hdr.link_dst;
  if (dst == kBroadcastId) {
    Packet sent = std::move(mac.queue.front().pkt);
    mac.queue.pop_front();
    NotifySendDone(src, sent, true);
  } else {
    bool verdict = mac.ack_present && mac.ack_gen == gen;
    bool dst_received = verdict && mac.ack_received;
    mac.ack_present = false;
    if (verdict && !Owned(dst)) {  // The verdict came from dst's shard.
      if (ctr_ack_rx_ != nullptr) ++*ctr_ack_rx_;
      if (trace_ != nullptr) {
        trace_->Instant(queue_->now(), "ack.rx", obs::TraceCat::kShardSync, src, "gen", gen,
                        "received", dst_received ? 1 : 0);
      }
    }
    double p_ack = std::pow(topology_->delivery_prob(dst, src), kAckShortnessExponent);
    bool severed = fault_ != nullptr && fault_->active() &&
                   fault_->Severed(dst, src, queue_->now());  // Reverse link.
    bool acked = dst_received && !severed && AckDraw(src, gen, p_ack);
    if (acked) {
      Packet sent = std::move(mac.queue.front().pkt);
      mac.queue.pop_front();
      NotifySendDone(src, sent, true);
    } else if (frame.retries_left > 0) {
      --frame.retries_left;
      frame.channel_attempts = 0;  // Fresh CSMA round for the retransmission.
    } else {
      Packet sent = std::move(mac.queue.front().pkt);
      mac.queue.pop_front();
      traffic_.OnDrop(metrics::DropReason::kNoAck);
      if (trace_ != nullptr) {
        trace_->Instant(queue_->now(), "drop.no_ack", obs::TraceCat::kPacket,
                        src, "type", static_cast<uint64_t>(sent.hdr.type),
                        "dst", static_cast<uint64_t>(dst));
      }
      NotifySendDone(src, sent, false);
    }
  }

  PruneRing();
  TryStart(src);
}

void ShardRadio::HandleAnnounce(NodeId src, uint32_t gen, SimTime start, SimTime end,
                                Packet pkt) {
  SCOOP_DCHECK(!Owned(src));
  // A frame starting behind our clock is a straggler: some promise that
  // let us run past `start` was unsound, and results would silently differ.
  SCOOP_CHECK_GE(start, queue_->now());
  // The mirrored boundary frame, on the receiving shard's timeline.
  if (trace_ != nullptr) {
    trace_->Span(start, end - start, "mirror.tx", obs::TraceCat::kShardSync,
                 src, "gen", gen, "type",
                 static_cast<uint64_t>(pkt.hdr.type));
  }
  node_tx_[src][1] = node_tx_[src][0];
  node_tx_[src][0] = TxSpan{start, end};
  active_tx_.Set(src);
  InsertRing(Transmission{src, start, end});
  uint64_t key = TxKey(src, gen);
  remote_tx_.emplace(key, RemoteTx{std::move(pkt), start, end});
  queue_->ScheduleEval(end, src, gen, [this, src, gen] { EvalRemote(src, gen); });
}

void ShardRadio::HandleAbort(NodeId src, uint32_t gen) {
  // The owner emits an abort only mid-air, after the announce on the same
  // FIFO mailbox, so the evaluation (which counts and traces it) is pending.
  auto it = remote_tx_.find(TxKey(src, gen));
  SCOOP_CHECK(it != remote_tx_.end());
  it->second.aborted = true;
}

void ShardRadio::HandleAckResult(NodeId src, uint32_t gen, bool received) {
  PdesMac& mac = mac_[src];
  mac.ack_gen = gen;
  mac.ack_present = true;
  mac.ack_received = received;
}

void ShardRadio::SetAnnounceTargets(const std::vector<uint64_t>* announce_mask,
                                    int num_shards) {
  SCOOP_CHECK(announce_mask != nullptr);
  announce_mask_ = announce_mask;
  mac_times_.resize(static_cast<size_t>(num_shards));
  mac_cancelled_.resize(static_cast<size_t>(num_shards));
}

SimTime ShardRadio::MacFloorFor(int target, SimTime clock, bool head_past_clock) {
  MacHeap& times = mac_times_[target];
  MacHeap& cancelled = mac_cancelled_[target];
  for (;;) {
    // Annihilate cancelled entries as they surface (multiset semantics:
    // one cancellation removes one instance of its time).
    if (!times.empty() && !cancelled.empty() && times.top() == cancelled.top()) {
      times.pop();
      cancelled.pop();
      continue;
    }
    if (!times.empty() &&
        (times.top() < clock || (head_past_clock && times.top() <= clock))) {
      times.pop();
      continue;
    }
    break;
  }
  return times.empty() ? kSimTimeHorizon : times.top();
}

}  // namespace scoop::sim
