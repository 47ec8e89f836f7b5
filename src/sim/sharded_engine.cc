#include "sim/sharded_engine.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <numeric>
#include <thread>
#include <utility>

#include "common/check.h"

namespace scoop::sim {

/// Per-node container on its owner shard: owns the hosted app and
/// implements Context for it, wired to the owner shard's queue and radio.
/// Frame delivery bypasses it: the shard's deliver hook calls the app
/// directly and hands it this object only as its Context.
class ShardedEngine::Host : public Context {
 public:
  Host(ShardedEngine* engine, Shard* shard, NodeId id, uint64_t seed)
      : engine_(engine), shard_(shard), id_(id), rng_(MixSeed(seed, id), /*stream=*/id) {}

  void set_app(std::unique_ptr<App> app) { app_ = std::move(app); }
  App* app() { return app_.get(); }

  // --- Context ---
  NodeId self() const override { return id_; }
  SimTime now() const override;
  Rng& rng() override { return rng_; }
  void Broadcast(Packet pkt) override;
  void Unicast(NodeId dst, Packet pkt) override;
  EventId Schedule(SimTime delay, SmallCallback fn) override;
  void Cancel(EventId id) override;
  const RadioOptions& radio_options() const override { return engine_->options_.radio; }

  void SendDone(const Packet& pkt, bool success) {
    if (app_ != nullptr) app_->OnSendDone(*this, pkt, success);
  }

  void Boot() {
    if (app_ != nullptr) app_->OnBoot(*this);
  }

  // --- Fault lifecycle (invoked by the engine's Fault* helpers, always on
  // this host's owning shard thread) ---
  void Crash() {
    if (app_ != nullptr) app_->OnCrash(*this);
  }
  void Reboot() {
    if (app_ != nullptr) app_->OnReboot(*this);
  }
  void RootPromote(bool promote) {
    if (app_ != nullptr) app_->OnRootPromote(*this, promote);
  }

 private:
  ShardedEngine* engine_;
  Shard* shard_;
  NodeId id_;
  Rng rng_;
  std::unique_ptr<App> app_;
};

/// One shard: a deterministic queue, the radio for its nodes, and the
/// hosts it owns. Everything in here is touched only by the shard's own
/// thread while a run is in flight.
struct ShardedEngine::Shard {
  explicit Shard(uint32_t num_origins) : queue(num_origins) {}

  int index = 0;
  ShardQueue queue;
  std::unique_ptr<ShardRadio> radio;
  std::vector<std::unique_ptr<Host>> hosts;  ///< Indexed by node; null if not owned.
  /// Each host's app (null if none), flat, so delivery reaches the app
  /// without loading the Host.
  std::vector<App*> apps;
  /// Link-layer duplicate filter: the last seq delivered addressed over
  /// each CSR link (-1 = none yet). Only audible senders can deliver, so
  /// one slot per link is one slot per (sender, receiver) pair, and one
  /// frame's slots are contiguous in the sender's row. Only the receiver's
  /// owner shard writes a slot.
  std::vector<int32_t> last_seq;
  /// Sorted times of every pre-scheduled power-toggle this shard will
  /// execute; `alive_cursor` advances as they run. The next pending time
  /// is the AliveFloor: a power-down can emit an abort at its event time
  /// with no carrier-sense lookahead in front of it.
  std::vector<SimTime> alive_times;
  size_t alive_cursor = 0;
  uint64_t in_mask = 0;     ///< Shards whose EPT bounds our safe time.
  uint64_t out_mask = 0;    ///< Shards our promises must cover.
  uint64_t drain_mask = 0;  ///< Shards that may push into our mailboxes.
  /// Lowest promise PublishEpt last wrote to any out-neighbor: once the
  /// clock reaches it, a mid-batch republish can lift it.
  SimTime min_published = 0;
  /// Always-on perf telemetry (like ShardQueue::processed()): wall time
  /// spent spinning with no executable event, and how many distinct
  /// no-progress episodes occurred. Wall-clock-derived, NOT deterministic.
  uint64_t stall_us_total = 0;
  uint64_t stall_episodes = 0;

  // --- Observability (null/0 = off; the queue and radio hold their own
  // resolved pointers, this is the engine-loop share) ---
  obs::TraceSink* trace = nullptr;
  obs::SimProfiler* profiler = nullptr;
  obs::MetricsRegistry* sample_reg = nullptr;  ///< Non-null iff sampling on.
  obs::Histogram* depth_hist = nullptr;
  uint64_t* ctr_stall_us = nullptr;
  uint64_t* ctr_stall_episodes = nullptr;
  /// Per-out-neighbor "shard.ept_slack_us.to<k>" counters (accumulated
  /// extra headroom the per-boundary promise gives that neighbor over the
  /// most conservative one); null slots = off.
  std::vector<uint64_t*> ctr_ept_slack;
  bool slack_obs = false;  ///< Any ctr_ept_slack slot non-null.
  SimTime metrics_interval = 0;
  SimTime next_sample = 0;

  SimTime AliveFloor() const {
    return alive_cursor < alive_times.size() ? alive_times[alive_cursor]
                                             : kSimTimeHorizon;
  }
};

SimTime ShardedEngine::Host::now() const { return shard_->queue.now(); }

void ShardedEngine::Host::Broadcast(Packet pkt) {
  pkt.hdr.link_dst = kBroadcastId;
  shard_->radio->Send(id_, std::move(pkt));
}

void ShardedEngine::Host::Unicast(NodeId dst, Packet pkt) {
  SCOOP_CHECK_NE(dst, id_);
  pkt.hdr.link_dst = dst;
  shard_->radio->Send(id_, std::move(pkt));
}

EventId ShardedEngine::Host::Schedule(SimTime delay, SmallCallback fn) {
  return shard_->queue.ScheduleRegular(shard_->queue.now() + delay, id_, std::move(fn));
}

void ShardedEngine::Host::Cancel(EventId id) { shard_->queue.Cancel(id); }

ShardedEngine::ShardedEngine(Topology topology, ShardedEngineOptions options)
    : topology_(std::move(topology)), options_(options) {
  SCOOP_CHECK_GE(options_.shards, 1);
  SCOOP_CHECK_LE(options_.shards, 64);  // Shard sets travel as uint64_t masks.
  num_shards_ = options_.shards;
  int n = topology_.num_nodes();
  owner_ = PartitionNodes(topology_, num_shards_, options_.partition);
  cut_edges_ = CutEdges(topology_, owner_);
  imbalance_ = PartitionImbalance(owner_, num_shards_);

  // Announce routes from the CSR audible lists: every shard owning a node
  // that can hear (or be interfered by) `u` mirrors u's transmissions.
  // The interference threshold prunes at 0.05 but any audible link is a
  // superset of that, so the mask covers all channel effects.
  announce_mask_.assign(static_cast<size_t>(n), 0);
  std::vector<uint64_t> out_mask(static_cast<size_t>(num_shards_), 0);
  std::vector<uint64_t> in_mask(static_cast<size_t>(num_shards_), 0);
  for (NodeId u = 0; u < n; ++u) {
    uint64_t mask = 0;
    for (const Topology::Link& link : topology_.audible_from(u)) {
      mask |= uint64_t{1} << owner_[link.to];
    }
    mask &= ~(uint64_t{1} << owner_[u]);
    announce_mask_[u] = mask;
    out_mask[owner_[u]] |= mask;
    uint64_t m = mask;
    while (m != 0) {
      int t = std::countr_zero(m);
      m &= m - 1;
      in_mask[t] |= uint64_t{1} << owner_[u];
    }
  }

  mail_ = std::make_unique<Mailbox[]>(static_cast<size_t>(num_shards_) *
                                      static_cast<size_t>(num_shards_));
  size_t cells = static_cast<size_t>(num_shards_) * static_cast<size_t>(num_shards_);
  ept_ = std::make_unique<std::atomic<SimTime>[]>(cells);
  for (size_t c = 0; c < cells; ++c) ept_[c].store(0, std::memory_order_relaxed);

  // Two pseudo-origins above the node id space order same-time driver and
  // failure-injection events deterministically after node events.
  uint32_t num_origins = static_cast<uint32_t>(n) + 2;
  shards_.reserve(static_cast<size_t>(num_shards_));
  for (int s = 0; s < num_shards_; ++s) {
    auto shard = std::make_unique<Shard>(num_origins);
    Shard* sh = shard.get();
    sh->index = s;
    sh->in_mask = in_mask[s];
    sh->out_mask = out_mask[s];
    // ACK verdicts flow opposite to announces, so drain both directions.
    sh->drain_mask = in_mask[s] | out_mask[s];
    sh->radio = std::make_unique<ShardRadio>(&topology_, options_.radio, &sh->queue,
                                             options_.seed, &owner_, s);
    sh->radio->SetAnnounceTargets(&announce_mask_, num_shards_);
    sh->hosts.resize(static_cast<size_t>(n));
    sh->apps.assign(static_cast<size_t>(n), nullptr);
    sh->last_seq.assign(topology_.num_links(), -1);
    for (NodeId id = 0; id < n; ++id) {
      if (owner_[id] == s) {
        sh->hosts[id] = std::make_unique<Host>(this, sh, id, options_.seed);
      }
    }
    sh->radio->set_deliver_hook(
        [this, sh](const Packet& pkt, std::span<const ShardRadio::Reception> receptions) {
          // Every per-receiver lookup is a direct index: the app table by
          // receiver, the duplicate filter and the in-link rank by link.
          for (const ShardRadio::Reception& rx : receptions) {
            App* app = sh->apps[rx.receiver];
            if (app == nullptr) continue;
            // The Host is the app's Context; passing it loads nothing.
            Context& ctx = *sh->hosts[rx.receiver];
            ReceiveInfo info;
            info.addressed_to_me = rx.addressed;
            info.in_link = topology_.in_rank(rx.link);
            if (rx.addressed) {
              int32_t& last = sh->last_seq[rx.link];
              info.duplicate = last == pkt.hdr.seq;
              last = pkt.hdr.seq;
              app->OnReceive(ctx, pkt, info);
            } else {
              app->OnSnoop(ctx, pkt, info);
            }
          }
        });
    sh->radio->set_send_done_hook([sh](NodeId src, const Packet& pkt, bool success) {
      sh->hosts[src]->SendDone(pkt, success);
    });
    sh->radio->set_announce_fn(
        [this, sh](NodeId src, uint32_t gen, SimTime start, SimTime end,
                   const Packet& pkt) {
          uint64_t mask = announce_mask_[src];
          while (mask != 0) {
            int to = std::countr_zero(mask);
            mask &= mask - 1;
            ShardMsg msg;
            msg.kind = ShardMsg::Kind::kAnnounce;
            msg.src = src;
            msg.gen = gen;
            msg.start = start;
            msg.end = end;
            msg.pkt = pkt;
            Push(sh->index, to, std::move(msg));
          }
        });
    sh->radio->set_abort_fn([this, sh](NodeId src, uint32_t gen) {
      uint64_t mask = announce_mask_[src];
      while (mask != 0) {
        int to = std::countr_zero(mask);
        mask &= mask - 1;
        ShardMsg msg;
        msg.kind = ShardMsg::Kind::kAbort;
        msg.src = src;
        msg.gen = gen;
        Push(sh->index, to, std::move(msg));
      }
    });
    sh->radio->set_ack_fn([this, sh](NodeId src, uint32_t gen, bool received) {
      ShardMsg msg;
      msg.kind = ShardMsg::Kind::kAck;
      msg.src = src;
      msg.gen = gen;
      msg.received = received;
      Push(sh->index, owner_[src], std::move(msg));
    });
    shards_.push_back(std::move(shard));
  }
}

ShardedEngine::~ShardedEngine() = default;

void ShardedEngine::SetApp(NodeId id, std::unique_ptr<App> app) {
  SCOOP_CHECK(!started_);
  SCOOP_CHECK_LT(static_cast<size_t>(id), owner_.size());
  Shard* sh = shards_[owner_[id]].get();
  sh->apps[id] = app.get();
  sh->hosts[id]->set_app(std::move(app));
}

App* ShardedEngine::app(NodeId id) {
  SCOOP_CHECK_LT(static_cast<size_t>(id), owner_.size());
  return shards_[owner_[id]]->hosts[id]->app();
}

Context& ShardedEngine::context(NodeId id) {
  SCOOP_CHECK_LT(static_cast<size_t>(id), owner_.size());
  return *shards_[owner_[id]]->hosts[id];
}

void ShardedEngine::Start() {
  SCOOP_CHECK(!started_);
  started_ = true;
  // One boot-jitter stream walked in node id order, independent of the
  // partition.
  Rng boot_rng(MixSeed(options_.seed, 0xB007), /*stream=*/0xB007);
  int n = topology_.num_nodes();
  for (NodeId id = 0; id < n; ++id) {
    SimTime at =
        options_.boot_jitter > 0 ? boot_rng.UniformInt(0, options_.boot_jitter) : 0;
    Shard* sh = shards_[owner_[id]].get();
    Host* h = sh->hosts[id].get();
    sh->queue.ScheduleRegular(at, id, [h] { h->Boot(); });
  }
  for (auto& shard : shards_) {
    std::sort(shard->alive_times.begin(), shard->alive_times.end());
  }
}

void ShardedEngine::ScheduleDriver(SimTime at, SmallCallback fn) {
  Shard* sh = shards_[owner_[0]].get();
  sh->queue.ScheduleRegular(at, static_cast<uint32_t>(topology_.num_nodes()),
                            std::move(fn));
}

SimTime ShardedEngine::DriverNow() const { return shards_[owner_[0]]->queue.now(); }

void ShardedEngine::ScheduleFault(SimTime at, NodeId id, SmallCallback fn) {
  SCOOP_CHECK(!started_);  // The AliveFloor schedule must be complete pre-run.
  SCOOP_CHECK_LT(static_cast<size_t>(id), owner_.size());
  Shard* sh = shards_[owner_[id]].get();
  // Named functor rather than a lambda: capturing one SmallCallback inside
  // another overflows the inline buffer either way, but the struct keeps
  // the advance-the-AliveFloor bookkeeping next to the action it covers.
  struct FaultFire {
    Shard* sh;
    SmallCallback fn;
    void operator()() {
      fn();
      ++sh->alive_cursor;
    }
  };
  sh->queue.ScheduleRegular(at, static_cast<uint32_t>(topology_.num_nodes()) + 1,
                            FaultFire{sh, std::move(fn)});
  sh->alive_times.push_back(at);
}

void ShardedEngine::FaultSetAlive(NodeId id, bool alive) {
  shards_[owner_[id]]->radio->SetNodeAlive(id, alive);
}

void ShardedEngine::FaultCrash(NodeId id) { shards_[owner_[id]]->hosts[id]->Crash(); }

void ShardedEngine::FaultReboot(NodeId id) { shards_[owner_[id]]->hosts[id]->Reboot(); }

void ShardedEngine::FaultRootPromote(NodeId id, bool promote) {
  shards_[owner_[id]]->hosts[id]->RootPromote(promote);
}

void ShardedEngine::SetFaultChannel(const fault::LinkFaultChannel* channel) {
  for (auto& shard : shards_) shard->radio->SetFaultChannel(channel);
}

bool ShardedEngine::IsAlive(NodeId id) const {
  return shards_[owner_[id]]->radio->IsAlive(id);
}

metrics::MessageStats ShardedEngine::traffic() const {
  metrics::MessageStats merged = shards_[0]->radio->traffic();
  for (int s = 1; s < num_shards_; ++s) merged.MergeFrom(shards_[s]->radio->traffic());
  return merged;
}

void ShardedEngine::EnableObservability(int shard, obs::TraceSink* trace,
                                        obs::MetricsRegistry* metrics,
                                        obs::SimProfiler* profiler,
                                        SimTime metrics_interval) {
  Shard* sh = shards_[shard].get();
  sh->trace = trace;
  sh->profiler = profiler;
  sh->queue.set_profiler(profiler);
  sh->radio->EnableObservability(trace, metrics, profiler);
  if (metrics != nullptr) {
    sh->ctr_stall_us = metrics->Counter("shard.stall_us");
    sh->ctr_stall_episodes = metrics->Counter("shard.stall_episodes");
    ShardRadio* radio = sh->radio.get();
    metrics->Gauge("shard.mirrored_frames",
                   [radio] { return radio->mirrored_frames(); });
    if (shard == 0) {
      // Partition quality is engine-global; register it on shard 0 only so
      // the merged JSONL carries one copy per sample instant. The
      // imbalance gauge is in per-mille (gauges are integral).
      metrics->Gauge("partition.cut_edges", [this] { return cut_edges_; });
      metrics->Gauge("partition.imbalance", [this] {
        return static_cast<uint64_t>(imbalance_ * 1000.0);
      });
    }
    // One slack counter per out-neighbor: how much extra promise headroom
    // the per-boundary floors gave that neighbor over the most
    // conservative (global-minimum) promise, accumulated per publish.
    sh->ctr_ept_slack.assign(static_cast<size_t>(num_shards_), nullptr);
    uint64_t m = sh->out_mask;
    while (m != 0) {
      int t = std::countr_zero(m);
      m &= m - 1;
      sh->ctr_ept_slack[t] =
          metrics->Counter("shard.ept_slack_us.to" + std::to_string(t));
      sh->slack_obs = true;
    }
    sh->depth_hist = metrics->Hist("queue.occupancy");
    ShardQueue* q = &sh->queue;
    metrics->Gauge("queue.depth", [q] { return static_cast<uint64_t>(q->size()); });
    metrics->Gauge("queue.processed", [q] { return q->processed(); });
    if (metrics_interval > 0) {
      sh->sample_reg = metrics;
      sh->metrics_interval = metrics_interval;
      sh->next_sample = metrics_interval;
    }
  }
}

uint64_t ShardedEngine::processed() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->queue.processed();
  return total;
}

uint64_t ShardedEngine::stall_us() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->stall_us_total;
  return total;
}

uint64_t ShardedEngine::stall_episodes() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->stall_episodes;
  return total;
}

uint64_t ShardedEngine::mirrored_frames() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->radio->mirrored_frames();
  return total;
}

void ShardedEngine::Push(int from, int to, ShardMsg msg) {
  Mailbox& box = mail_[static_cast<size_t>(to) * num_shards_ + from];
  std::lock_guard<std::mutex> lock(box.mu);
  box.msgs.push_back(std::move(msg));
}

SimTime ShardedEngine::SafeTime(const Shard& shard) const {
  SimTime safe = kSimTimeHorizon;
  uint64_t mask = shard.in_mask;
  while (mask != 0) {
    int f = std::countr_zero(mask);
    mask &= mask - 1;
    // `f`'s promise TO US specifically -- not its global minimum.
    safe = std::min(safe, ept_[static_cast<size_t>(f) * num_shards_ + shard.index]
                              .load(std::memory_order_acquire));
  }
  return safe;
}

void ShardedEngine::Drain(Shard* shard) {
  uint64_t mask = shard->drain_mask;
  while (mask != 0) {
    int from = std::countr_zero(mask);
    mask &= mask - 1;
    Mailbox& box = mail_[static_cast<size_t>(shard->index) * num_shards_ + from];
    std::vector<ShardMsg> msgs;
    {
      std::lock_guard<std::mutex> lock(box.mu);
      msgs.swap(box.msgs);
    }
    for (ShardMsg& m : msgs) {
      switch (m.kind) {
        case ShardMsg::Kind::kAnnounce:
          shard->radio->HandleAnnounce(m.src, m.gen, m.start, m.end, std::move(m.pkt));
          break;
        case ShardMsg::Kind::kAbort:
          shard->radio->HandleAbort(m.src, m.gen);
          break;
        case ShardMsg::Kind::kAck:
          shard->radio->HandleAckResult(m.src, m.gen, m.received);
          break;
      }
    }
  }
}

template <bool kRepublish>
bool ShardedEngine::ExecuteUpTo(Shard* shard, SimTime limit, SimTime safe) {
  obs::ScopedBucket bucket(shard->profiler, obs::SimProfiler::kQueue);
  bool progress = false;
  for (;;) {
    SimTime head = shard->queue.HeadTime();
    if (head > limit) break;
    if (shard->sample_reg != nullptr) {
      // Sample right before the first event past each grid point, i.e.
      // with exactly the events at or before it executed -- a point in
      // the canonical event order, so the rows are deterministic even
      // though `limit` depends on thread timing. Grid points the run
      // never executes past are flushed at the end of RunShard.
      while (shard->next_sample < head) {
        shard->depth_hist->Record(shard->queue.size());
        shard->sample_reg->Sample(shard->next_sample);
        shard->next_sample += shard->metrics_interval;
      }
    }
    NodeId sender;
    uint32_t gen;
    if (shard->queue.HeadFinishInfo(&sender, &gen) &&
        shard->radio->AckBlocked(sender, gen)) {
      // The completion's remote ACK verdict has not arrived: stall with
      // the event still queued (MacFloor keeps the promise at its time).
      break;
    }
    shard->queue.RunOne();
    progress = true;
    if constexpr (kRepublish) {
      // A neighbor blocked on our promise needs it lifted only past the
      // instant it waits for, not past the whole batch. Messages not yet
      // drained still carry times >= `safe`, so the batch's safe time
      // stays a sound base for the head floor.
      if (shard->queue.now() >= shard->min_published) {
        obs::ScopedBucket sync(shard->profiler, obs::SimProfiler::kShardSync);
        PublishEpt(shard, safe);
      }
    }
  }
  return progress;
}

void ShardedEngine::PublishEpt(Shard* shard, SimTime safe) {
  if (shard->out_mask == 0) return;  // Nobody reads our promises.
  SimTime clock = shard->queue.now();
  SimTime head = shard->queue.HeadTime();
  const bool head_past_clock = head > clock;
  SimTime alive = shard->AliveFloor();
  // Any transmission this shard has not yet committed to must still clear
  // a scheduled carrier sense: at least backoff_min past the earliest
  // thing that could trigger one (queue head, or an inbound message at
  // our current safe time). This shard-global floor also covers every
  // post-completion acquisition: a frame finishing at `end` holds head <=
  // end until its completion runs, and its successor starts >= end +
  // backoff_min, so in-flight transmit ends need no floor entry at all.
  SimTime base = std::min(head, safe);
  SimTime lookahead = base >= kSimTimeHorizon - options_.radio.backoff_min
                          ? kSimTimeHorizon
                          : base + options_.radio.backoff_min;
  const SimTime shared = std::min(alive, lookahead);
  // Per-boundary promises: each out-neighbor is capped only by the armed
  // carrier senses of nodes whose announces actually reach it.
  SimTime epts[64];
  SimTime min_ept = kSimTimeHorizon;
  uint64_t mask = shard->out_mask;
  while (mask != 0) {
    int t = std::countr_zero(mask);
    mask &= mask - 1;
    SimTime mac = shard->radio->MacFloorFor(t, clock, head_past_clock);
    SimTime ept = std::min(shared, mac);
    std::atomic<SimTime>& cell =
        ept_[static_cast<size_t>(shard->index) * num_shards_ + t];
    // Monotone publish: a promise never retreats -- a lower one would
    // prove an earlier promise unsound. Only this shard's thread writes
    // the cell, so load-then-store is race-free.
    SimTime published = cell.load(std::memory_order_relaxed);
    SCOOP_CHECK_GE(ept, published);
    if (ept > published) cell.store(ept, std::memory_order_release);
    epts[t] = ept;
    if (ept < min_ept) min_ept = ept;
  }
  shard->min_published = min_ept;
  if (shard->slack_obs) {
    // Accumulated per-neighbor headroom over the most conservative
    // promise (what a single global floor would have published); clamped
    // per publish so an idle tail cannot swamp the series.
    uint64_t m = shard->out_mask;
    while (m != 0) {
      int t = std::countr_zero(m);
      m &= m - 1;
      if (shard->ctr_ept_slack[t] == nullptr) continue;
      SimTime slack = std::min(epts[t] - min_ept, kSecond);
      *shard->ctr_ept_slack[t] += static_cast<uint64_t>(slack);
    }
  }
}

void ShardedEngine::RunShard(Shard* shard, SimTime end) {
  // Attribution starts here: setup time between EnableObservability and
  // the run loop belongs to no bucket.
  if (shard->profiler != nullptr) shard->profiler->Restart();
  // Wall time spent in the current run of no-progress iterations; each
  // such episode becomes one counter bump + trace instant on resumption
  // (not one per spin), so stalls cannot flood the sinks.
  int64_t stall_ns = 0;
  for (;;) {
    SimTime safe;
    {
      obs::ScopedBucket sync(shard->profiler, obs::SimProfiler::kShardSync);
      safe = SafeTime(*shard);  // Acquire EPTs BEFORE draining, so
      Drain(shard);             // every message behind them is seen.
    }
    // Hoisted: a shard nobody reads promises from (every K = 1 run) takes
    // the loop without the per-event republish check.
    SimTime limit = std::min(safe, end);
    bool progress = shard->out_mask != 0 ? ExecuteUpTo<true>(shard, limit, safe)
                                         : ExecuteUpTo<false>(shard, limit, safe);
    obs::ScopedBucket sync(shard->profiler, obs::SimProfiler::kShardSync);
    SimTime head = shard->queue.HeadTime();
    PublishEpt(shard, safe);
    if (stall_ns > 0 && progress) {
      uint64_t us = static_cast<uint64_t>(stall_ns / 1000);
      stall_ns = 0;
      shard->stall_us_total += us;
      ++shard->stall_episodes;
      if (shard->ctr_stall_us != nullptr) *shard->ctr_stall_us += us;
      if (shard->ctr_stall_episodes != nullptr) ++*shard->ctr_stall_episodes;
      if (shard->trace != nullptr) {
        shard->trace->Instant(shard->queue.now(), "ept.stall",
                              obs::TraceCat::kShardSync, obs::kEngineTid,
                              "wall_us", us);
      }
    }
    // Done once nothing at or before `end` remains and no in-neighbor can
    // still send anything relevant. The loop keeps republishing on idle
    // iterations so neighbor promises (and then everyone's exit) converge.
    if (safe > end && head > end) break;
    if (!progress) {
      // Always wall-clocked (the spin is wasted time anyway); the totals
      // feed the engine's stall_us()/stall_episodes() perf telemetry even
      // with observability off.
      auto mark = std::chrono::steady_clock::now();
      std::this_thread::yield();
      stall_ns += std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now() - mark)
                      .count();
    }
  }
  if (stall_ns > 0) {
    uint64_t us = static_cast<uint64_t>(stall_ns / 1000);
    shard->stall_us_total += us;
    ++shard->stall_episodes;
    if (shard->ctr_stall_us != nullptr) *shard->ctr_stall_us += us;
    if (shard->ctr_stall_episodes != nullptr) ++*shard->ctr_stall_episodes;
  }
  if (shard->sample_reg != nullptr) {
    // Flush grid points the event stream never stepped past: everything at
    // or before `end` has executed, so these rows are deterministic too.
    while (shard->next_sample <= end) {
      shard->depth_hist->Record(shard->queue.size());
      shard->sample_reg->Sample(shard->next_sample);
      shard->next_sample += shard->metrics_interval;
    }
  }
  // Everything at or before `end` has run: park the clock there, so a
  // caller scheduling between RunUntil calls measures delays from `end`.
  shard->queue.AdvanceTo(end);
  // Close the books on this shard's wall-clock attribution here, on the
  // shard's own thread: whatever the main thread does afterwards (trace
  // export, result merge) must not leak into this shard's buckets.
  if (shard->profiler != nullptr) shard->profiler->Stop();
}

void ShardedEngine::RunUntil(SimTime end) {
  SCOOP_CHECK(started_);
  if (num_shards_ == 1) {
    RunShard(shards_[0].get(), end);
    return;
  }
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(num_shards_));
  for (auto& shard : shards_) {
    Shard* sh = shard.get();
    threads.emplace_back([this, sh, end] { RunShard(sh, end); });
  }
  for (std::thread& t : threads) t.join();
}

}  // namespace scoop::sim
