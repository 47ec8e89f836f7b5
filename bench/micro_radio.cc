// Microbenchmarks of the radio/MAC (ShardRadio) hot path: a broadcast
// storm, a unicast convergecast toward the basestation, and a
// collision-heavy synchronized grid burst, each at N in {63, 121, 500,
// 1000}. One shard owns every node, as in a single-shard trial, so the
// numbers are the per-event cost of carrier sense, keyed loss/ACK draws,
// collision and half-duplex checks, and the event queue under them. A
// fourth case adds the receive layer: a grid storm whose every reception
// is snooped into the receiver's NeighborTable by its in-link rank.
#include <benchmark/benchmark.h>

#include <cmath>
#include <map>
#include <queue>
#include <span>
#include <utility>
#include <vector>

#include "net/neighbor_table.h"
#include "net/wire.h"
#include "sim/shard.h"
#include "sim/topology.h"

namespace scoop {
namespace {

using sim::Topology;

/// A single-shard radio on its own queue; its traffic ledger counts the
/// transmissions and deliveries. Bench drivers schedule under a
/// pseudo-origin above the node ids, as the engine's query driver does.
class BenchRadio {
 public:
  BenchRadio(const Topology* topology, uint64_t seed)
      : owner_(static_cast<size_t>(topology->num_nodes()), 0),
        queue_(static_cast<uint32_t>(topology->num_nodes()) + 1),
        radio_(topology, &queue_, seed, &owner_, /*self_shard=*/0),
        driver_origin_(static_cast<uint32_t>(topology->num_nodes())) {}

  void set_send_done_hook(sim::ShardRadio::SendDoneHook hook) {
    radio_.set_send_done_hook(std::move(hook));
  }
  void set_deliver_hook(sim::ShardRadio::DeliverHook hook) {
    radio_.set_deliver_hook(std::move(hook));
  }
  SimTime now() const { return queue_.now(); }
  void Send(NodeId src, Packet pkt) { radio_.Send(src, std::move(pkt)); }
  void ScheduleAt(SimTime at, sim::ShardQueue::Callback fn) {
    queue_.ScheduleRegular(at, driver_origin_, std::move(fn));
  }
  bool RunOne() { return queue_.RunOne(); }
  uint64_t transmissions() const { return radio_.traffic().TotalSent(); }
  uint64_t deliveries() const { return radio_.traffic().receptions(); }

 private:
  std::vector<int> owner_;
  sim::ShardQueue queue_;
  sim::ShardRadio radio_;
  uint32_t driver_origin_;
};

// ---------------------------------------------------------------------------
// Topology caches (construction is expensive at N = 1000; build once per
// process and share across benchmarks).
const Topology& CachedRandom(int n) {
  static auto* cache = new std::map<int, Topology>();
  auto it = cache->find(n);
  if (it == cache->end()) {
    sim::RandomTopologyOptions opts;
    opts.num_nodes = n;
    opts.seed = 9;
    // Scale the area with N to keep physical density comparable; the
    // range auto-tuner then holds the paper's ~20% audible fraction.
    double scale = std::sqrt(static_cast<double>(n) / 63.0);
    opts.area_width *= scale;
    opts.area_height *= scale;
    it = cache->emplace(n, Topology::MakeRandom(opts)).first;
  }
  return it->second;
}

const Topology& CachedGrid(int n) {
  static auto* cache = new std::map<int, Topology>();
  auto it = cache->find(n);
  if (it == cache->end()) {
    sim::GridTopologyOptions opts;
    opts.num_nodes = n;
    opts.seed = 9;
    it = cache->emplace(n, Topology::MakeGrid(opts)).first;
  }
  return it->second;
}

Packet SmallBroadcast(NodeId src) {
  BeaconPayload b;
  b.parent = 0;
  b.depth = 1;
  return MakePacket(src, 0, b);
}

/// Routing parents for the convergecast: BFS depth from the base over
/// usable links, each node unicasting to its strongest one-hop-closer
/// neighbor.
std::vector<NodeId> ConvergecastParents(const Topology& topo) {
  int n = topo.num_nodes();
  constexpr double kUsable = 0.1;
  std::vector<int> depth(static_cast<size_t>(n), -1);
  depth[0] = 0;
  std::queue<int> frontier;
  frontier.push(0);
  while (!frontier.empty()) {
    int u = frontier.front();
    frontier.pop();
    for (int v = 0; v < n; ++v) {
      if (depth[static_cast<size_t>(v)] >= 0) continue;
      if (topo.delivery_prob(static_cast<NodeId>(v), static_cast<NodeId>(u)) >= kUsable) {
        depth[static_cast<size_t>(v)] = depth[static_cast<size_t>(u)] + 1;
        frontier.push(v);
      }
    }
  }
  std::vector<NodeId> parent(static_cast<size_t>(n), 0);
  for (int v = 1; v < n; ++v) {
    double best = -1;
    for (int u = 0; u < n; ++u) {
      if (depth[static_cast<size_t>(u)] < 0 || depth[static_cast<size_t>(v)] < 0) continue;
      if (depth[static_cast<size_t>(u)] != depth[static_cast<size_t>(v)] - 1) continue;
      double p = topo.delivery_prob(static_cast<NodeId>(v), static_cast<NodeId>(u));
      if (p > best) {
        best = p;
        parent[static_cast<size_t>(v)] = static_cast<NodeId>(u);
      }
    }
  }
  return parent;
}

// ---------------------------------------------------------------------------
// Broadcast storm (paper radio regime: each node hears ~20% of the
// network): every node re-broadcasts the instant its previous frame
// completes; boots are staggered so CSMA interleaves them.
void BM_BroadcastStorm(benchmark::State& state) {
  const Topology& topo = CachedRandom(static_cast<int>(state.range(0)));
  int n = topo.num_nodes();
  BenchRadio radio(&topo, /*seed=*/42);
  radio.set_send_done_hook(
      [&radio](NodeId src, const Packet&, bool) { radio.Send(src, SmallBroadcast(src)); });
  for (int i = 0; i < n; ++i) {
    NodeId id = static_cast<NodeId>(i);
    radio.ScheduleAt(Millis(i + 1), [&radio, id] { radio.Send(id, SmallBroadcast(id)); });
  }
  for (auto _ : state) {
    radio.RunOne();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  state.counters["tx"] = static_cast<double>(radio.transmissions());
  state.counters["rx"] = static_cast<double>(radio.deliveries());
}
BENCHMARK(BM_BroadcastStorm)->Arg(63)->Arg(121)->Arg(500)->Arg(1000);

// ---------------------------------------------------------------------------
// Unicast convergecast: every sensor streams ACKed unicasts to its routing
// parent (retries, ACK draws, and half-duplex checks dominate).
void BM_UnicastConvergecast(benchmark::State& state) {
  const Topology& topo = CachedRandom(static_cast<int>(state.range(0)));
  int n = topo.num_nodes();
  static auto* parents_cache = new std::map<const Topology*, std::vector<NodeId>>();
  auto pit = parents_cache->find(&topo);
  if (pit == parents_cache->end()) {
    pit = parents_cache->emplace(&topo, ConvergecastParents(topo)).first;
  }
  const std::vector<NodeId>& parent = pit->second;

  BenchRadio radio(&topo, /*seed=*/43);
  auto send_to_parent = [&radio, &parent](NodeId src) {
    Packet p = SmallBroadcast(src);
    p.hdr.link_dst = parent[src];
    radio.Send(src, p);
  };
  radio.set_send_done_hook(
      [send_to_parent](NodeId src, const Packet&, bool) { send_to_parent(src); });
  for (int i = 1; i < n; ++i) {
    NodeId id = static_cast<NodeId>(i);
    radio.ScheduleAt(Millis(i + 1), [send_to_parent, id] { send_to_parent(id); });
  }
  for (auto _ : state) {
    radio.RunOne();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  state.counters["tx"] = static_cast<double>(radio.transmissions());
}
BENCHMARK(BM_UnicastConvergecast)->Arg(63)->Arg(121)->Arg(500)->Arg(1000);

// ---------------------------------------------------------------------------
// Collision-heavy grid: all nodes boot at the same instant on the dense
// lattice and re-broadcast on completion, so backoff, carrier sense, and
// collision checks run saturated.
void BM_CollisionGridBurst(benchmark::State& state) {
  const Topology& topo = CachedGrid(static_cast<int>(state.range(0)));
  int n = topo.num_nodes();
  BenchRadio radio(&topo, /*seed=*/44);
  radio.set_send_done_hook(
      [&radio](NodeId src, const Packet&, bool) { radio.Send(src, SmallBroadcast(src)); });
  for (int i = 0; i < n; ++i) {
    NodeId id = static_cast<NodeId>(i);
    radio.ScheduleAt(0, [&radio, id] { radio.Send(id, SmallBroadcast(id)); });
  }
  for (auto _ : state) {
    radio.RunOne();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  state.counters["tx"] = static_cast<double>(radio.transmissions());
}
BENCHMARK(BM_CollisionGridBurst)->Arg(63)->Arg(121)->Arg(500)->Arg(1000);

// ---------------------------------------------------------------------------
// Delivery path: a broadcast storm on the lattice (staggered boots, each
// node re-broadcasting on completion) whose every reception updates the
// receiver's link estimator, as an agent's snoop does: one
// NeighborTable::OnPacketSeen keyed by the reception's in-link rank.
void BM_SnoopGridStorm(benchmark::State& state) {
  const Topology& topo = CachedGrid(static_cast<int>(state.range(0)));
  int n = topo.num_nodes();
  BenchRadio radio(&topo, /*seed=*/45);
  std::vector<net::NeighborTable> tables(static_cast<size_t>(n));
  uint64_t snoops = 0;
  radio.set_deliver_hook([&](const Packet& pkt,
                             std::span<const sim::ShardRadio::Reception> receptions) {
    for (const sim::ShardRadio::Reception& rx : receptions) {
      tables[rx.receiver].OnPacketSeen(pkt.hdr.link_src, pkt.hdr.seq, radio.now(),
                                       topo.in_rank(rx.link));
    }
    snoops += receptions.size();
  });
  radio.set_send_done_hook(
      [&radio](NodeId src, const Packet&, bool) { radio.Send(src, SmallBroadcast(src)); });
  for (int i = 0; i < n; ++i) {
    NodeId id = static_cast<NodeId>(i);
    radio.ScheduleAt(Millis(i + 1), [&radio, id] { radio.Send(id, SmallBroadcast(id)); });
  }
  for (auto _ : state) {
    radio.RunOne();
  }
  benchmark::DoNotOptimize(tables.data());
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  state.counters["tx"] = static_cast<double>(radio.transmissions());
  state.counters["snoops"] = static_cast<double>(snoops);
}
BENCHMARK(BM_SnoopGridStorm)->Arg(121)->Arg(1024);

}  // namespace
}  // namespace scoop

BENCHMARK_MAIN();
