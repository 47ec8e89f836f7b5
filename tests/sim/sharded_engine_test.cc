// Shard-boundary edge cases for the conservative parallel engine. Every
// test runs the same workload at K=1 and at K>=2 and compares per-node
// event logs: a node's log is written only by its owning shard's thread in
// that shard's deterministic event order, so the logs must be identical at
// every shard count.
#include "sim/sharded_engine.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

namespace scoop::sim {
namespace {

/// Per-node event log, one line per observation ("recv t=... from=...").
using NodeLog = std::vector<std::string>;

Packet DataPacket(NodeId origin, uint32_t tag) {
  DataPayload payload;
  payload.producer = origin;
  Reading r;
  r.value = static_cast<Value>(tag);
  r.time = 0;
  payload.readings.push_back(r);
  return MakePacket(origin, kInvalidNodeId, std::move(payload));
}

/// Broadcasts `count` tagged packets on a fixed period and logs every
/// reception and send-done. The same class runs on silent nodes (count=0),
/// which only log.
class ChatterApp : public App {
 public:
  ChatterApp(NodeLog* log, int count, SimTime period, NodeId unicast_to = kInvalidNodeId)
      : log_(log), count_(count), period_(period), unicast_to_(unicast_to) {}

  void OnBoot(Context& ctx) override {
    log_->push_back("boot t=" + std::to_string(ctx.now()));
    if (count_ > 0) ctx.Schedule(period_, [this, &ctx] { SendNext(ctx); });
  }

  void OnReceive(Context& ctx, const Packet& pkt, const ReceiveInfo& info) override {
    log_->push_back("recv t=" + std::to_string(ctx.now()) +
                    " from=" + std::to_string(pkt.hdr.link_src) +
                    " seq=" + std::to_string(pkt.hdr.seq) +
                    " dup=" + std::to_string(info.duplicate));
  }

  void OnSnoop(Context& ctx, const Packet& pkt) override {
    log_->push_back("snoop t=" + std::to_string(ctx.now()) +
                    " from=" + std::to_string(pkt.hdr.link_src));
  }

  void OnSendDone(Context& ctx, const Packet& pkt, bool success) override {
    log_->push_back("done t=" + std::to_string(ctx.now()) +
                    " seq=" + std::to_string(pkt.hdr.seq) +
                    " ok=" + std::to_string(success));
  }

 private:
  void SendNext(Context& ctx) {
    if (sent_ >= count_) return;
    Packet pkt = DataPacket(ctx.self(), static_cast<uint32_t>(sent_));
    if (unicast_to_ == kInvalidNodeId) {
      ctx.Broadcast(std::move(pkt));
    } else {
      ctx.Unicast(unicast_to_, std::move(pkt));
    }
    ++sent_;
    ctx.Schedule(period_, [this, &ctx] { SendNext(ctx); });
  }

  NodeLog* log_;
  int count_ = 0;
  SimTime period_ = 0;
  NodeId unicast_to_ = kInvalidNodeId;
  int sent_ = 0;
};

/// A straight line of `n` nodes with perfect adjacent links, so a K-way
/// strip partition cuts between consecutive nodes.
Topology Line(int n) {
  std::vector<Point> pos;
  std::vector<std::vector<double>> d(static_cast<size_t>(n),
                                     std::vector<double>(static_cast<size_t>(n), 0.0));
  for (int i = 0; i < n; ++i) {
    pos.push_back({static_cast<double>(i) * 10.0, 0});
    if (i > 0) {
      d[static_cast<size_t>(i)][static_cast<size_t>(i - 1)] = 1.0;
      d[static_cast<size_t>(i - 1)][static_cast<size_t>(i)] = 1.0;
    }
  }
  return Topology::FromMatrix(std::move(pos), std::move(d));
}

struct AliveToggle {
  SimTime at;
  NodeId id;
  bool alive;
};

/// Runs the workload `install` describes at shard count `k` and returns
/// the per-node logs. RunUntil is called once per entry of `slices`
/// (ascending end times), so a multi-entry list runs the trial in slices.
template <typename InstallFn>
std::vector<NodeLog> RunAt(int k, PartitionKind partition, const Topology& topo,
                           InstallFn install, const std::vector<AliveToggle>& toggles,
                           const std::vector<SimTime>& slices) {
  ShardedEngineOptions opts;
  opts.seed = 7;
  opts.shards = k;
  opts.partition = partition;
  ShardedEngine engine(topo, opts);
  std::vector<NodeLog> logs(static_cast<size_t>(topo.num_nodes()));
  for (NodeId id = 0; id < topo.num_nodes(); ++id) {
    engine.SetApp(id, install(id, &logs[id]));
  }
  for (const AliveToggle& t : toggles) {
    engine.ScheduleFault(t.at, t.id, [e = &engine, t] { e->FaultSetAlive(t.id, t.alive); });
  }
  engine.Start();
  for (SimTime end : slices) engine.RunUntil(end);
  return logs;
}

template <typename InstallFn>
void ExpectShardInvariant(const Topology& topo, InstallFn install,
                          const std::vector<AliveToggle>& toggles, SimTime until,
                          std::vector<int> shard_counts) {
  std::vector<NodeLog> ref = RunAt(1, PartitionKind::kStrip, topo, install, toggles, {until});
  size_t total = 0;
  for (const NodeLog& log : ref) total += log.size();
  EXPECT_GT(total, 0u) << "workload produced no events; test is vacuous";
  for (int k : shard_counts) {
    SCOPED_TRACE("shards=" + std::to_string(k));
    std::vector<NodeLog> got =
        RunAt(k, PartitionKind::kStrip, topo, install, toggles, {until});
    ASSERT_EQ(ref.size(), got.size());
    for (size_t i = 0; i < ref.size(); ++i) {
      EXPECT_EQ(ref[i], got[i]) << "node " << i;
    }
  }
}

TEST(ShardedEngineTest, BroadcastsCrossShardBoundaries) {
  // Node 0 chatters; with K=2 the cut falls mid-line and nodes 3/4 hear
  // each other across it.
  Topology topo = Line(8);
  auto install = [](NodeId id, NodeLog* log) -> std::unique_ptr<App> {
    return std::make_unique<ChatterApp>(log, id == 0 ? 10 : 0, Millis(400));
  };
  ExpectShardInvariant(topo, install, {}, Seconds(8), {2, 4, 8});
}

TEST(ShardedEngineTest, UnicastAckCrossesTheBoundaryBothWays) {
  // Adjacent senders aimed at each other across the K=2 cut (3 -> 4 and
  // 4 -> 3): the reception verdict must travel back to the sender's shard
  // for the retransmit decision, in both directions at once.
  Topology topo = Line(8);
  auto install = [](NodeId id, NodeLog* log) -> std::unique_ptr<App> {
    if (id == 3) return std::make_unique<ChatterApp>(log, 8, Millis(500), /*unicast_to=*/4);
    if (id == 4) return std::make_unique<ChatterApp>(log, 8, Millis(500), /*unicast_to=*/3);
    return std::make_unique<ChatterApp>(log, 0, Millis(500));
  };
  ExpectShardInvariant(topo, install, {}, Seconds(8), {2, 4});
}

TEST(ShardedEngineTest, PowerCycledNodeWithInFlightCrossShardPackets) {
  // Node 4 (just across the K=2 cut) power-cycles twice while node 3
  // streams unicasts at it: frames in flight at the power-down must abort
  // identically at every K, and the revived node must rejoin cleanly.
  Topology topo = Line(8);
  auto install = [](NodeId id, NodeLog* log) -> std::unique_ptr<App> {
    if (id == 3) return std::make_unique<ChatterApp>(log, 30, Millis(200), /*unicast_to=*/4);
    return std::make_unique<ChatterApp>(log, 0, Millis(200));
  };
  std::vector<AliveToggle> toggles = {
      {Seconds(3), 4, false},
      {Seconds(4), 4, true},
      {Millis(5500), 4, false},
      {Millis(6500), 4, true},
  };
  ExpectShardInvariant(topo, install, toggles, Seconds(9), {2, 4});
}

TEST(ShardedEngineTest, SenderPowerCycleAbortsItsOwnBoundaryFrames) {
  // The transmitting side of the boundary dies mid-stream: its mirrored
  // frames on the other shard must be revoked (aborts), not delivered.
  Topology topo = Line(6);
  auto install = [](NodeId id, NodeLog* log) -> std::unique_ptr<App> {
    if (id == 2) return std::make_unique<ChatterApp>(log, 30, Millis(150), /*unicast_to=*/3);
    return std::make_unique<ChatterApp>(log, 0, Millis(150));
  };
  std::vector<AliveToggle> toggles = {
      {Millis(3210), 2, false},
      {Millis(4210), 2, true},
  };
  ExpectShardInvariant(topo, install, toggles, Seconds(7), {2, 3});
}

TEST(ShardedEngineTest, BasestationOnTheBoundary) {
  // Node 0 sits mid-line (the strip partition sorts by coordinate, so the
  // K=2 cut lands next to it) while every other node unicasts at it.
  std::vector<Point> pos = {{25, 0}, {0, 0}, {10, 0}, {20, 0}, {30, 0}, {40, 0}, {50, 0}};
  int n = static_cast<int>(pos.size());
  std::vector<std::vector<double>> d(static_cast<size_t>(n),
                                     std::vector<double>(static_cast<size_t>(n), 0.0));
  auto connect = [&](int a, int b) {
    d[static_cast<size_t>(a)][static_cast<size_t>(b)] = 1.0;
    d[static_cast<size_t>(b)][static_cast<size_t>(a)] = 1.0;
  };
  // Chain in coordinate order: 1-2-3-0-4-5-6.
  connect(1, 2);
  connect(2, 3);
  connect(3, 0);
  connect(0, 4);
  connect(4, 5);
  connect(5, 6);
  Topology topo = Topology::FromMatrix(std::move(pos), std::move(d));
  auto install = [](NodeId id, NodeLog* log) -> std::unique_ptr<App> {
    if (id == 3 || id == 4) {
      return std::make_unique<ChatterApp>(log, 10, Millis(300) + id * Millis(7),
                                          /*unicast_to=*/0);
    }
    return std::make_unique<ChatterApp>(log, 0, Millis(300));
  };
  ExpectShardInvariant(topo, install, {}, Seconds(7), {2, 3, 7});
}

TEST(ShardedEngineTest, MoreShardsThanNodes) {
  // K far above the node count leaves most shards empty; they must still
  // publish promises and terminate, and results must not change.
  Topology topo = Line(3);
  auto install = [](NodeId id, NodeLog* log) -> std::unique_ptr<App> {
    return std::make_unique<ChatterApp>(log, 5, Millis(250), id == 0 ? NodeId{1} : kInvalidNodeId);
  };
  ExpectShardInvariant(topo, install, {}, Seconds(4), {2, 8, 64});
}

TEST(ShardedEngineTest, SlicedRunUntilMatchesOneShot) {
  // Every other test drives K > 1 with one RunUntil. Here the trial runs
  // in ~10 uneven slices, so each slice edge caps a batch at `end` while
  // promises are republished mid-batch, and the shards park and restart
  // there; the logs must still match one uninterrupted K = 1 run.
  std::vector<Point> pos;
  const int side = 6;
  for (int y = 0; y < side; ++y) {
    for (int x = 0; x < side; ++x) {
      pos.push_back({static_cast<double>(x) * 10.0, static_cast<double>(y) * 10.0});
    }
  }
  int n = side * side;
  std::vector<std::vector<double>> d(static_cast<size_t>(n),
                                     std::vector<double>(static_cast<size_t>(n), 0.0));
  for (int a = 0; a < n; ++a) {
    for (int b = 0; b < n; ++b) {
      int dx = std::abs(a % side - b % side);
      int dy = std::abs(a / side - b / side);
      if (a != b && dx <= 1 && dy <= 1) {
        d[static_cast<size_t>(a)][static_cast<size_t>(b)] = dx + dy == 1 ? 0.95 : 0.6;
      }
    }
  }
  Topology topo = Topology::FromMatrix(std::move(pos), std::move(d));
  // Broadcasters on every third node plus unicast pairs across the
  // middle of the lattice, where both partitions cut.
  auto install = [](NodeId id, NodeLog* log) -> std::unique_ptr<App> {
    SimTime period = Millis(170) + id * Millis(3);
    if (id == 14) return std::make_unique<ChatterApp>(log, 25, period, /*unicast_to=*/15);
    if (id == 21) return std::make_unique<ChatterApp>(log, 25, period, /*unicast_to=*/20);
    return std::make_unique<ChatterApp>(log, id % 3 == 0 ? 20 : 0, period);
  };
  std::vector<AliveToggle> toggles = {{Millis(2500), 15, false}, {Millis(3300), 15, true}};
  const SimTime until = Seconds(6);
  std::vector<SimTime> slices = {Millis(7),    Millis(400),  Millis(401),  Millis(1333),
                                 Millis(2500), Millis(2917), Millis(3800), Millis(4650),
                                 Millis(5999), until};
  std::vector<NodeLog> ref = RunAt(1, PartitionKind::kStrip, topo, install, toggles, {until});
  size_t total = 0;
  for (const NodeLog& log : ref) total += log.size();
  ASSERT_GT(total, 0u) << "workload produced no events; test is vacuous";
  for (PartitionKind partition : {PartitionKind::kStrip, PartitionKind::kMincut}) {
    for (int k : {2, 4}) {
      SCOPED_TRACE("shards=" + std::to_string(k) + " mincut=" +
                   std::to_string(partition == PartitionKind::kMincut));
      std::vector<NodeLog> got = RunAt(k, partition, topo, install, toggles, slices);
      ASSERT_EQ(ref.size(), got.size());
      for (size_t i = 0; i < ref.size(); ++i) {
        EXPECT_EQ(ref[i], got[i]) << "node " << i;
      }
    }
  }
}

TEST(ShardedEngineTest, ShardOfCoversAllNodesContiguously) {
  Topology topo = Line(10);
  ShardedEngineOptions opts;
  opts.shards = 4;
  ShardedEngine engine(topo, opts);
  EXPECT_EQ(engine.num_shards(), 4);
  int prev = 0;
  for (NodeId id = 0; id < 10; ++id) {
    int s = engine.shard_of(id);
    EXPECT_GE(s, prev);  // The line is already in coordinate order.
    EXPECT_LT(s, 4);
    prev = s;
  }
  EXPECT_EQ(engine.shard_of(0), 0);
  EXPECT_EQ(engine.shard_of(9), 3);
}

}  // namespace
}  // namespace scoop::sim
