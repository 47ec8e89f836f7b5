// The simulated network as protocol code sees it: boots, app hosting,
// radio power, per-node timers and radio options, on a single-shard
// ShardedEngine (the sequential simulator).
#include <gtest/gtest.h>

#include "sim/sharded_engine.h"

namespace scoop::sim {
namespace {

class ProbeApp : public App {
 public:
  void OnBoot(Context& ctx) override {
    booted_at = ctx.now();
    self = ctx.self();
  }
  void OnReceive(Context& ctx, const Packet& pkt, const ReceiveInfo& info) override {
    (void)ctx;
    (void)info;
    ++received;
    last = pkt;
  }

  SimTime booted_at = -1;
  NodeId self = kInvalidNodeId;
  int received = 0;
  Packet last;
};

Topology Pair(double q = 1.0) {
  return Topology::FromMatrix({{0, 0}, {1, 0}}, {{0, q}, {q, 0}});
}

TEST(NetworkTest, BootsAllAppsWithinJitterWindow) {
  ShardedEngineOptions opts;
  opts.boot_jitter = Seconds(2);
  ShardedEngine net(Pair(), opts);
  auto a = std::make_unique<ProbeApp>();
  auto b = std::make_unique<ProbeApp>();
  ProbeApp* pa = a.get();
  ProbeApp* pb = b.get();
  net.SetApp(0, std::move(a));
  net.SetApp(1, std::move(b));
  net.Start();
  net.RunUntil(Seconds(3));
  EXPECT_GE(pa->booted_at, 0);
  EXPECT_LE(pa->booted_at, Seconds(2));
  EXPECT_GE(pb->booted_at, 0);
  EXPECT_EQ(pa->self, 0);
  EXPECT_EQ(pb->self, 1);
}

TEST(NetworkTest, AppAccessorReturnsInstalledApp) {
  ShardedEngine net(Pair(), ShardedEngineOptions{});
  auto app = std::make_unique<ProbeApp>();
  ProbeApp* raw = app.get();
  net.SetApp(1, std::move(app));
  EXPECT_EQ(net.app(1), raw);
  EXPECT_EQ(net.app(0), nullptr);
}

TEST(NetworkTest, DeadNodeStopsSendingAndReceiving) {
  ShardedEngineOptions opts;
  opts.boot_jitter = 0;
  ShardedEngine net(Pair(), opts);
  auto a = std::make_unique<ProbeApp>();
  auto b = std::make_unique<ProbeApp>();
  ProbeApp* pb = b.get();
  net.SetApp(0, std::move(a));
  net.SetApp(1, std::move(b));
  net.Start();
  net.RunUntil(Seconds(1));

  net.FaultSetAlive(1, false);
  net.context(0).Broadcast(MakePacket(0, kInvalidNodeId, BeaconPayload{}));
  net.RunUntil(Seconds(2));
  EXPECT_EQ(pb->received, 0);  // Dead radio heard nothing.

  net.context(1).Broadcast(MakePacket(1, kInvalidNodeId, BeaconPayload{}));
  net.RunUntil(Seconds(3));
  EXPECT_EQ(net.traffic().TotalSent(), 1u);  // Only node 0's broadcast went on air.

  net.FaultSetAlive(1, true);
  net.context(0).Broadcast(MakePacket(0, kInvalidNodeId, BeaconPayload{}));
  net.RunUntil(Seconds(4));
  EXPECT_EQ(pb->received, 1);  // Recovered.
}

TEST(NetworkTest, ContextScheduleAndCancel) {
  ShardedEngine net(Pair(), ShardedEngineOptions{});
  net.SetApp(0, std::make_unique<ProbeApp>());
  net.SetApp(1, std::make_unique<ProbeApp>());
  net.Start();
  net.RunUntil(Seconds(3));
  int fired = 0;
  EventId keep = net.context(0).Schedule(Seconds(1), [&] { ++fired; });
  EventId cancel = net.context(0).Schedule(Seconds(1), [&] { fired += 100; });
  (void)keep;
  net.context(0).Cancel(cancel);
  net.RunUntil(Seconds(5));
  EXPECT_EQ(fired, 1);
}

TEST(NetworkTest, RadioOptionsExposedToApps) {
  ShardedEngineOptions opts;
  opts.radio.max_packet_bytes = 77;
  ShardedEngine net(Pair(), opts);
  net.SetApp(0, std::make_unique<ProbeApp>());
  net.SetApp(1, std::make_unique<ProbeApp>());
  net.Start();
  net.RunUntil(Seconds(3));
  EXPECT_EQ(net.context(0).radio_options().max_packet_bytes, 77);
}

}  // namespace
}  // namespace scoop::sim
