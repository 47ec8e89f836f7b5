// The radio/MAC (ShardRadio) as a single-shard engine drives it: delivery
// and snooping, link loss, unicast ACK + retransmission, duplicates,
// collisions with capture, carrier sense, half duplex, the backoff window,
// and the stale-completion hazard of a mid-air power cycle.
#include <cmath>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sim/shard.h"
#include "sim/sharded_engine.h"

namespace scoop::sim {
namespace {

/// Minimal app that records everything it sees.
class RecorderApp : public App {
 public:
  void OnBoot(Context& ctx) override { (void)ctx; }
  void OnReceive(Context& ctx, const Packet& pkt, const ReceiveInfo& info) override {
    (void)ctx;
    received.push_back(pkt);
    CheckInLink(ctx, pkt, info);
    if (info.duplicate) ++duplicates;
    // The link-layer filter flags a frame iff it repeats the seq last
    // delivered addressed from the same sender.
    auto last = last_seq.find(pkt.hdr.link_src);
    bool repeat = last != last_seq.end() && last->second == pkt.hdr.seq;
    if (info.duplicate != repeat) ++duplicate_mismatches;
    for (const auto& [src, seq] : last_seq) {
      if (src != pkt.hdr.link_src && seq == pkt.hdr.seq) ++same_seq_as_other_sender;
    }
    last_seq[pkt.hdr.link_src] = pkt.hdr.seq;
  }
  void OnSnoop(Context& ctx, const Packet& pkt, const ReceiveInfo& info) override {
    snooped.push_back(pkt);
    CheckInLink(ctx, pkt, info);
  }
  void OnSendDone(Context& ctx, const Packet& pkt, bool success) override {
    (void)ctx;
    (void)pkt;
    if (success) {
      ++send_ok;
    } else {
      ++send_fail;
    }
  }

  int ReceivedFrom(NodeId src) const {
    int n = 0;
    for (const Packet& p : received) n += p.hdr.link_src == src ? 1 : 0;
    return n;
  }

  /// With `topology` set, counts receptions whose in-link rank differs
  /// from the sender's position among this node's audible senders, found
  /// by scanning the delivery matrix.
  void CheckInLink(const Context& ctx, const Packet& pkt, const ReceiveInfo& info) {
    if (topology == nullptr) return;
    int rank = 0;
    for (NodeId s = 0; s < pkt.hdr.link_src; ++s) {
      if (topology->delivery_prob(s, ctx.self()) > 0.0) ++rank;
    }
    if (info.in_link != rank) ++in_link_mismatches;
  }

  const Topology* topology = nullptr;
  int in_link_mismatches = 0;
  std::vector<Packet> received;
  std::vector<Packet> snooped;
  int duplicates = 0;
  std::map<NodeId, uint16_t> last_seq;
  int duplicate_mismatches = 0;
  int same_seq_as_other_sender = 0;
  int send_ok = 0;
  int send_fail = 0;
};

/// 3-node chain with configurable link probabilities:
///   0 <-> 1 <-> 2, 0 and 2 cannot hear each other.
Topology ChainTopology(double p01, double p12) {
  std::vector<Point> pos = {{0, 0}, {10, 0}, {20, 0}};
  std::vector<std::vector<double>> d = {
      {0, p01, 0}, {p01, 0, p12}, {0, p12, 0}};
  return Topology::FromMatrix(pos, d);
}

ShardedEngineOptions Options(uint64_t seed) {
  ShardedEngineOptions o;
  o.seed = seed;
  return o;
}

/// A single-shard engine with a RecorderApp on every node. Tests install
/// pre-Start fault schedules, then call Boot().
struct Fixture {
  explicit Fixture(Topology topo, ShardedEngineOptions opts = Options(1))
      : engine(std::move(topo), opts) {
    for (NodeId i = 0; i < engine.topology().num_nodes(); ++i) {
      auto app = std::make_unique<RecorderApp>();
      apps.push_back(app.get());
      engine.SetApp(i, std::move(app));
    }
  }

  /// Starts the engine and runs past the boot jitter.
  void Boot(SimTime until = Seconds(3)) {
    engine.Start();
    engine.RunUntil(until);
  }

  Context& ctx(NodeId id) { return engine.context(id); }
  SimTime now() const { return engine.DriverNow(); }

  ShardedEngine engine;
  std::vector<RecorderApp*> apps;
};

Packet TestBeacon(NodeId origin) {
  BeaconPayload b;
  b.parent = 0;
  b.depth = 1;
  return MakePacket(origin, 0, b);
}

TEST(RadioTest, PerfectUnicastDelivered) {
  Fixture f(ChainTopology(1.0, 1.0));
  f.Boot();
  f.ctx(0).Unicast(1, TestBeacon(0));
  f.engine.RunUntil(Seconds(4));
  ASSERT_EQ(f.apps[1]->received.size(), 1u);
  EXPECT_EQ(f.apps[1]->received[0].hdr.link_src, 0);
  EXPECT_EQ(f.apps[1]->received[0].hdr.link_dst, 1);
  EXPECT_EQ(f.apps[0]->send_ok, 1);
  // Node 2 cannot hear node 0.
  EXPECT_TRUE(f.apps[2]->received.empty());
  EXPECT_TRUE(f.apps[2]->snooped.empty());
}

TEST(RadioTest, BroadcastReachesNeighborsOnly) {
  Fixture f(ChainTopology(1.0, 1.0));
  f.Boot();
  f.ctx(1).Broadcast(TestBeacon(1));
  f.engine.RunUntil(Seconds(4));
  EXPECT_EQ(f.apps[0]->received.size(), 1u);
  EXPECT_EQ(f.apps[2]->received.size(), 1u);
}

TEST(RadioTest, UnicastIsSnoopedByThirdParties) {
  std::vector<Point> pos = {{0, 0}, {5, 0}, {5, 5}};
  std::vector<std::vector<double>> d = {
      {0, 1.0, 1.0}, {1.0, 0, 1.0}, {1.0, 1.0, 0}};
  Fixture f(Topology::FromMatrix(pos, d));
  f.Boot();
  f.ctx(0).Unicast(1, TestBeacon(0));
  f.engine.RunUntil(Seconds(4));
  EXPECT_EQ(f.apps[1]->received.size(), 1u);
  ASSERT_EQ(f.apps[2]->snooped.size(), 1u);
  EXPECT_TRUE(f.apps[2]->received.empty());
  EXPECT_EQ(f.apps[2]->snooped[0].hdr.link_dst, 1);
}

TEST(RadioTest, DeadLinkNeverDelivers) {
  // No reception means no ACK: every unicast burns its retries and is
  // dropped with kNoAck, booked once per frame in the traffic ledger.
  Fixture f(ChainTopology(0.0, 1.0));
  f.Boot();
  for (int i = 0; i < 20; ++i) f.ctx(0).Unicast(1, TestBeacon(0));
  f.engine.RunUntil(Seconds(30));
  EXPECT_TRUE(f.apps[1]->received.empty());
  EXPECT_EQ(f.apps[0]->send_fail, 20);
  const metrics::MessageStats traffic = f.engine.traffic();
  EXPECT_EQ(traffic.drops(metrics::DropReason::kNoAck), 20u);
  EXPECT_EQ(traffic.drops(metrics::DropReason::kChannelBusy), 0u);
  // One first attempt plus kUnicastRetries retransmissions per frame.
  EXPECT_EQ(traffic.SentBy(0), 20u * (1 + kUnicastRetries));
  EXPECT_EQ(traffic.receptions(), 0u);
}

TEST(RadioTest, LossyUnicastRetransmitsAndMostlySucceeds) {
  // p = 0.5 with retries: per-attempt success (incl. ack) ~0.35, so over
  // every attempt most frames get through. With 200 packets we expect
  // clearly more successes than a no-retransmission link would give.
  Fixture f(ChainTopology(0.5, 1.0), Options(77));
  f.Boot();
  for (int i = 0; i < 200; ++i) f.ctx(0).Unicast(1, TestBeacon(0));
  f.engine.RunUntil(Seconds(200));
  int delivered_unique =
      static_cast<int>(f.apps[1]->received.size()) - f.apps[1]->duplicates;
  EXPECT_GT(delivered_unique, 100);
  EXPECT_EQ(f.apps[0]->send_ok + f.apps[0]->send_fail, 200);
  EXPECT_GT(f.apps[0]->send_ok, 100);
}

TEST(RadioTest, LedgerCountsRetransmissions) {
  Fixture f(ChainTopology(0.5, 1.0), Options(5));
  f.Boot();
  for (int i = 0; i < 100; ++i) f.ctx(0).Unicast(1, TestBeacon(0));
  f.engine.RunUntil(Seconds(120));
  const metrics::TypeCounters beacons = f.engine.traffic().ByType(PacketType::kBeacon);
  EXPECT_GT(beacons.sent, 100u);  // Lossy link must force retransmissions.
  EXPECT_EQ(beacons.retransmissions, beacons.sent - 100);
  EXPECT_EQ(beacons.bytes_sent, beacons.sent * static_cast<uint64_t>(TestBeacon(0).WireSize()));
}

TEST(RadioTest, LedgerCountsEveryReceptionButOnlyAddressedOnesPerNode) {
  // Node 1's unicast to 0 is overheard by 2; its broadcast reaches both.
  Fixture f(ChainTopology(1.0, 1.0));
  f.Boot();
  f.ctx(1).Unicast(0, TestBeacon(1));
  f.engine.RunUntil(Seconds(4));
  f.ctx(1).Broadcast(TestBeacon(1));
  f.engine.RunUntil(Seconds(6));
  ASSERT_EQ(f.apps[2]->snooped.size(), 1u);
  const metrics::MessageStats traffic = f.engine.traffic();
  EXPECT_EQ(traffic.SentBy(1), 2u);
  EXPECT_EQ(traffic.receptions(), 4u);
  EXPECT_EQ(traffic.ReceivedBy(0), 2u);
  EXPECT_EQ(traffic.ReceivedBy(2), 1u);  // The snoop is not addressed to it.
  // Beacons are routing substrate, not workload.
  EXPECT_EQ(traffic.WorkloadBytesBy(1), 0u);
  EXPECT_EQ(traffic.TotalSentExclBeacons(), 0u);
}

TEST(RadioTest, DuplicatesAreFlagged) {
  // Very lossy reverse path for ACKs: 0->1 perfect, 1->0 weak. Packets are
  // received but ACKs are lost, causing duplicate deliveries.
  std::vector<Point> pos = {{0, 0}, {5, 0}};
  std::vector<std::vector<double>> d = {{0, 1.0}, {0.1, 0}};
  Fixture f(Topology::FromMatrix(pos, d), Options(3));
  f.Boot();
  for (int i = 0; i < 50; ++i) f.ctx(0).Unicast(1, TestBeacon(0));
  f.engine.RunUntil(Seconds(100));
  EXPECT_GT(f.apps[1]->duplicates, 0);
}

TEST(RadioTest, ReceptionsCarryTheSendersInLinkRank) {
  RandomTopologyOptions opts;
  opts.num_nodes = 30;
  opts.seed = 11;
  Fixture f(Topology::MakeRandom(opts));
  const Topology& topo = f.engine.topology();
  for (RecorderApp* app : f.apps) app->topology = &topo;
  f.Boot();
  // A broadcast and a unicast (overheard by the sender's other
  // neighbors) from every node.
  for (NodeId i = 0; i < topo.num_nodes(); ++i) {
    f.ctx(i).Broadcast(TestBeacon(i));
    f.ctx(i).Unicast(topo.audible_from(i).front().to, TestBeacon(i));
  }
  f.engine.RunUntil(Seconds(20));
  size_t received = 0;
  size_t snooped = 0;
  int mismatches = 0;
  for (const RecorderApp* app : f.apps) {
    received += app->received.size();
    snooped += app->snooped.size();
    mismatches += app->in_link_mismatches;
  }
  EXPECT_GT(received, 40u) << snooped;
  EXPECT_GT(snooped, 40u) << received;
  EXPECT_EQ(mismatches, 0);
}

TEST(RadioTest, DuplicatesAreKeyedPerSender) {
  // Nodes 0 and 2 both unicast to 1 over perfect links; 1's ACKs back are
  // weak, so both retransmit frames 1 already has. Their MAC sequence
  // numbers run in step, so 1 also hears the same seq from two senders,
  // which must not be flagged.
  std::vector<Point> pos = {{0, 0}, {5, 0}, {10, 0}};
  std::vector<std::vector<double>> d = {{0, 1.0, 1.0}, {0.15, 0, 0.15}, {1.0, 1.0, 0}};
  Fixture f(Topology::FromMatrix(pos, d), Options(4));
  f.Boot();
  for (int i = 0; i < 30; ++i) {
    f.ctx(0).Unicast(1, TestBeacon(0));
    f.ctx(2).Unicast(1, TestBeacon(2));
  }
  f.engine.RunUntil(Seconds(100));
  const RecorderApp& rx = *f.apps[1];
  EXPECT_GT(rx.duplicates, 0);
  EXPECT_GT(rx.same_seq_as_other_sender, 0);
  EXPECT_EQ(rx.duplicate_mismatches, 0);
  EXPECT_EQ(rx.ReceivedFrom(0) + rx.ReceivedFrom(2) - rx.duplicates, 60);
}

/// Runs 50 rounds, after every node has booted, in which `senders` each
/// broadcast one beacon from the same driver instant (their carrier senses
/// then fire a keyed random 8-16 ms later), and returns node `receiver`'s
/// app.
struct Rounds {
  std::unique_ptr<Fixture> fixture;
  RecorderApp* receiver;
};
Rounds BroadcastRounds(Topology topo, ShardedEngineOptions opts, std::vector<NodeId> senders,
                       NodeId receiver) {
  auto f = std::make_unique<Fixture>(std::move(topo), opts);
  for (int i = 0; i < 50; ++i) {
    ShardedEngine* engine = &f->engine;
    SimTime at = ShardedEngine::kBootJitter + Seconds(1) + Millis(100 * (i + 1));
    f->engine.ScheduleDriver(at, [engine, senders] {
      for (NodeId s : senders) engine->context(s).Broadcast(TestBeacon(s));
    });
  }
  f->Boot(Seconds(30));
  RecorderApp* app = f->apps[receiver];
  return {std::move(f), app};
}

TEST(RadioTest, CollisionsCorruptOverlappingTransmissions) {
  // Hidden-terminal setup: 0 and 2 cannot hear each other (no carrier
  // sense) and send to 1 at nearly the same time on perfect links. Each
  // sender alone gets every frame through; together most are lost.
  auto received = [](std::vector<NodeId> senders) {
    Rounds r = BroadcastRounds(ChainTopology(1.0, 1.0), Options(9), std::move(senders), 1);
    return static_cast<int>(r.receiver->received.size());
  };
  EXPECT_EQ(received({0}), 50);
  EXPECT_EQ(received({2}), 50);
  EXPECT_LT(received({0, 2}), 20);  // Nearly everything collides.
}

TEST(RadioTest, CaptureLetsTheStrongerOfTwoOverlappingFramesSurvive) {
  // Hidden terminals 0 and 2 both reach receiver 1; 0's link is perfect.
  // An overlapping frame corrupts reception only if the interferer's link
  // is at least half (the capture ratio) as strong as the signal's.
  auto from_strong = [](double weak_link) {
    std::vector<Point> pos = {{0, 0}, {10, 0}, {20, 0}};
    std::vector<std::vector<double>> d = {
        {0, 1.0, 0}, {1.0, 0, weak_link}, {0, weak_link, 0}};
    Rounds r = BroadcastRounds(Topology::FromMatrix(pos, d), Options(21), {0, 2}, 1);
    return r.receiver->ReceivedFrom(0);
  };
  EXPECT_EQ(from_strong(0.3), 50);  // 0.3 < 0.5 * 1.0: captured, no loss.
  EXPECT_LT(from_strong(0.8), 20);  // 0.8 >= 0.5 * 1.0: collisions.
}

TEST(RadioTest, OnlyInterferersAtTheThresholdCanCorrupt) {
  // Hidden terminals 0 and 2 both reach receiver 1. 0's link (0.099) is
  // so weak that the capture bound (half the signal) lies below the
  // interference threshold, so capture alone would let any of 2's links
  // corrupt. The threshold must still decide: a link just below it never
  // corrupts -- 0's deliveries match a run in which 1 cannot hear 2 at
  // all -- and a link exactly at it does. Loss and backoff draws are
  // keyed per sender, so 0's frames see the same draws in every run.
  auto from_weak = [](double interferer_link) {
    std::vector<Point> pos = {{0, 0}, {10, 0}, {20, 0}};
    std::vector<std::vector<double>> d = {
        {0, 0.099, 0}, {0.099, 0, interferer_link}, {0, interferer_link, 0}};
    Rounds r = BroadcastRounds(Topology::FromMatrix(pos, d), Options(21), {0, 2}, 1);
    return r.receiver->ReceivedFrom(0);
  };
  const double threshold = Topology::kInterferenceThreshold;
  const int unheard = from_weak(0.0);
  EXPECT_GT(unheard, 0);
  EXPECT_EQ(from_weak(std::nextafter(threshold, 0.0)), unheard);
  EXPECT_LT(from_weak(threshold), unheard);
}

TEST(RadioTest, HalfDuplexReceiverMissesFramesWhileTransmitting) {
  // 0 -> 1 is perfect but 1 -> 0 is silent, so 0 never senses 1's frames.
  // Whenever 1 is on the air (broadcasting to 2) while 0's frame arrives,
  // 1 cannot receive it. Node 2 never transmits, so no frame can collide
  // at 1: any loss is half duplex.
  std::vector<Point> pos = {{0, 0}, {10, 0}, {20, 0}};
  std::vector<std::vector<double>> d = {{0, 1.0, 0}, {0, 0, 1.0}, {0, 1.0, 0}};
  ShardedEngineOptions opts = Options(13);
  Rounds alone = BroadcastRounds(Topology::FromMatrix(pos, d), opts, {0}, 1);
  EXPECT_EQ(alone.receiver->ReceivedFrom(0), 50);
  Rounds busy = BroadcastRounds(Topology::FromMatrix(pos, d), opts, {0, 1}, 1);
  EXPECT_LT(busy.receiver->ReceivedFrom(0), 50);
  EXPECT_GT(busy.receiver->ReceivedFrom(0), 0);
}

TEST(RadioTest, CarrierSenseAvoidsCollisionsBetweenAudibleSenders) {
  // 0 and 1 hear each other perfectly and both send to 2: CSMA must
  // serialize them, so deliveries stay high even with collisions modeled.
  std::vector<Point> pos = {{0, 0}, {1, 0}, {0.5, 1}};
  std::vector<std::vector<double>> d = {
      {0, 1.0, 1.0}, {1.0, 0, 1.0}, {1.0, 1.0, 0}};
  Rounds r = BroadcastRounds(Topology::FromMatrix(pos, d), Options(17), {0, 1}, 2);
  EXPECT_GT(static_cast<int>(r.receiver->received.size()), 85);
}

TEST(RadioTest, RejectsOversizedPackets) {
  Fixture f(ChainTopology(1.0, 1.0));
  f.Boot();
  MappingPayload big;
  big.index_id = 1;
  big.num_chunks = 1;
  // 30 entries * 6B + 11B header exceeds the 96B MTU.
  for (int i = 0; i < 30; ++i) {
    big.entries.push_back(RangeEntry{i, i, 1});
  }
  Packet pkt = MakePacket(0, 0, big);
  EXPECT_GT(pkt.WireSize(), kMaxPacketBytes);
  EXPECT_DEATH(f.ctx(0).Broadcast(pkt), "SCOOP_CHECK");
}

TEST(RadioTest, AirtimeScalesWithSize) {
  Topology topo = ChainTopology(1.0, 1.0);
  std::vector<int> owner(3, 0);
  ShardQueue queue(/*num_origins=*/3);
  ShardRadio radio(&topo, &queue, /*seed=*/1, &owner, /*self_shard=*/0);
  SimTime small = radio.Airtime(20);
  SimTime large = radio.Airtime(90);
  EXPECT_GT(large, small);
  // 38.4 kbps: (11+20)*8 bits ~ 6.5 ms.
  EXPECT_NEAR(static_cast<double>(small), 6458.0, 100.0);
}

TEST(RadioTest, BackoffWindowStartsAtMinDoublesAndClamps) {
  std::vector<SimTime> windows;
  for (int attempt = 1; attempt <= 6; ++attempt) windows.push_back(BackoffWindow(attempt));
  EXPECT_EQ(windows, (std::vector<SimTime>{Millis(8), Millis(16), Millis(32), Millis(64),
                                           Millis(64), Millis(64)}));
}

/// Sends `first` from node 0 and steps the engine in 1 ms slices until it
/// is on the air; returns with the frame mid-air (airtime is ~7 ms).
void RunUntilOnAir(Fixture* f, Packet first) {
  f->ctx(0).Unicast(1, std::move(first));
  while (f->engine.traffic().SentBy(0) == 0) f->engine.RunUntil(f->now() + Millis(1));
}

TEST(RadioTest, PowerCycleMidTransmissionDoesNotSwallowNextFrame) {
  // Regression for the stale-completion hazard: node 0 is killed while a
  // frame is on the air, revived, and queues a fresh frame before the old
  // transmission's completion event fires. A completion that ACK-processed
  // the *new* queue-front frame as if it were the finished transmission
  // would pop the new frame without ever transmitting it.
  Fixture f(ChainTopology(1.0, 1.0));
  f.Boot();

  RunUntilOnAir(&f, TestBeacon(0));
  f.engine.FaultSetAlive(0, false);
  f.engine.RunUntil(f.now() + Millis(1));
  f.engine.FaultSetAlive(0, true);
  Packet second = TestBeacon(0);
  second.hdr.origin = 9;  // Marks the post-revival frame.
  f.ctx(0).Unicast(1, second);
  f.engine.RunUntil(f.now() + Seconds(5));

  // The second frame must be genuinely transmitted (the first transmit was
  // the aborted frame's) and delivered exactly once.
  EXPECT_EQ(f.engine.traffic().SentBy(0), 2u);
  ASSERT_EQ(f.apps[1]->received.size(), 1u);
  EXPECT_EQ(f.apps[1]->received[0].hdr.origin, 9);
  EXPECT_EQ(f.apps[0]->send_ok, 1);
  EXPECT_EQ(f.apps[0]->send_fail, 0);
}

TEST(RadioTest, PowerCycleWithNoNewSendIsInert) {
  // Kill mid-air with nothing queued afterwards: the stale completion must
  // retire cleanly (no crash, no delivery, no send-done, no retransmit).
  Fixture f(ChainTopology(1.0, 1.0));
  f.Boot();
  RunUntilOnAir(&f, TestBeacon(0));
  f.engine.FaultSetAlive(0, false);
  f.engine.RunUntil(f.now() + Seconds(5));
  EXPECT_TRUE(f.apps[1]->received.empty());
  EXPECT_EQ(f.apps[0]->send_ok, 0);
  EXPECT_EQ(f.apps[0]->send_fail, 0);
  EXPECT_EQ(f.engine.traffic().SentBy(0), 1u);
}

TEST(RadioTest, DeterministicAcrossRuns) {
  auto run = [] {
    Fixture f(ChainTopology(0.6, 0.6), Options(123));
    f.Boot();
    for (int i = 0; i < 100; ++i) f.ctx(0).Unicast(1, TestBeacon(0));
    f.engine.RunUntil(Seconds(100));
    return std::make_pair(f.apps[1]->received.size(), f.apps[0]->send_ok);
  };
  auto a = run();
  auto b = run();
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace scoop::sim
