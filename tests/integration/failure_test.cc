// Failure-injection tests (§2.1: "nodes can still fail, move away, or be
// subject to radio interference"): the routing tree must heal, data must
// fall back per the §5.4 rules, and queries must degrade gracefully.
#include <gtest/gtest.h>

#include "core/query.h"
#include "core/scoop_base_agent.h"
#include "core/scoop_node_agent.h"
#include "metrics/telemetry.h"
#include "sim/sharded_engine.h"

namespace scoop::core {
namespace {

/// A 5-node line 0-1-2-3-4 with an extra detour 1-2' path through node 5:
///   0 -- 1 -- 2 -- 3 -- 4
///         \-- 5 --/
/// Killing node 2 leaves 3 and 4 reachable only via 5.
sim::Topology DetourTopology(double q = 0.9) {
  const int n = 6;
  std::vector<sim::Point> pos = {{0, 0}, {10, 0}, {20, 0}, {30, 0}, {40, 0}, {20, 10}};
  std::vector<std::vector<double>> d(n, std::vector<double>(n, 0.0));
  auto link = [&](int a, int b) {
    d[static_cast<size_t>(a)][static_cast<size_t>(b)] = q;
    d[static_cast<size_t>(b)][static_cast<size_t>(a)] = q;
  };
  link(0, 1);
  link(1, 2);
  link(2, 3);
  link(3, 4);
  link(1, 5);
  link(5, 3);
  return sim::Topology::FromMatrix(pos, d);
}

struct Fixture {
  explicit Fixture(uint64_t seed = 7, int query_reissue_max = 0)
      : engine(DetourTopology(), sim::ShardedEngineOptions{.seed = seed}) {
    const int n = engine.topology().num_nodes();
    for (int i = 0; i < n; ++i) {
      AgentConfig cfg;
      cfg.self = static_cast<NodeId>(i);
      cfg.base = 0;
      cfg.num_nodes = n;
      cfg.sampling_start = Seconds(30);
      cfg.sample_interval = Seconds(5);
      cfg.summary_interval = Seconds(20);
      cfg.remap_interval = Seconds(40);
      cfg.fault_query_reissue_max = query_reissue_max;
      cfg.telemetry = &telemetry;
      cfg.sample_fn = [](NodeId node, SimTime) { return Value{node * 10}; };
      if (i == 0) {
        auto app = std::make_unique<ScoopBaseAgent>(cfg);
        base = app.get();
        engine.SetApp(0, std::move(app));
      } else {
        auto app = std::make_unique<ScoopNodeAgent>(cfg);
        nodes.push_back(app.get());
        engine.SetApp(static_cast<NodeId>(i), std::move(app));
      }
    }
    engine.Start();
  }

  ScoopNodeAgent* node(NodeId id) { return nodes[static_cast<size_t>(id - 1)]; }

  metrics::Telemetry telemetry;
  sim::ShardedEngine engine;
  ScoopBaseAgent* base = nullptr;
  std::vector<ScoopNodeAgent*> nodes;
};

TEST(FailureTest, DeadRadioNeitherSendsNorReceives) {
  Fixture f;
  f.engine.RunUntil(Minutes(2));
  uint64_t produced_before = f.telemetry.readings_produced;
  (void)produced_before;
  f.engine.FaultSetAlive(4, false);
  EXPECT_FALSE(f.engine.IsAlive(4));
  size_t flash_before = f.node(4)->flash().size();
  f.engine.RunUntil(Minutes(4));
  // Node 4 keeps sampling (its MCU is alive) but nothing reaches or leaves
  // it over the radio; its own readings route nowhere and pile up locally
  // or die -- but its flash gains nothing from other nodes.
  EXPECT_GE(f.node(4)->flash().size(), flash_before);
  f.engine.FaultSetAlive(4, true);
  EXPECT_TRUE(f.engine.IsAlive(4));
}

TEST(FailureTest, TreeHealsAroundDeadRelay) {
  Fixture f;
  f.engine.RunUntil(Minutes(3));
  // Nodes 3 and 4 initially route via 2 or 5; force the common case.
  ASSERT_NE(f.node(3)->tree().parent(), kInvalidNodeId);
  ASSERT_NE(f.node(4)->tree().parent(), kInvalidNodeId);

  f.engine.FaultSetAlive(2, false);
  f.engine.RunUntil(Minutes(6));

  // Node 3 must now route via the detour (node 5), never via dead node 2.
  EXPECT_NE(f.node(3)->tree().parent(), kInvalidNodeId);
  EXPECT_EQ(f.node(3)->tree().parent(), 5);
  EXPECT_NE(f.node(4)->tree().parent(), kInvalidNodeId);
  EXPECT_EQ(f.node(4)->tree().parent(), 3);
}

TEST(FailureTest, SummariesKeepFlowingAfterHealing) {
  Fixture f;
  f.engine.RunUntil(Minutes(3));
  f.engine.FaultSetAlive(2, false);
  f.engine.RunUntil(Minutes(6));
  uint64_t received_before = f.telemetry.summaries_received_at_base;
  f.engine.RunUntil(Minutes(9));
  // The far side of the network still reports statistics via the detour.
  EXPECT_GT(f.telemetry.summaries_received_at_base, received_before + 3);
}

TEST(FailureTest, QueriesToDeadNodeTimeOutGracefully) {
  Fixture f;
  f.engine.RunUntil(Minutes(4));
  f.engine.FaultSetAlive(4, false);
  f.engine.RunUntil(Minutes(4) + Seconds(10));

  Query query;
  query.time_lo = 0;
  query.time_hi = f.engine.DriverNow();
  query.explicit_nodes = {3, 4};
  uint32_t id = 0;
  f.engine.ScheduleDriver(f.engine.DriverNow() + Seconds(1),
                          [&] { id = f.base->IssueQuery(query); });
  f.engine.RunUntil(f.engine.DriverNow() + Seconds(30));

  const QueryOutcome* outcome = f.base->outcome(id);
  ASSERT_NE(outcome, nullptr);
  EXPECT_TRUE(outcome->closed);
  EXPECT_EQ(outcome->targets, 2);
  EXPECT_EQ(outcome->responders, 1);  // Only node 3 answers.
  EXPECT_FALSE(outcome->complete);
}

TEST(FailureTest, QueryToDeadNodeIsReissuedOnceAndClosesOnce) {
  Fixture f(/*seed=*/7, /*query_reissue_max=*/1);
  f.engine.RunUntil(Minutes(4));
  f.engine.FaultSetAlive(4, false);
  f.engine.RunUntil(Minutes(4) + Seconds(10));

  std::vector<QueryOutcome> completed;
  f.base->on_query_complete = [&](const QueryOutcome& o) { completed.push_back(o); };
  Query query;
  query.time_lo = 0;
  query.time_hi = f.engine.DriverNow();
  query.explicit_nodes = {3, 4};
  uint32_t id = 0;
  SimTime issued_at = f.engine.DriverNow() + Seconds(1);
  f.engine.ScheduleDriver(issued_at, [&] { id = f.base->IssueQuery(query); });
  // Long enough for the timeout, the re-issue and its own timeout.
  f.engine.RunUntil(f.engine.DriverNow() + Seconds(60));

  EXPECT_EQ(f.telemetry.queries_reissued, 1u);
  ASSERT_EQ(completed.size(), 1u);
  EXPECT_EQ(completed[0].query_id, id);
  const QueryOutcome* outcome = f.base->outcome(id);
  ASSERT_NE(outcome, nullptr);
  EXPECT_EQ(outcome->query_id, id);
  EXPECT_TRUE(outcome->closed);
  EXPECT_EQ(outcome->targets, 2);
  EXPECT_EQ(outcome->responders, 1);  // Node 3 answers once, across both floods.
  EXPECT_FALSE(outcome->complete);
  // Closed by the re-issue's timeout, not the first one.
  EXPECT_EQ(outcome->closed_at, issued_at + 2 * AgentBase::kQueryTimeout);
  // The re-issue's wire id is not a query of its own.
  EXPECT_EQ(f.base->outcome(id + 1), nullptr);
}

TEST(FailureTest, RebootedNodeAnswersAQueryItHeardBeforeTheCrash) {
  // Which query ids a node has heard is volatile state: a node that heard
  // query q, crashed and rebooted must react to q when it hears it again.
  Fixture f;
  f.engine.RunUntil(Minutes(4));  // Tree formed.
  QueryPayload q;
  q.query_id = 1000;  // Not the base's: it drops the replies, relays carry them.
  q.targets = NodeSet(f.engine.topology().num_nodes());
  q.targets.Set(4);
  q.time_hi = f.engine.DriverNow();
  const Packet query = MakePacket(/*origin=*/0, /*origin_parent=*/0, q);
  // Node 3, node 4's only neighbour, floods q; returns the replies sent
  // network-wide within the next 10 s.
  auto replies_to_flood = [&] {
    uint64_t before = f.engine.traffic().ByType(PacketType::kReply).sent;
    f.engine.context(3).Broadcast(query);
    f.engine.RunUntil(f.engine.DriverNow() + Seconds(10));
    return f.engine.traffic().ByType(PacketType::kReply).sent - before;
  };

  EXPECT_GT(replies_to_flood(), 0u);  // First hearing: node 4 answers.
  EXPECT_EQ(replies_to_flood(), 0u);  // Same id again: ignored.

  f.engine.FaultSetAlive(4, false);
  f.engine.FaultCrash(4);
  f.engine.RunUntil(f.engine.DriverNow() + Seconds(5));
  f.engine.FaultSetAlive(4, true);
  f.engine.FaultReboot(4);
  f.engine.RunUntil(f.engine.DriverNow() + Minutes(2));
  ASSERT_NE(f.node(4)->tree().parent(), kInvalidNodeId);

  EXPECT_GT(replies_to_flood(), 0u);  // After the reboot q is news again.
}

TEST(FailureTest, DataForDeadOwnerFallsBackInstead) {
  // Kill a node after it became an owner: producers' data must not vanish
  // -- the §5.4 fallback stores it at the base (or en route).
  Fixture f;
  f.engine.RunUntil(Minutes(4));  // First index disseminated by now.
  f.engine.FaultSetAlive(2, false);
  uint64_t lost_before = f.telemetry.readings_lost;
  uint64_t stored_before = f.telemetry.readings_stored;
  f.engine.RunUntil(Minutes(8));
  uint64_t produced_delta =
      f.telemetry.readings_produced - stored_before - (f.telemetry.readings_lost - lost_before);
  (void)produced_delta;
  // Most post-failure readings still get stored somewhere.
  double stored_delta =
      static_cast<double>(f.telemetry.readings_stored - stored_before);
  EXPECT_GT(stored_delta, 0);
  // Losses stay bounded: the fallback path absorbs most of the damage.
  double lost_delta = static_cast<double>(f.telemetry.readings_lost - lost_before);
  EXPECT_LT(lost_delta, stored_delta);
}

TEST(FailureTest, RecoveredNodeRejoins) {
  Fixture f;
  f.engine.RunUntil(Minutes(3));
  f.engine.FaultSetAlive(2, false);
  f.engine.RunUntil(Minutes(6));
  f.engine.FaultSetAlive(2, true);
  f.engine.RunUntil(Minutes(10));
  // Node 2 has a route again and caught up with the newest index.
  EXPECT_NE(f.node(2)->tree().parent(), kInvalidNodeId);
  EXPECT_NE(f.node(2)->index_store().current(), nullptr);
}

}  // namespace
}  // namespace scoop::core
