// Agent-level behaviour tests on small controlled networks: routing rules
// of §5.4, batching, summary flow, index dissemination, and query answer.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>

#include "core/agent_base.h"
#include "core/policy_agents.h"
#include "core/scoop_base_agent.h"
#include "core/scoop_node_agent.h"
#include "metrics/message_stats.h"
#include "metrics/telemetry.h"
#include "sim/sharded_engine.h"

namespace scoop::core {
namespace {

/// A fully-connected 4-node network with strong links: base 0 and nodes
/// 1..3. Strong links keep tests deterministic-ish and fast.
sim::Topology DenseTopology(int n = 4, double q = 0.95) {
  std::vector<sim::Point> pos;
  std::vector<std::vector<double>> d(static_cast<size_t>(n),
                                     std::vector<double>(static_cast<size_t>(n), 0.0));
  for (int i = 0; i < n; ++i) {
    pos.push_back({static_cast<double>(i), 0});
    for (int j = 0; j < n; ++j) {
      if (i != j) d[static_cast<size_t>(i)][static_cast<size_t>(j)] = q;
    }
  }
  return sim::Topology::FromMatrix(pos, d);
}

/// A 4-node line 0-1-2-3 (multi-hop behaviours).
sim::Topology LineTopology(double q = 0.95) {
  std::vector<sim::Point> pos = {{0, 0}, {10, 0}, {20, 0}, {30, 0}};
  std::vector<std::vector<double>> d(4, std::vector<double>(4, 0.0));
  for (int i = 0; i + 1 < 4; ++i) {
    d[static_cast<size_t>(i)][static_cast<size_t>(i + 1)] = q;
    d[static_cast<size_t>(i + 1)][static_cast<size_t>(i)] = q;
  }
  return sim::Topology::FromMatrix(pos, d);
}

struct ScoopFixture {
  ScoopFixture(sim::Topology topo, std::function<Value(NodeId, SimTime)> sample_fn,
               SimTime sampling_start = Seconds(30), uint64_t seed = 11,
               std::function<void(AgentConfig&)> tweak = nullptr)
      : engine(std::move(topo), sim::ShardedEngineOptions{.seed = seed}) {
    int n = engine.topology().num_nodes();
    for (int i = 0; i < n; ++i) {
      AgentConfig cfg;
      cfg.self = static_cast<NodeId>(i);
      cfg.base = 0;
      cfg.num_nodes = n;
      cfg.sampling_start = sampling_start;
      cfg.sample_interval = Seconds(5);
      cfg.summary_interval = Seconds(20);
      cfg.remap_interval = Seconds(40);
      cfg.telemetry = &telemetry;
      cfg.sample_fn = sample_fn;
      if (tweak) tweak(cfg);
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

  metrics::Telemetry telemetry;
  sim::ShardedEngine engine;
  ScoopBaseAgent* base = nullptr;
  std::vector<ScoopNodeAgent*> nodes;
};

TEST(ScoopAgentTest, TreeFormsAndSummariesReachBase) {
  ScoopFixture f(LineTopology(), [](NodeId n, SimTime) { return Value{n * 10}; });
  f.engine.RunUntil(Minutes(3));
  for (auto* node : f.nodes) {
    EXPECT_NE(node->tree().parent(), kInvalidNodeId);
  }
  EXPECT_EQ(f.base->latest_summaries().size(), 3u);
  EXPECT_GT(f.telemetry.summaries_received_at_base, 0u);
}

TEST(ScoopAgentTest, IndexDisseminatesToAllNodes) {
  ScoopFixture f(LineTopology(), [](NodeId n, SimTime) { return Value{n * 10}; });
  f.engine.RunUntil(Minutes(4));
  EXPECT_GE(f.telemetry.indices_disseminated, 1u);
  for (auto* node : f.nodes) {
    ASSERT_NE(node->index_store().current(), nullptr);
    EXPECT_EQ(node->index_store().current_id(), f.base->index_history().back().index.id());
  }
}

TEST(ScoopAgentTest, UniqueValuesStoredAtProducers) {
  // With per-node unique values, the optimizer maps each node's value to
  // the node itself, so after the first index data stays local (rule 2).
  ScoopFixture f(LineTopology(), [](NodeId n, SimTime) { return Value{n * 10}; });
  f.engine.RunUntil(Minutes(6));
  const StorageIndex& index = f.base->index_history().back().index;
  for (auto* node : f.nodes) {
    Value v = node->config().self * 10;
    EXPECT_EQ(index.Lookup(v).value(), node->config().self) << "value " << v;
    // The producer's flash should hold its own recent readings.
    EXPECT_GT(node->flash().size(), 0u);
  }
  EXPECT_GT(f.telemetry.stored_at_owner, 0u);
}

TEST(ScoopAgentTest, SharedValueRoutedToSingleOwner) {
  // All nodes produce 42: one owner ends up holding (almost) everything
  // that was routed after the index appeared.
  ScoopFixture f(DenseTopology(), [](NodeId, SimTime) { return Value{42}; });
  f.engine.RunUntil(Minutes(6));
  const StorageIndex& index = f.base->index_history().back().index;
  NodeId owner = index.Lookup(42).value();
  EXPECT_NE(owner, kInvalidNodeId);
  // Owner-hit rate should be high on a dense, strong-link engine.
  EXPECT_GT(f.telemetry.OwnerHitRate(), 0.8);
}

TEST(ScoopAgentTest, BatchingBundlesReadings) {
  // All nodes produce the same value -> same owner -> consecutive readings
  // batch up to max_batch (5).
  ScoopFixture f(DenseTopology(), [](NodeId, SimTime) { return Value{42}; });
  f.engine.RunUntil(Minutes(8));
  ASSERT_GT(f.telemetry.data_packets_originated, 0u);
  double batch = static_cast<double>(f.telemetry.readings_sent_remote) /
                 static_cast<double>(f.telemetry.data_packets_originated);
  EXPECT_GT(batch, 2.5);  // Well above unbatched.
  EXPECT_LE(batch, 5.01);
}

TEST(ScoopAgentTest, QueryReturnsMatchingTuples) {
  ScoopFixture f(DenseTopology(), [](NodeId n, SimTime) { return Value{n * 10}; });
  f.engine.RunUntil(Minutes(6));

  Query query;
  query.time_lo = 0;
  query.time_hi = f.engine.DriverNow();
  query.ranges.push_back(ValueRange{10, 10});  // Node 1's value.
  uint32_t id = 0;
  f.engine.ScheduleDriver(f.engine.DriverNow() + Seconds(1),
                          [&] { id = f.base->IssueQuery(query); });
  f.engine.RunUntil(f.engine.DriverNow() + Seconds(30));

  const QueryOutcome* outcome = f.base->outcome(id);
  ASSERT_NE(outcome, nullptr);
  EXPECT_TRUE(outcome->closed);
  ASSERT_GT(outcome->tuples.size(), 0u);
  for (const ReplyTuple& t : outcome->tuples) {
    EXPECT_EQ(t.value, 10);
    EXPECT_EQ(t.producer, 1);
  }
}

TEST(ScoopAgentTest, NodeListQueryContactsExactlyThoseNodes) {
  ScoopFixture f(DenseTopology(), [](NodeId n, SimTime) { return Value{n * 10}; });
  f.engine.RunUntil(Minutes(6));
  Query query;
  query.time_lo = 0;
  query.time_hi = f.engine.DriverNow();
  query.explicit_nodes = {2};
  uint32_t id = 0;
  f.engine.ScheduleDriver(f.engine.DriverNow() + Seconds(1),
                          [&] { id = f.base->IssueQuery(query); });
  f.engine.RunUntil(f.engine.DriverNow() + Seconds(30));
  const QueryOutcome* outcome = f.base->outcome(id);
  ASSERT_NE(outcome, nullptr);
  EXPECT_EQ(outcome->targets, 1);
  EXPECT_EQ(outcome->responders, 1);
}

TEST(ScoopAgentTest, MaxQueryAnsweredFromSummaries) {
  ScoopFixture f(DenseTopology(), [](NodeId n, SimTime) { return Value{n * 10}; });
  f.engine.RunUntil(Minutes(6));
  Query query;
  query.kind = Query::Kind::kMax;
  query.time_lo = 0;
  query.time_hi = f.engine.DriverNow();
  uint32_t id = 0;
  uint64_t data_msgs_before = f.telemetry.queries_issued;
  (void)data_msgs_before;
  f.engine.ScheduleDriver(f.engine.DriverNow() + Seconds(1),
                          [&] { id = f.base->IssueQuery(query); });
  f.engine.RunUntil(f.engine.DriverNow() + Seconds(5));
  const QueryOutcome* outcome = f.base->outcome(id);
  ASSERT_NE(outcome, nullptr);
  EXPECT_TRUE(outcome->answered_from_summaries);
  ASSERT_TRUE(outcome->aggregate.has_value());
  EXPECT_EQ(*outcome->aggregate, 30);  // Node 3 produces the max (30).
  EXPECT_GT(f.telemetry.queries_answered_from_summaries, 0u);
}

TEST(ScoopAgentTest, QueryBeforeDataPeriodReturnsNothing) {
  ScoopFixture f(DenseTopology(), [](NodeId n, SimTime) { return Value{n * 10}; });
  f.engine.RunUntil(Minutes(6));
  Query query;
  query.time_lo = 0;
  query.time_hi = Seconds(10);  // Before sampling_start (30s).
  query.ranges.push_back(ValueRange{0, 100});
  uint32_t id = 0;
  f.engine.ScheduleDriver(f.engine.DriverNow() + Seconds(1),
                          [&] { id = f.base->IssueQuery(query); });
  f.engine.RunUntil(f.engine.DriverNow() + Seconds(20));
  const QueryOutcome* outcome = f.base->outcome(id);
  ASSERT_NE(outcome, nullptr);
  EXPECT_EQ(outcome->targets, 0);
  EXPECT_TRUE(outcome->tuples.empty());
}

TEST(ScoopAgentTest, SuppressionSkipsUnchangedIndices) {
  // Stationary data: after the first dissemination, subsequent remaps
  // should be suppressed as near-identical (§5.3, the EQUAL observation).
  ScoopFixture f(DenseTopology(), [](NodeId, SimTime) { return Value{42}; });
  f.engine.RunUntil(Minutes(10));
  EXPECT_GE(f.telemetry.indices_built, 3u);
  EXPECT_GT(f.telemetry.indices_suppressed, 0u);
  EXPECT_LT(f.telemetry.indices_disseminated, f.telemetry.indices_built);
}

TEST(ScoopAgentTest, BaseKeepsEverySummaryForAggregates) {
  // §5.5: the base never discards summaries, so an aggregate over the first
  // minutes of a long run answers from exactly the summaries covering that
  // range, however old they are.
  // Node n reads n * 10, +5 over the first 3 minutes, minus a sawtooth that
  // drops one per minute and resets every 7 minutes.
  auto sample = [](NodeId n, SimTime t) {
    return static_cast<Value>(n * 10 + (t < Minutes(3) ? 5 : 0) -
                              (t % Minutes(7)) / Minutes(1));
  };
  ScoopFixture f(DenseTopology(), sample);
  f.engine.RunUntil(Minutes(25));

  auto answer = [&](Query::Kind kind, SimTime lo, SimTime hi) {
    Query query;
    query.kind = kind;
    query.time_lo = lo;
    query.time_hi = hi;
    uint32_t id = 0;
    f.engine.ScheduleDriver(f.engine.DriverNow() + Seconds(1),
                            [&] { id = f.base->IssueQuery(query); });
    f.engine.RunUntil(f.engine.DriverNow() + Seconds(5));
    const QueryOutcome* outcome = f.base->outcome(id);
    if (outcome == nullptr || !outcome->aggregate.has_value()) {
      ADD_FAILURE() << "no aggregate answer for [" << lo << ", " << hi << "]";
      return Value{-1};
    }
    EXPECT_TRUE(outcome->answered_from_summaries);
    return *outcome->aggregate;
  };
  // The extreme over the summaries whose covered span overlaps [lo, hi].
  auto expected = [&](Query::Kind kind, SimTime lo, SimTime hi) {
    std::optional<Value> best;
    for (const SummaryExtent& e : f.base->summary_extents()) {
      if (e.cover_hi < lo || e.cover_lo > hi) continue;
      Value v = kind == Query::Kind::kMax ? e.vmax : e.vmin;
      best = !best ? v : kind == Query::Kind::kMax ? std::max(*best, v) : std::min(*best, v);
    }
    return best.value_or(Value{-1});
  };

  const SimTime lo = Minutes(1);
  const SimTime hi = Minutes(2);
  Value max_early = answer(Query::Kind::kMax, lo, hi);
  Value min_early = answer(Query::Kind::kMin, lo, hi);
  EXPECT_EQ(max_early, expected(Query::Kind::kMax, lo, hi));
  EXPECT_EQ(min_early, expected(Query::Kind::kMin, lo, hi));
  EXPECT_EQ(max_early, 35);  // Node 3 during the early +5 step.
  EXPECT_LT(min_early, max_early);

  SimTime now = f.engine.DriverNow();
  Value recent = answer(Query::Kind::kMax, now - Minutes(1), now);
  EXPECT_EQ(recent, expected(Query::Kind::kMax, now - Minutes(1), now));
  EXPECT_LE(recent, 30);  // The early step is long gone.
}

TEST(ScoopAgentTest, RemapNowWithoutStatsIsNoop) {
  ScoopFixture f(DenseTopology(), [](NodeId, SimTime) { return Value{1}; },
                 /*sampling_start=*/Minutes(60));
  f.engine.RunUntil(Seconds(20));
  EXPECT_FALSE(f.base->RemapNow());
  EXPECT_TRUE(f.base->index_history().empty());
}

}  // namespace
}  // namespace scoop::core
