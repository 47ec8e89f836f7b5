// Agent-level behaviour tests on small controlled networks: routing rules
// of §5.4, batching, summary flow, index dissemination, and query answer.
#include <gtest/gtest.h>

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
      : engine(std::move(topo), MakeOptions(seed)) {
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

  static sim::ShardedEngineOptions MakeOptions(uint64_t seed) {
    sim::ShardedEngineOptions o;
    o.seed = seed;
    o.boot_jitter = Seconds(1);
    return o;
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
    EXPECT_TRUE(node->tree().HasRoute());
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

TEST(ScoopAgentTest, SummaryHistoryAgesIntoBoundedDigest) {
  // An aggressive window forces aging during a short run: verbatim records
  // stay bounded to the window while aged epochs land in the digest.
  const SimTime kWindow = Minutes(2);
  ScoopFixture f(
      DenseTopology(),
      [](NodeId n, SimTime t) { return static_cast<Value>(n * 10 + t % 7); },
      Seconds(30), /*seed=*/11, [&](AgentConfig& cfg) {
        cfg.summary_history_window = kWindow;
        cfg.summary_history_epoch = Seconds(30);
      });
  f.engine.RunUntil(Minutes(10));

  ASSERT_FALSE(f.base->summary_history().empty());
  ASSERT_FALSE(f.base->summary_digests().empty());
  for (const auto& [node, records] : f.base->summary_history()) {
    // Aging runs on receipt, so the oldest surviving record is at most one
    // summary interval older than the window.
    if (!records.empty()) {
      EXPECT_GE(records.front().received_at,
                f.engine.DriverNow() - kWindow - Seconds(20) - Seconds(1))
          << "node " << node;
    }
  }
  for (const auto& [node, digest] : f.base->summary_digests()) {
    for (size_t i = 0; i < digest.size(); ++i) {
      EXPECT_GE(digest[i].records, 1u);
      EXPECT_LE(digest[i].vmin, digest[i].vmax);
      if (i > 0) {
        EXPECT_LT(digest[i - 1].epoch, digest[i].epoch);
      }
    }
  }
}

TEST(ScoopAgentTest, HistoricalAnswersInsideWindowUnchangedByAging) {
  // The same seed with and without aging: a historical aggregate whose time
  // range lies inside the window must answer identically, and a full-range
  // aggregate still sees the aged extremes through the digest.
  auto sample = [](NodeId n, SimTime t) {
    return static_cast<Value>(n * 10 + (t < Minutes(2) ? 5 : 0));
  };
  auto run_one = [&](SimTime window) {
    auto f = std::make_unique<ScoopFixture>(
        DenseTopology(), sample, Seconds(30), /*seed=*/11, [&](AgentConfig& cfg) {
          cfg.summary_history_window = window;
          cfg.summary_history_epoch = Seconds(30);
        });
    f->engine.RunUntil(Minutes(10));
    return f;
  };
  auto keep_all = run_one(/*window=*/0);  // The paper's never-discard mode.
  auto aged = run_one(Minutes(2));
  EXPECT_TRUE(keep_all->base->summary_digests().empty());
  EXPECT_FALSE(aged->base->summary_digests().empty());

  auto answer = [](ScoopFixture& f, SimTime lo, SimTime hi) {
    Query query;
    query.kind = Query::Kind::kMax;
    query.time_lo = lo;
    query.time_hi = hi;
    uint32_t id = 0;
    f.engine.ScheduleDriver(f.engine.DriverNow() + Seconds(1),
                            [&] { id = f.base->IssueQuery(query); });
    f.engine.RunUntil(f.engine.DriverNow() + Seconds(5));
    const QueryOutcome* outcome = f.base->outcome(id);
    EXPECT_NE(outcome, nullptr);
    if (outcome == nullptr || !outcome->aggregate.has_value()) return Value{-1};
    EXPECT_TRUE(outcome->answered_from_summaries);
    return *outcome->aggregate;
  };

  // In-window historical range: verbatim records answer on both sides.
  SimTime now = aged->engine.DriverNow();
  Value in_window_aged = answer(*aged, now - Minutes(1), now);
  Value in_window_all = answer(*keep_all, now - Minutes(1), now);
  EXPECT_EQ(in_window_aged, in_window_all);
  EXPECT_EQ(in_window_aged, 30);  // Node 3's steady value.

  // Full-range: the early +5 spike survives only via the digest extremes.
  Value full_aged = answer(*aged, 0, now);
  Value full_all = answer(*keep_all, 0, now);
  EXPECT_EQ(full_aged, full_all);
  EXPECT_EQ(full_aged, 35);
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
