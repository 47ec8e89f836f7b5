// Behaviour tests for the LOCAL / BASE / HASH baseline agents.
#include "core/policy_agents.h"

#include <gtest/gtest.h>

#include "metrics/telemetry.h"
#include "sim/sharded_engine.h"

namespace scoop::core {
namespace {

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

AgentConfig MakeConfig(NodeId self, int n, metrics::Telemetry* telemetry) {
  AgentConfig cfg;
  cfg.self = self;
  cfg.base = 0;
  cfg.num_nodes = n;
  cfg.sampling_start = Seconds(20);
  cfg.sample_interval = Seconds(5);
  cfg.telemetry = telemetry;
  cfg.sample_fn = [](NodeId node, SimTime) { return Value{node * 10}; };
  return cfg;
}

TEST(LocalAgentsTest, NodesStoreLocallyAndFloodedQueriesFindData) {
  metrics::Telemetry telemetry;
  sim::ShardedEngineOptions opts;
  opts.seed = 3;
  sim::ShardedEngine net(DenseTopology(), opts);

  LocalBaseAgent* base = nullptr;
  {
    auto app = std::make_unique<LocalBaseAgent>(MakeConfig(0, 4, &telemetry));
    base = app.get();
    net.SetApp(0, std::move(app));
  }
  for (NodeId i = 1; i < 4; ++i) {
    net.SetApp(i, std::make_unique<LocalNodeAgent>(MakeConfig(i, 4, &telemetry)));
  }
  net.Start();
  net.RunUntil(Minutes(2));

  // No data/summary/mapping traffic at all.
  EXPECT_EQ(net.traffic().ByType(PacketType::kData).sent, 0u);
  EXPECT_EQ(net.traffic().ByType(PacketType::kSummary).sent, 0u);
  EXPECT_EQ(net.traffic().ByType(PacketType::kMapping).sent, 0u);
  EXPECT_GT(telemetry.readings_produced, 0u);
  EXPECT_EQ(telemetry.readings_stored, telemetry.readings_produced);

  Query query;
  query.time_lo = 0;
  query.time_hi = net.DriverNow();
  query.ranges.push_back(ValueRange{20, 20});
  uint32_t id = 0;
  net.ScheduleDriver(net.DriverNow() + Seconds(1), [&] { id = base->IssueQuery(query); });
  net.RunUntil(net.DriverNow() + Seconds(30));

  const QueryOutcome* outcome = base->outcome(id);
  ASSERT_NE(outcome, nullptr);
  EXPECT_EQ(outcome->targets, 3);  // LOCAL always asks everyone.
  ASSERT_FALSE(outcome->tuples.empty());
  for (const ReplyTuple& t : outcome->tuples) {
    EXPECT_EQ(t.value, 20);
    EXPECT_EQ(t.producer, 2);
  }
  // Nodes without matches still reply (§5.5).
  EXPECT_EQ(outcome->responders, 3);
}

TEST(BasePolicyAgentsTest, AllDataArrivesAtBaseAndQueriesAreFree) {
  metrics::Telemetry telemetry;
  sim::ShardedEngineOptions opts;
  opts.seed = 4;
  sim::ShardedEngine net(DenseTopology(), opts);

  BasePolicyBaseAgent* base = nullptr;
  {
    auto app = std::make_unique<BasePolicyBaseAgent>(MakeConfig(0, 4, &telemetry));
    base = app.get();
    net.SetApp(0, std::move(app));
  }
  for (NodeId i = 1; i < 4; ++i) {
    net.SetApp(i, std::make_unique<BasePolicyNodeAgent>(MakeConfig(i, 4, &telemetry)));
  }
  net.Start();
  net.RunUntil(Minutes(3));

  EXPECT_GT(net.traffic().ByType(PacketType::kData).sent, 0u);
  EXPECT_GT(base->flash().size(), 0u);
  // Nearly everything produced lands in the base's store (dense strong
  // links; a reading or two may be in flight).
  EXPECT_GT(static_cast<double>(base->flash().size()),
            0.9 * static_cast<double>(telemetry.readings_produced));

  Query query;
  query.time_lo = 0;
  query.time_hi = net.DriverNow();
  query.ranges.push_back(ValueRange{10, 30});
  uint32_t id = 0;
  net.ScheduleDriver(net.DriverNow() + Seconds(1), [&] { id = base->IssueQuery(query); });
  net.RunUntil(net.DriverNow() + Seconds(10));
  const QueryOutcome* outcome = base->outcome(id);
  ASSERT_NE(outcome, nullptr);
  EXPECT_TRUE(outcome->complete);
  EXPECT_FALSE(outcome->tuples.empty());
  // Queries cost zero messages (beacons aside).
  EXPECT_EQ(net.traffic().ByType(PacketType::kQuery).sent, 0u);
  EXPECT_EQ(net.traffic().ByType(PacketType::kReply).sent, 0u);
}

TEST(BasePolicyAgentsTest, NodeListQueryFiltersProducers) {
  metrics::Telemetry telemetry;
  sim::ShardedEngineOptions opts;
  opts.seed = 5;
  sim::ShardedEngine net(DenseTopology(), opts);
  BasePolicyBaseAgent* base = nullptr;
  {
    auto app = std::make_unique<BasePolicyBaseAgent>(MakeConfig(0, 4, &telemetry));
    base = app.get();
    net.SetApp(0, std::move(app));
  }
  for (NodeId i = 1; i < 4; ++i) {
    net.SetApp(i, std::make_unique<BasePolicyNodeAgent>(MakeConfig(i, 4, &telemetry)));
  }
  net.Start();
  net.RunUntil(Minutes(3));

  Query query;
  query.time_lo = 0;
  query.time_hi = net.DriverNow();
  query.explicit_nodes = {2};
  uint32_t id = 0;
  net.ScheduleDriver(net.DriverNow() + Seconds(1), [&] { id = base->IssueQuery(query); });
  net.RunUntil(net.DriverNow() + Seconds(5));
  const QueryOutcome* outcome = base->outcome(id);
  ASSERT_NE(outcome, nullptr);
  ASSERT_FALSE(outcome->tuples.empty());
  for (const ReplyTuple& t : outcome->tuples) {
    EXPECT_EQ(t.producer, 2);
  }
}

TEST(HashAgentsTest, DataRoutedToHashOwnerAndQueriesTargetIt) {
  metrics::Telemetry telemetry;
  sim::ShardedEngineOptions opts;
  opts.seed = 6;
  sim::ShardedEngine net(DenseTopology(), opts);
  HashBaseAgent* base = nullptr;
  {
    AgentConfig cfg = MakeConfig(0, 4, &telemetry);
    cfg.hash_domain = ValueRange{0, 100};
    auto app = std::make_unique<HashBaseAgent>(cfg);
    base = app.get();
    net.SetApp(0, std::move(app));
  }
  std::vector<HashNodeAgent*> nodes;
  for (NodeId i = 1; i < 4; ++i) {
    AgentConfig cfg = MakeConfig(i, 4, &telemetry);
    cfg.hash_domain = ValueRange{0, 100};
    auto app = std::make_unique<HashNodeAgent>(cfg);
    nodes.push_back(app.get());
    net.SetApp(i, std::move(app));
  }
  net.Start();
  net.RunUntil(Minutes(3));

  // Node 2 produces value 20 -> stored at HashOwner(20, 4).
  NodeId owner = HashOwner(20, 4);
  Query query;
  query.time_lo = 0;
  query.time_hi = net.DriverNow();
  query.ranges.push_back(ValueRange{20, 20});
  uint32_t id = 0;
  net.ScheduleDriver(net.DriverNow() + Seconds(1), [&] { id = base->IssueQuery(query); });
  net.RunUntil(net.DriverNow() + Seconds(30));
  const QueryOutcome* outcome = base->outcome(id);
  ASSERT_NE(outcome, nullptr);
  if (owner == 0) {
    EXPECT_EQ(outcome->targets, 0);  // Base holds it locally.
  } else {
    EXPECT_EQ(outcome->targets, 1);
  }
  ASSERT_FALSE(outcome->tuples.empty());
  for (const ReplyTuple& t : outcome->tuples) {
    EXPECT_EQ(t.value, 20);
  }
}

}  // namespace
}  // namespace scoop::core
