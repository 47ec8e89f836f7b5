// Tests of the Figure 2 optimizer, including the four design properties of
// §4 (P1-P4) as behavioural checks and a brute-force cross-validation.
#include "core/index_builder.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "storage/histogram.h"

namespace scoop::core {
namespace {

/// A 5-node line: base(0) - 1 - 2 - 3 - 4, all links quality `q`.
XmitsEstimator LineTopology(int n = 5, double q = 0.8) {
  XmitsEstimator x(n);
  for (int i = 0; i + 1 < n; ++i) {
    x.AddLink(static_cast<NodeId>(i), static_cast<NodeId>(i + 1), q);
    x.AddLink(static_cast<NodeId>(i + 1), static_cast<NodeId>(i), q);
  }
  x.Build();
  return x;
}

/// Producer stats with a histogram concentrated on [lo, hi].
ProducerStats Producer(NodeId id, Value lo, Value hi, double rate) {
  std::vector<Value> readings;
  for (Value v = lo; v <= hi; ++v) {
    for (int k = 0; k < 3; ++k) readings.push_back(v);
  }
  ProducerStats p;
  p.id = id;
  p.histogram = storage::ValueHistogram::Build(readings, 10);
  p.rate = rate;
  return p;
}

BuildInputs MakeInputs(const XmitsEstimator* xmits, std::vector<ProducerStats> producers,
                       const QueryStats* queries, Value domain_lo, Value domain_hi) {
  BuildInputs inputs;
  inputs.domain_lo = domain_lo;
  inputs.domain_hi = domain_hi;
  inputs.producers = std::move(producers);
  inputs.xmits = xmits;
  inputs.query_stats = queries;
  inputs.base = 0;
  inputs.now = Minutes(20);
  for (int i = 0; i < xmits->num_nodes(); ++i) {
    inputs.candidates.push_back(static_cast<NodeId>(i));
  }
  return inputs;
}

TEST(IndexBuilderTest, P3SoleProducerOwnsItsValues) {
  // P3: data should be stored closest to where it is produced -- with no
  // queries, the sole producer of a value owns it.
  XmitsEstimator xmits = LineTopology();
  BuildInputs inputs =
      MakeInputs(&xmits, {Producer(4, 10, 19, 1.0 / 15)}, nullptr, 10, 19);
  BuildResult result = IndexBuilder::Build(inputs, {}, 1);
  for (Value v = 10; v <= 19; ++v) {
    EXPECT_EQ(result.index.Lookup(v).value(), 4) << "value " << v;
  }
}

TEST(IndexBuilderTest, P1HigherDataRatePullsOwnerTowardProducer) {
  // P1: crank the far node's data rate with a fixed query workload; the
  // owner must move from near-base toward the producer.
  XmitsEstimator xmits = LineTopology();
  QueryStats queries;
  for (int i = 0; i < 60; ++i) {
    queries.RecordQuery({ValueRange{10, 19}}, Seconds(10 + i));
  }
  auto owner_at_rate = [&](double rate) {
    BuildInputs inputs =
        MakeInputs(&xmits, {Producer(4, 10, 19, rate)}, &queries, 10, 19);
    inputs.now = Seconds(75);  // Keep the queries inside the stats window.
    BuildResult result = IndexBuilder::Build(inputs, {}, 1);
    return result.index.Lookup(15).value();
  };
  NodeId slow_owner = owner_at_rate(0.001);
  NodeId fast_owner = owner_at_rate(100.0);
  // Distance from producer (node 4) shrinks as the data rate grows.
  EXPECT_GT(xmits.Xmits(4, slow_owner), xmits.Xmits(4, fast_owner));
  EXPECT_EQ(fast_owner, 4);
  EXPECT_EQ(slow_owner, 0);  // Query cost dominates: store at the base.
}

TEST(IndexBuilderTest, P2HigherQueryRatePullsOwnerTowardBase) {
  XmitsEstimator xmits = LineTopology();
  auto owner_at_queries = [&](int num_queries) {
    QueryStats queries;
    for (int i = 0; i < num_queries; ++i) {
      queries.RecordQuery({ValueRange{10, 19}}, Seconds(1) + i * Millis(100));
    }
    BuildInputs inputs =
        MakeInputs(&xmits, {Producer(4, 10, 19, 1.0 / 15)}, &queries, 10, 19);
    inputs.now = Seconds(60);
    BuildResult result = IndexBuilder::Build(inputs, {}, 1);
    return result.index.Lookup(15).value();
  };
  NodeId rare_owner = owner_at_queries(0);   // No queries: stay at producer.
  NodeId hot_owner = owner_at_queries(500);  // Hot queries: move to base.
  EXPECT_EQ(rare_owner, 4);
  EXPECT_EQ(hot_owner, 0);
  EXPECT_GT(xmits.Xmits(0, rare_owner), xmits.Xmits(0, hot_owner));
}

TEST(IndexBuilderTest, P3OwnerLeansTowardLikelierProducer) {
  // Nodes 1 and 4 both produce value 15, but node 4 produces it far more
  // often; the owner must sit closer to node 4.
  XmitsEstimator xmits = LineTopology();
  std::vector<ProducerStats> producers = {Producer(1, 10, 19, 0.01),
                                          Producer(4, 10, 19, 1.0)};
  BuildInputs inputs = MakeInputs(&xmits, std::move(producers), nullptr, 10, 19);
  BuildResult result = IndexBuilder::Build(inputs, {}, 1);
  NodeId owner = result.index.Lookup(15).value();
  EXPECT_LE(xmits.Xmits(4, owner), xmits.Xmits(1, owner));
}

TEST(IndexBuilderTest, P4AvoidsLossyLinks) {
  // Node 2 is reachable from producer 1 only over a terrible link, while
  // node 3 is reachable over good links. With equal hop counts the
  // optimizer must place data on the node with cheap expected
  // transmissions, not the lossy one.
  XmitsEstimator x(4);
  // 0 (base) -- 1 (producer): good.
  x.AddLink(1, 0, 0.8);
  x.AddLink(0, 1, 0.8);
  // 1 -- 2: terrible link.
  x.AddLink(1, 2, 0.15);
  x.AddLink(2, 1, 0.15);
  // 1 -- 3: good link.
  x.AddLink(1, 3, 0.8);
  x.AddLink(3, 1, 0.8);
  // Base can reach both 2 and 3 equally for queries.
  x.AddLink(0, 2, 0.5);
  x.AddLink(2, 0, 0.5);
  x.AddLink(0, 3, 0.5);
  x.AddLink(3, 0, 0.5);
  x.Build();

  // Restrict candidates to {2, 3}: the owner must be 3 (good link).
  BuildInputs inputs = MakeInputs(&x, {Producer(1, 0, 9, 1.0)}, nullptr, 0, 9);
  inputs.candidates = {2, 3};
  BuildResult result = IndexBuilder::Build(inputs, {}, 1);
  for (Value v = 0; v <= 9; ++v) {
    EXPECT_EQ(result.index.Lookup(v).value(), 3);
  }
}

TEST(IndexBuilderTest, MatchesBruteForceOnRandomInstances) {
  // Cross-validate the optimizer against a literal transcription of
  // Figure 2 on small random instances.
  Rng rng(1234);
  for (int trial = 0; trial < 20; ++trial) {
    const int n = 6;
    XmitsEstimator x(n);
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        if (i != j && rng.Bernoulli(0.6)) {
          x.AddLink(static_cast<NodeId>(i), static_cast<NodeId>(j),
                    0.2 + 0.6 * rng.UniformDouble());
        }
      }
    }
    x.Build();

    std::vector<ProducerStats> producers;
    for (int i = 1; i < n; ++i) {
      Value lo = static_cast<Value>(rng.UniformInt(0, 10));
      producers.push_back(Producer(static_cast<NodeId>(i), lo,
                                   lo + static_cast<Value>(rng.UniformInt(0, 8)),
                                   0.05 + rng.UniformDouble()));
    }
    QueryStats queries;
    for (int q = 0; q < 10; ++q) {
      Value lo = static_cast<Value>(rng.UniformInt(0, 15));
      queries.RecordQuery({ValueRange{lo, lo + 2}}, Seconds(q));
    }

    BuildInputs inputs = MakeInputs(&x, producers, &queries, 0, 19);
    inputs.now = Seconds(10);
    BuildResult result = IndexBuilder::Build(inputs, {}, 1);

    // Brute force: Figure 2 verbatim.
    double qrate = queries.QueryRate(inputs.now);
    for (Value v = 0; v <= 19; ++v) {
      double best_cost = std::numeric_limits<double>::infinity();
      NodeId best_owner = kInvalidNodeId;
      for (int o = 0; o < n; ++o) {
        double cost = 0;
        for (const ProducerStats& p : producers) {
          cost += p.histogram.ProbabilityOf(v) * p.rate *
                  x.Xmits(p.id, static_cast<NodeId>(o));
        }
        cost += queries.ProbQueries(v, inputs.now) * qrate *
                x.RoundTrip(0, static_cast<NodeId>(o));
        if (cost < best_cost) {
          best_cost = cost;
          best_owner = static_cast<NodeId>(o);
        }
      }
      // Allow cost ties (different owner, same cost).
      NodeId chosen = result.index.Lookup(v).value();
      double chosen_cost = 0;
      for (const ProducerStats& p : producers) {
        chosen_cost += p.histogram.ProbabilityOf(v) * p.rate * x.Xmits(p.id, chosen);
      }
      chosen_cost += queries.ProbQueries(v, inputs.now) * qrate * x.RoundTrip(0, chosen);
      EXPECT_NEAR(chosen_cost, best_cost, 1e-9)
          << "trial " << trial << " value " << v << " chose " << chosen << " vs "
          << best_owner;
    }
  }
}

TEST(IndexBuilderTest, ExpectedCostMatchesEvaluateIndex) {
  XmitsEstimator xmits = LineTopology();
  QueryStats queries;
  queries.RecordQuery({ValueRange{10, 14}}, Seconds(1));
  BuildInputs inputs = MakeInputs(
      &xmits, {Producer(2, 10, 19, 0.5), Producer(4, 12, 16, 0.2)}, &queries, 10, 19);
  inputs.now = Seconds(30);
  BuildResult result = IndexBuilder::Build(inputs, {}, 1);
  EXPECT_NEAR(result.expected_cost, IndexBuilder::EvaluateIndex(inputs, result.index),
              1e-9);
}

TEST(IndexBuilderTest, StoreLocalFallbackUsedWhenCheaper) {
  // Near-zero query rate: store-local costs ~nothing while any remote
  // placement pays data transmission.
  XmitsEstimator xmits = LineTopology();
  // Two producers with identical value distributions far apart: any single
  // owner forces one of them to transmit.
  std::vector<ProducerStats> producers = {Producer(1, 10, 19, 1.0),
                                          Producer(4, 10, 19, 1.0)};
  BuildInputs inputs = MakeInputs(&xmits, std::move(producers), nullptr, 10, 19);
  IndexBuilderOptions options;
  options.consider_store_local = true;
  BuildResult result = IndexBuilder::Build(inputs, options, 1);
  EXPECT_TRUE(result.chose_store_local);
  EXPECT_EQ(result.index.Lookup(15).value(), kStoreLocalOwner);
  EXPECT_DOUBLE_EQ(result.expected_cost, 0.0);  // No queries recorded.
}

TEST(IndexBuilderTest, StoreLocalNotUsedUnderHeavyQueries) {
  XmitsEstimator xmits = LineTopology();
  QueryStats queries;
  for (int i = 0; i < 600; ++i) {
    queries.RecordQuery({ValueRange{10, 19}}, Seconds(1) + i * Millis(50));
  }
  BuildInputs inputs =
      MakeInputs(&xmits, {Producer(4, 10, 19, 0.01)}, &queries, 10, 19);
  inputs.now = Seconds(40);
  IndexBuilderOptions options;
  options.consider_store_local = true;
  BuildResult result = IndexBuilder::Build(inputs, options, 1);
  EXPECT_FALSE(result.chose_store_local);
  EXPECT_GT(result.store_local_cost, result.expected_cost);
}

TEST(IndexBuilderTest, RangeGranularityCoarsensIndex) {
  XmitsEstimator xmits = LineTopology();
  std::vector<ProducerStats> producers;
  for (int i = 1; i <= 4; ++i) {
    producers.push_back(
        Producer(static_cast<NodeId>(i), static_cast<Value>(i * 5),
                 static_cast<Value>(i * 5 + 4), 0.5));
  }
  BuildInputs inputs = MakeInputs(&xmits, std::move(producers), nullptr, 5, 24);

  IndexBuilderOptions fine;
  fine.range_granularity = 1;
  IndexBuilderOptions coarse;
  coarse.range_granularity = 10;
  size_t fine_entries = IndexBuilder::Build(inputs, fine, 1).index.entries().size();
  size_t coarse_entries = IndexBuilder::Build(inputs, coarse, 1).index.entries().size();
  EXPECT_LE(coarse_entries, fine_entries);
  EXPECT_LE(coarse_entries, 2u);  // 20 values / granularity 10.
}

TEST(IndexBuilderTest, OwnerSetsNeverIncreaseExpectedCost) {
  XmitsEstimator xmits = LineTopology();
  // Two clusters producing the same values from opposite ends.
  std::vector<ProducerStats> producers = {Producer(1, 10, 19, 1.0),
                                          Producer(4, 10, 19, 1.0)};
  BuildInputs inputs = MakeInputs(&xmits, std::move(producers), nullptr, 10, 19);
  IndexBuilderOptions single;
  IndexBuilderOptions sets;
  sets.owner_set_size = 2;
  BuildResult one = IndexBuilder::Build(inputs, single, 1);
  BuildResult two = IndexBuilder::Build(inputs, sets, 1);
  EXPECT_LE(two.expected_cost, one.expected_cost + 1e-9);
  EXPECT_TRUE(two.index.multi_owner());
  // With symmetric producers, each value should get both cluster owners.
  EXPECT_EQ(two.index.LookupAll(15).size(), 2u);
}

TEST(IndexBuilderTest, OwnerHysteresisKeepsIncumbent) {
  // Two candidates with nearly equal cost: without hysteresis tiny stat
  // changes flip the owner; with the previous index provided the incumbent
  // must win.
  XmitsEstimator x(3);
  x.AddLink(1, 0, 0.8);
  x.AddLink(0, 1, 0.8);
  x.AddLink(2, 0, 0.8);
  x.AddLink(0, 2, 0.8);
  x.AddLink(1, 2, 0.8);
  x.AddLink(2, 1, 0.8);
  x.Build();
  // Producers 1 and 2 nearly symmetric; node 2 slightly heavier.
  std::vector<ProducerStats> producers = {Producer(1, 0, 9, 0.50),
                                          Producer(2, 0, 9, 0.52)};
  BuildInputs inputs = MakeInputs(&x, std::move(producers), nullptr, 0, 9);
  StorageIndex previous =
      StorageIndex::FromOwnerArray(1, 0, 0, std::vector<NodeId>(10, 1));
  inputs.previous = &previous;
  IndexBuilderOptions options;
  BuildResult result = IndexBuilder::Build(inputs, options, 2);
  EXPECT_EQ(result.index.Lookup(5).value(), 1);  // Incumbent kept.

  // A decisive cost gap must still displace the incumbent.
  inputs.producers = {Producer(1, 0, 9, 0.05), Producer(2, 0, 9, 2.0)};
  BuildResult displaced = IndexBuilder::Build(inputs, options, 3);
  EXPECT_EQ(displaced.index.Lookup(5).value(), 2);
}

TEST(IndexBuilderTest, WeightedSimilarityFocusesOnHotValues) {
  XmitsEstimator xmits = LineTopology();
  // Node 2 produces only value 15; the rest of the domain is dead weight.
  BuildInputs inputs = MakeInputs(&xmits, {Producer(2, 15, 15, 1.0)}, nullptr, 0, 20);

  StorageIndex a = StorageIndex::FromOwnerArray(1, 0, 0, std::vector<NodeId>(21, 2));
  // b differs from a ONLY on the hot value 15.
  std::vector<NodeId> owners_b(21, 2);
  owners_b[15] = 3;
  StorageIndex b = StorageIndex::FromOwnerArray(2, 0, 0, owners_b);
  // c differs from a on ten cold values but agrees on 15.
  std::vector<NodeId> owners_c(21, 2);
  for (int v = 0; v < 10; ++v) owners_c[static_cast<size_t>(v)] = 3;
  StorageIndex c = StorageIndex::FromOwnerArray(3, 0, 0, owners_c);

  // Uniform similarity would call b ~95% similar and c ~52% similar;
  // weighting by actual production must invert that ordering.
  double sim_b = IndexBuilder::WeightedSimilarity(inputs, a, b);
  double sim_c = IndexBuilder::WeightedSimilarity(inputs, a, c);
  EXPECT_LT(sim_b, 0.1);   // The only produced value moved: nothing alike.
  EXPECT_GT(sim_c, 0.95);  // Only dead values moved: effectively identical.
}

TEST(IndexBuilderTest, WeightedSimilarityIdenticalIsOne) {
  XmitsEstimator xmits = LineTopology();
  BuildInputs inputs = MakeInputs(&xmits, {Producer(2, 5, 9, 1.0)}, nullptr, 0, 10);
  StorageIndex a = StorageIndex::FromOwnerArray(1, 0, 0, std::vector<NodeId>(11, 2));
  StorageIndex b = StorageIndex::FromOwnerArray(2, 0, 0, std::vector<NodeId>(11, 2));
  EXPECT_DOUBLE_EQ(IndexBuilder::WeightedSimilarity(inputs, a, b), 1.0);
}

TEST(IndexBuilderTest, CoversWholeDomain) {
  XmitsEstimator xmits = LineTopology();
  BuildInputs inputs = MakeInputs(&xmits, {Producer(2, 40, 49, 1.0)}, nullptr, 0, 99);
  BuildResult result = IndexBuilder::Build(inputs, {}, 1);
  EXPECT_EQ(result.index.domain_lo(), 0);
  EXPECT_EQ(result.index.domain_hi(), 99);
  for (Value v = 0; v < 100; ++v) {
    EXPECT_TRUE(result.index.Lookup(v).has_value());
  }
}

}  // namespace
}  // namespace scoop::core
