// E15 -- google-benchmark microbenchmarks of the hot data structures:
// histogram construction and the P(p->v) estimator, storage-index
// coalescing/lookup/chunking, Trickle timer stepping, Flash scans, and the
// discrete-event queue.
#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "core/storage_index.h"
#include "sim/shard.h"
#include "storage/flash_store.h"
#include "storage/histogram.h"
#include "trickle/trickle_timer.h"

namespace scoop {
namespace {

void BM_HistogramBuild(benchmark::State& state) {
  Rng rng(1);
  std::vector<Value> readings;
  for (int i = 0; i < 30; ++i) {
    readings.push_back(static_cast<Value>(rng.UniformInt(0, 150)));
  }
  for (auto _ : state) {
    storage::ValueHistogram h = storage::ValueHistogram::Build(readings, 10);
    benchmark::DoNotOptimize(h);
  }
}
BENCHMARK(BM_HistogramBuild);

void BM_HistogramProbability(benchmark::State& state) {
  Rng rng(2);
  std::vector<Value> readings;
  for (int i = 0; i < 30; ++i) {
    readings.push_back(static_cast<Value>(rng.UniformInt(0, 150)));
  }
  storage::ValueHistogram h = storage::ValueHistogram::Build(readings, 10);
  Value v = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(h.ProbabilityOf(v));
    v = (v + 7) % 151;
  }
}
BENCHMARK(BM_HistogramProbability);

core::StorageIndex MakeIndex(int domain, int num_owners) {
  Rng rng(3);
  std::vector<NodeId> owners;
  NodeId current = 1;
  for (int v = 0; v < domain; ++v) {
    if (rng.Bernoulli(0.3)) {
      current = static_cast<NodeId>(rng.UniformInt(0, num_owners - 1));
    }
    owners.push_back(current);
  }
  return core::StorageIndex::FromOwnerArray(1, 0, 0, owners);
}

void BM_StorageIndexCoalesce(benchmark::State& state) {
  int domain = static_cast<int>(state.range(0));
  for (auto _ : state) {
    core::StorageIndex index = MakeIndex(domain, 62);
    benchmark::DoNotOptimize(index);
  }
}
BENCHMARK(BM_StorageIndexCoalesce)->Arg(150)->Arg(600);

void BM_StorageIndexLookup(benchmark::State& state) {
  core::StorageIndex index = MakeIndex(150, 62);
  Value v = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.Lookup(v));
    v = (v + 13) % 150;
  }
}
BENCHMARK(BM_StorageIndexLookup);

void BM_StorageIndexChunkRoundTrip(benchmark::State& state) {
  core::StorageIndex index = MakeIndex(150, 62);
  for (auto _ : state) {
    std::vector<MappingPayload> chunks = index.ToChunks(13);
    benchmark::DoNotOptimize(core::StorageIndex::FromChunks(chunks));
  }
}
BENCHMARK(BM_StorageIndexChunkRoundTrip);

void BM_TrickleSteadyState(benchmark::State& state) {
  Rng rng(4);
  trickle::TrickleTimer timer(&rng);
  SimTime next = timer.Start(0);
  for (auto _ : state) {
    auto action = timer.OnEvent(next);
    next = action.next_event;
    benchmark::DoNotOptimize(action.should_broadcast);
  }
}
BENCHMARK(BM_TrickleSteadyState);

void BM_FlashScan(benchmark::State& state) {
  // Scans cost one pass over the live tuples; the store holds up to
  // FlashStore::kCapacityTuples (16384).
  storage::FlashStore store;
  Rng rng(5);
  for (int i = 0; i < state.range(0); ++i) {
    store.Store({static_cast<NodeId>(rng.UniformInt(1, 62)),
                 static_cast<Value>(rng.UniformInt(0, 150)), Seconds(i)});
  }
  QueryPayload query;
  query.time_lo = 0;
  query.time_hi = Seconds(static_cast<double>(state.range(0)));
  query.ranges.push_back(ValueRange{40, 45});
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.Scan(query));
  }
}
BENCHMARK(BM_FlashScan)->Arg(1024)->Arg(16384);

void BM_EventQueueThroughput(benchmark::State& state) {
  for (auto _ : state) {
    sim::ShardQueue queue(/*num_origins=*/1);
    int fired = 0;
    for (int i = 0; i < 1000; ++i) {
      queue.ScheduleRegular(i, /*origin=*/0, [&fired] { ++fired; });
    }
    while (queue.RunOne()) {
    }
    benchmark::DoNotOptimize(fired);
  }
}
BENCHMARK(BM_EventQueueThroughput);

}  // namespace
}  // namespace scoop

BENCHMARK_MAIN();
