// Microbenchmarks of topology generation: the spatial-hash link walk
// (ComputeDelivery) and end-to-end Topology::MakeRandom / MakeGrid at
// paper scale through 10000 nodes. Areas scale with N so physical density
// -- and therefore node degree -- stays constant, matching how micro_radio
// sizes its networks; without that, a 10k-node network at ~20% audibility
// would mean 2000-neighbor nodes no deployment has. The bar is MakeRandom
// at N = 10000 in under one second.
#include <benchmark/benchmark.h>

#include <cmath>
#include <vector>

#include "common/rng.h"
#include "sim/topology.h"

namespace scoop::sim {
namespace {

RandomTopologyOptions ScaledRandomOptions(int n) {
  RandomTopologyOptions opts;
  opts.num_nodes = n;
  opts.seed = 9;
  // Constant density: scale the 63-node 55x55 area with N and keep the
  // fixed radio range (degree ~ a dozen neighbors at any size). The
  // neighbor-fraction auto-tuner is a small-N notion -- 20% of 10000
  // nodes is not a radio neighborhood -- so it is disabled here.
  double scale = std::sqrt(static_cast<double>(n) / 63.0);
  opts.area_width *= scale;
  opts.area_height *= scale;
  opts.target_neighbor_fraction = 0;
  return opts;
}

std::vector<Point> ScatterPositions(int n, uint64_t seed) {
  Rng rng(seed, /*stream=*/0x6E0);
  double side = 55.0 * std::sqrt(static_cast<double>(n) / 63.0);
  std::vector<Point> positions(static_cast<size_t>(n));
  for (auto& p : positions) {
    p = Point{rng.UniformDouble() * side, rng.UniformDouble() * side};
  }
  return positions;
}

// ---------------------------------------------------------------------------
// Link computation alone (topology_test pins its output against a dense
// all-pairs reference).
void BM_ComputeDeliverySpatial(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  std::vector<Point> positions = ScatterPositions(n, /*seed=*/4);
  size_t links = 0;
  for (auto _ : state) {
    auto result = Topology::ComputeDelivery(positions, /*range=*/18.0, /*link_seed=*/11);
    for (const auto& row : result) links += row.size();
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  state.counters["links"] =
      static_cast<double>(links) / static_cast<double>(std::max<size_t>(1, state.iterations()));
}
BENCHMARK(BM_ComputeDeliverySpatial)->Arg(250)->Arg(1000)->Arg(4000)->Arg(10000);

// ---------------------------------------------------------------------------
// End-to-end generation, including range growth to connectivity and the
// index build (CSR, interferer bitmaps, dense matrix up to its cap).
void BM_MakeRandom(benchmark::State& state) {
  RandomTopologyOptions opts = ScaledRandomOptions(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    Topology topo = Topology::MakeRandom(opts);
    benchmark::DoNotOptimize(topo.num_nodes());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_MakeRandom)->Arg(63)->Arg(500)->Arg(1000)->Arg(10000)
    ->Unit(benchmark::kMillisecond);

// The default small-N configuration (neighbor-fraction auto-tuning on),
// the regime every harness trial pays at topology setup.
void BM_MakeRandomPaperDefault(benchmark::State& state) {
  RandomTopologyOptions opts;
  opts.num_nodes = static_cast<int>(state.range(0));
  opts.seed = 9;
  for (auto _ : state) {
    Topology topo = Topology::MakeRandom(opts);
    benchmark::DoNotOptimize(topo.num_nodes());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_MakeRandomPaperDefault)->Arg(63)->Arg(121)->Unit(benchmark::kMillisecond);

void BM_MakeGrid(benchmark::State& state) {
  GridTopologyOptions opts;
  opts.num_nodes = static_cast<int>(state.range(0));
  opts.seed = 9;
  for (auto _ : state) {
    Topology topo = Topology::MakeGrid(opts);
    benchmark::DoNotOptimize(topo.num_nodes());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_MakeGrid)->Arg(121)->Arg(1000)->Arg(10000)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace scoop::sim

BENCHMARK_MAIN();
