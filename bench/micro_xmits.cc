// Microbenchmarks of the agent-layer cost model: XmitsEstimator::Build
// (per-source report folding, a CSR edge list and one Dijkstra per source).
//
// The workload is the basestation's remap loop (§5.2/§5.3): Clear(),
// re-ingest summary statistics, Build(); plus the cold first Build().
// BM_SteadyStateRemap re-reports only ~2% of links at a new quality per
// round, far less drift than real remaps show. Every Build() is a full
// rebuild, so it costs about what BM_ColdFullBuild does.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "common/rng.h"
#include "core/xmits_estimator.h"

namespace scoop::core {
namespace {

// ---------------------------------------------------------------------------
// Synthetic summary statistics: each node reports ~8 neighbor links (a
// ring + random chords, qualities in [0.2, 0.9]) plus a routing-tree edge,
// the shape HandleSummaryAtBase feeds RebuildXmits. `epoch` perturbs a few
// per-round qualities the way fresh summaries would.
struct LinkStat {
  NodeId from;
  NodeId to;
  double quality;
};

std::vector<LinkStat> MakeStats(int n, uint64_t seed) {
  Rng rng(seed, /*stream=*/0x357A75);
  std::vector<LinkStat> stats;
  for (int i = 1; i < n; ++i) {
    NodeId node = static_cast<NodeId>(i);
    // Ring neighbors (the geometric backbone).
    for (int d : {1, 2}) {
      NodeId nbr = static_cast<NodeId>(1 + (i - 1 + d) % (n - 1));
      if (nbr == node) continue;
      stats.push_back(LinkStat{nbr, node, 0.3 + 0.6 * rng.UniformDouble()});
      stats.push_back(LinkStat{node, nbr, 0.3 + 0.6 * rng.UniformDouble()});
    }
    // Random chords.
    for (int c = 0; c < 4; ++c) {
      NodeId nbr = static_cast<NodeId>(rng.UniformInt(0, n - 1));
      if (nbr == node) continue;
      stats.push_back(LinkStat{nbr, node, 0.2 + 0.7 * rng.UniformDouble()});
    }
  }
  return stats;
}

/// Replays one remap round into the estimator: Clear + full re-ingest
/// with `churn` links re-reported at a different quality.
void IngestRound(XmitsEstimator& est, const std::vector<LinkStat>& stats, int n, int round,
                 int churn) {
  est.Clear();
  size_t rotate = stats.empty() ? 0 : (static_cast<size_t>(round) * 17) % stats.size();
  for (size_t k = 0; k < stats.size(); ++k) {
    const LinkStat& s = stats[k];
    double q = s.quality;
    // A handful of links re-report better or worse each round, like fresh
    // summaries drifting; everything else is byte-identical.
    if (static_cast<int>((k + rotate) % stats.size()) < churn) {
      q = std::clamp(q + ((round + k) % 2 == 0 ? 0.15 : -0.15), 0.15, 0.95);
    }
    est.AddLink(s.from, s.to, q);
  }
  for (int i = 1; i < n; ++i) {
    est.AddTreeEdge(static_cast<NodeId>(i), static_cast<NodeId>((i - 1) / 2));
  }
}

// ---------------------------------------------------------------------------
// Steady-state remap: the loop ScoopBaseAgent pays every remap_interval
// (with a synthetic 2% per-round drift).
void BM_SteadyStateRemap(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  std::vector<LinkStat> stats = MakeStats(n, /*seed=*/7);
  XmitsEstimator est(n);
  int churn = std::max(2, n / 50);
  IngestRound(est, stats, n, /*round=*/0, churn);
  est.Build();
  int round = 1;
  double checksum = 0;
  for (auto _ : state) {
    IngestRound(est, stats, n, round, churn);
    est.Build();
    checksum += est.Xmits(0, static_cast<NodeId>(n - 1));
    ++round;
  }
  benchmark::DoNotOptimize(checksum);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_SteadyStateRemap)->Arg(63)->Arg(121)->Arg(500);

// ---------------------------------------------------------------------------
// Cold build: first Build() of a fresh estimator, construction included.
void BM_ColdFullBuild(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  std::vector<LinkStat> stats = MakeStats(n, /*seed=*/7);
  double checksum = 0;
  for (auto _ : state) {
    XmitsEstimator est(n);
    IngestRound(est, stats, n, /*round=*/0, /*churn=*/0);
    est.Build();
    checksum += est.Xmits(0, static_cast<NodeId>(n - 1));
  }
  benchmark::DoNotOptimize(checksum);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_ColdFullBuild)->Arg(63)->Arg(121)->Arg(500);

}  // namespace
}  // namespace scoop::core

BENCHMARK_MAIN();
