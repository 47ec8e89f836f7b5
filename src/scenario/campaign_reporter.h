// Structured output for campaign results: the aligned summary table plus
// machine-readable CSV (one row per trial and a "mean" row per combo), both
// rendered from one metric-column table, and the separate wall-clock perf
// report.
#ifndef SCOOP_SCENARIO_CAMPAIGN_REPORTER_H_
#define SCOOP_SCENARIO_CAMPAIGN_REPORTER_H_

#include <cstddef>
#include <string>

#include "harness/experiment.h"
#include "scenario/campaign.h"

namespace scoop::scenario {

/// One named metric read out of an ExperimentResult.
struct MetricColumn {
  const char* name;
  double (*get)(const harness::ExperimentResult&);
};

/// The full metric-column table, in canonical order.
const MetricColumn* MetricColumns(size_t* count);

/// Human-readable summary table: one row per combo, axis columns plus the
/// Figure 3 headline metrics.
std::string CampaignTable(const CampaignResult& result);

/// The profiler's buckets (queue, radio, agent, shard-sync, other) as a
/// table of mean wall seconds per trial, one row per combo; empty when no
/// trial profiled.
std::string CampaignProfileTable(const CampaignResult& result);

/// CSV: header, then per-combo one row per trial (trial = 0..k-1) followed
/// by the trial-averaged row (trial = mean). Deterministic byte-for-byte
/// for a given scenario, at any thread count.
std::string CampaignCsv(const CampaignResult& result);

/// Perf report (one JSON document): campaign wall-clock plus per-combo
/// wall seconds, simulated events, and events/second. This is the
/// machine-tracked perf trajectory (BENCH_radio.json); it is kept separate
/// from CampaignCsv because wall time varies run to run and the CSV must
/// stay byte-identical for a fixed seed.
std::string CampaignPerfJson(const CampaignResult& result);

}  // namespace scoop::scenario

#endif  // SCOOP_SCENARIO_CAMPAIGN_REPORTER_H_
