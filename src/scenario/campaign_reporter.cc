#include "scenario/campaign_reporter.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "harness/report.h"
#include "net/wire.h"
#include "scenario/scenario_parser.h"
#include "sim/partition.h"

namespace scoop::scenario {

namespace {

using harness::ExperimentResult;

double SentOfType(const ExperimentResult& r, PacketType type) {
  return r.sent_by_type[static_cast<size_t>(type)];
}

const MetricColumn kColumns[] = {
    {"data", [](const ExperimentResult& r) { return r.data(); }},
    {"summary", [](const ExperimentResult& r) { return r.summary(); }},
    {"mapping", [](const ExperimentResult& r) { return r.mapping(); }},
    {"query", [](const ExperimentResult& r) { return SentOfType(r, PacketType::kQuery); }},
    {"reply", [](const ExperimentResult& r) { return SentOfType(r, PacketType::kReply); }},
    {"total", [](const ExperimentResult& r) { return r.total; }},
    {"total_excl_beacons", [](const ExperimentResult& r) { return r.total_excl_beacons; }},
    {"retransmissions", [](const ExperimentResult& r) { return r.retransmissions; }},
    {"mac_drops", [](const ExperimentResult& r) { return r.mac_drops; }},
    {"storage_success", [](const ExperimentResult& r) { return r.storage_success; }},
    {"owner_hit_rate", [](const ExperimentResult& r) { return r.owner_hit_rate; }},
    {"query_success", [](const ExperimentResult& r) { return r.query_success; }},
    {"summary_delivery", [](const ExperimentResult& r) { return r.summary_delivery; }},
    {"readings_lost", [](const ExperimentResult& r) { return r.readings_lost; }},
    {"readings_orphaned", [](const ExperimentResult& r) { return r.readings_orphaned; }},
    {"readings_rehomed", [](const ExperimentResult& r) { return r.readings_rehomed; }},
    {"queries_reissued", [](const ExperimentResult& r) { return r.queries_reissued; }},
    {"parent_losses", [](const ExperimentResult& r) { return r.parent_losses; }},
    {"send_retries", [](const ExperimentResult& r) { return r.send_retries; }},
    {"readings_produced", [](const ExperimentResult& r) { return r.readings_produced; }},
    {"queries_issued", [](const ExperimentResult& r) { return r.queries_issued; }},
    {"tuples_returned", [](const ExperimentResult& r) { return r.tuples_returned; }},
    {"avg_pct_nodes_queried",
     [](const ExperimentResult& r) { return r.avg_pct_nodes_queried; }},
    {"indices_built", [](const ExperimentResult& r) { return r.indices_built; }},
    {"indices_disseminated",
     [](const ExperimentResult& r) { return r.indices_disseminated; }},
    {"indices_suppressed", [](const ExperimentResult& r) { return r.indices_suppressed; }},
    {"base_owned_fraction", [](const ExperimentResult& r) { return r.base_owned_fraction; }},
    {"root_sent", [](const ExperimentResult& r) { return r.root_sent; }},
    {"root_received", [](const ExperimentResult& r) { return r.root_received; }},
    {"avg_node_sent", [](const ExperimentResult& r) { return r.avg_node_sent; }},
    {"max_node_sent", [](const ExperimentResult& r) { return r.max_node_sent; }},
    {"avg_node_lifetime_days",
     [](const ExperimentResult& r) { return r.avg_node_lifetime_days; }},
    {"root_lifetime_days", [](const ExperimentResult& r) { return r.root_lifetime_days; }},
};

/// Metric cells use the shared shortest-round-trip formatter: it depends
/// only on the double's bits, which keeps CSV/JSON stable across runs and
/// thread counts. Non-finite values (an idle node's lifetime is +inf) have
/// no JSON literal and no portable CSV spelling: JSON gets null, CSV an
/// empty cell.
std::string FormatCsvMetric(double v) {
  return std::isfinite(v) ? FormatShortestDouble(v) : std::string();
}

std::string FormatJsonMetric(double v) {
  return std::isfinite(v) ? FormatShortestDouble(v) : std::string("null");
}

std::string CsvCell(const std::string& s) {
  if (s.find_first_of(",\"\n") == std::string::npos) return s;
  std::string quoted = "\"";
  for (char c : s) {
    if (c == '"') quoted += '"';
    quoted += c;
  }
  quoted += '"';
  return quoted;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char esc[8];
          std::snprintf(esc, sizeof(esc), "\\u%04x", c);
          out += esc;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

}  // namespace

const MetricColumn* MetricColumns(size_t* count) {
  *count = sizeof(kColumns) / sizeof(kColumns[0]);
  return kColumns;
}

std::string CampaignTable(const CampaignResult& result) {
  std::vector<std::string> headers = result.axis_keys;
  if (headers.empty()) headers.push_back("scenario");
  for (const char* h : {"data", "summary", "mapping", "query+reply", "total", "stored",
                        "q-success"}) {
    headers.emplace_back(h);
  }
  harness::TablePrinter table(headers);
  for (const CampaignRow& row : result.rows) {
    std::vector<std::string> cells;
    if (result.axis_keys.empty()) {
      cells.push_back(result.scenario_name);
    } else {
      for (const auto& [key, value] : row.axes) cells.push_back(value);
    }
    cells.push_back(harness::FormatCount(row.mean.data()));
    cells.push_back(harness::FormatCount(row.mean.summary()));
    cells.push_back(harness::FormatCount(row.mean.mapping()));
    cells.push_back(harness::FormatCount(row.mean.query_reply()));
    cells.push_back(harness::FormatCount(row.mean.total_excl_beacons));
    cells.push_back(harness::FormatPercent(row.mean.storage_success));
    cells.push_back(harness::FormatPercent(row.mean.query_success));
    table.AddRow(std::move(cells));
  }
  return table.ToString();
}

std::string CampaignCsv(const CampaignResult& result) {
  // Cells are appended one at a time (not built with operator+ chains):
  // GCC 12's -O3 -Wrestrict false-positives on `"," + std::string` and the
  // release preset builds with -Werror.
  std::string out = "scenario";
  for (const std::string& key : result.axis_keys) {
    out += ',';
    out += CsvCell(key);
  }
  out += ",trial";
  for (const MetricColumn& col : kColumns) {
    out += ',';
    out += col.name;
  }
  out += "\n";

  auto emit_row = [&](const CampaignRow& row, const std::string& trial,
                      const ExperimentResult& r) {
    out += CsvCell(result.scenario_name);
    for (const auto& [key, value] : row.axes) {
      out += ',';
      out += CsvCell(value);
    }
    out += ',';
    out += trial;
    for (const MetricColumn& col : kColumns) {
      out += ',';
      out += FormatCsvMetric(col.get(r));
    }
    out += "\n";
  };
  for (const CampaignRow& row : result.rows) {
    for (size_t t = 0; t < row.trials.size(); ++t) {
      emit_row(row, std::to_string(t), row.trials[t]);
    }
    emit_row(row, "mean", row.mean);
  }
  return out;
}

std::string CampaignJsonLines(const CampaignResult& result) {
  std::string out;
  for (const CampaignRow& row : result.rows) {
    out += "{\"scenario\":" + JsonString(result.scenario_name);
    out += ",\"axes\":{";
    for (size_t i = 0; i < row.axes.size(); ++i) {
      if (i > 0) out += ",";
      out += JsonString(row.axes[i].first) + ":" + JsonString(row.axes[i].second);
    }
    out += "},\"policy\":" + JsonString(harness::PolicyName(row.config.policy));
    out += ",\"source\":" + JsonString(workload::DataSourceKindName(row.config.source));
    out += ",\"nodes\":" + std::to_string(row.config.num_nodes);
    out += ",\"trials\":" + std::to_string(row.trials.size());
    out += ",\"seed\":" + std::to_string(row.config.seed);
    out += ",\"metrics\":{";
    for (size_t i = 0; i < sizeof(kColumns) / sizeof(kColumns[0]); ++i) {
      if (i > 0) out += ",";
      out += JsonString(kColumns[i].name) + ":" + FormatJsonMetric(kColumns[i].get(row.mean));
    }
    out += "},\"trial_total_excl_beacons\":[";
    for (size_t t = 0; t < row.trials.size(); ++t) {
      if (t > 0) out += ",";
      out += FormatJsonMetric(row.trials[t].total_excl_beacons);
    }
    out += "]}\n";
  }
  return out;
}

std::string CampaignPerfJson(const CampaignResult& result) {
  // The profiler buckets, as (json key, accessor) pairs shared by the
  // top-level totals and the per-row means. Emitted only when some trial
  // actually profiled (config obs.profile / --profile), so unprofiled perf
  // reports keep their old shape.
  struct Bucket {
    const char* key;
    double (*get)(const harness::ExperimentResult&);
  };
  static constexpr Bucket kBuckets[] = {
      {"profile_queue_seconds",
       [](const harness::ExperimentResult& r) { return r.profile_queue_seconds; }},
      {"profile_radio_seconds",
       [](const harness::ExperimentResult& r) { return r.profile_radio_seconds; }},
      {"profile_agent_seconds",
       [](const harness::ExperimentResult& r) { return r.profile_agent_seconds; }},
      {"profile_shard_sync_seconds",
       [](const harness::ExperimentResult& r) { return r.profile_shard_sync_seconds; }},
      {"profile_other_seconds",
       [](const harness::ExperimentResult& r) { return r.profile_other_seconds; }},
  };
  double total_events = 0;
  double total_wall = 0;
  size_t total_trials = 0;
  double total_stall_us = 0;
  double total_stall_episodes = 0;
  double total_mirrored = 0;
  double bucket_totals[std::size(kBuckets)] = {};
  bool profiled = false;
  // The resolved shard count / partitioner, when they agree across every row
  // (the common case: one campaign = one sharding configuration). Mixed
  // campaigns keep the per-row values only.
  bool shards_uniform = !result.rows.empty();
  bool partition_uniform = !result.rows.empty();
  int uniform_shards = 0;
  sim::PartitionKind uniform_partition = sim::PartitionKind::kStrip;
  for (const CampaignRow& row : result.rows) {
    const int row_shards = static_cast<int>(row.mean.resolved_shards);
    if (uniform_shards == 0) {
      uniform_shards = row_shards;
      uniform_partition = row.config.partition;
    }
    if (row_shards != uniform_shards) shards_uniform = false;
    if (row.config.partition != uniform_partition) partition_uniform = false;
    for (const harness::ExperimentResult& trial : row.trials) {
      total_events += trial.sim_events;
      total_wall += trial.wall_seconds;
      ++total_trials;
      total_stall_us += trial.shard_stall_us;
      total_stall_episodes += trial.shard_stall_episodes;
      total_mirrored += trial.shard_mirrored_frames;
      for (size_t b = 0; b < std::size(kBuckets); ++b) {
        double v = kBuckets[b].get(trial);
        bucket_totals[b] += v;
        if (v > 0) profiled = true;
      }
    }
  }
  std::string out = "{\"scenario\":" + JsonString(result.scenario_name);
  out += ",\"threads\":" + std::to_string(result.threads_used);
  out += ",\"wall_seconds\":" + FormatJsonMetric(result.wall_seconds);
  out += ",\"trial_wall_seconds_total\":" + FormatJsonMetric(total_wall);
  // Host seconds per simulated deployment: the cost a campaign pays per
  // trial, comparable across engines and shard counts (events/s is not:
  // boundary evaluations and bookkeeping events vary with K).
  out += ",\"trials\":" + std::to_string(total_trials);
  out += ",\"wall_seconds_per_trial\":" +
         FormatJsonMetric(total_trials > 0 ? total_wall / static_cast<double>(total_trials)
                                           : 0.0);
  out += ",\"sim_events_total\":" + FormatJsonMetric(total_events);
  out += ",\"events_per_second\":" +
         FormatJsonMetric(total_wall > 0 ? total_events / total_wall : 0.0);
  // Shard sync costs, summed across trials. stall_us/stall_episodes are
  // wall-clock (nondeterministic); mirrored_frames is deterministic for a
  // fixed (config, shards, partition). All zero for single-shard campaigns.
  if (shards_uniform) out += ",\"shards\":" + std::to_string(uniform_shards);
  if (partition_uniform) {
    out += ",\"partition\":" + JsonString(sim::PartitionKindName(uniform_partition));
  }
  out += ",\"shard\":{\"stall_us\":" + FormatJsonMetric(total_stall_us);
  out += ",\"stall_episodes\":" + FormatJsonMetric(total_stall_episodes);
  out += ",\"mirrored_frames\":" + FormatJsonMetric(total_mirrored);
  out += "}";
  if (profiled) {
    out += ",\"profile\":{";
    for (size_t b = 0; b < std::size(kBuckets); ++b) {
      if (b > 0) out += ",";
      out += JsonString(kBuckets[b].key);
      out += ":";
      out += FormatJsonMetric(bucket_totals[b]);
    }
    out += "}";
  }
  out += ",\"rows\":[";
  for (size_t i = 0; i < result.rows.size(); ++i) {
    const CampaignRow& row = result.rows[i];
    if (i > 0) out += ",";
    out += "{\"axes\":{";
    for (size_t a = 0; a < row.axes.size(); ++a) {
      if (a > 0) out += ",";
      out += JsonString(row.axes[a].first) + ":" + JsonString(row.axes[a].second);
    }
    out += "},\"wall_seconds\":" + FormatJsonMetric(row.mean.wall_seconds);
    out += ",\"sim_events\":" + FormatJsonMetric(row.mean.sim_events);
    out += ",\"events_per_second\":" +
           FormatJsonMetric(row.mean.wall_seconds > 0
                                ? row.mean.sim_events / row.mean.wall_seconds
                                : 0.0);
    out += ",\"shards\":" +
           std::to_string(static_cast<int>(row.mean.resolved_shards));
    out += ",\"partition\":" +
           JsonString(sim::PartitionKindName(row.config.partition));
    out += ",\"shard\":{\"stall_us\":" + FormatJsonMetric(row.mean.shard_stall_us);
    out += ",\"stall_episodes\":" + FormatJsonMetric(row.mean.shard_stall_episodes);
    out += ",\"mirrored_frames\":" +
           FormatJsonMetric(row.mean.shard_mirrored_frames);
    out += ",\"cut_edges\":" + FormatJsonMetric(row.mean.partition_cut_edges);
    out += ",\"imbalance\":" + FormatJsonMetric(row.mean.partition_imbalance);
    out += "}";
    if (profiled) {
      out += ",\"profile\":{";
      for (size_t b = 0; b < std::size(kBuckets); ++b) {
        if (b > 0) out += ",";
        out += JsonString(kBuckets[b].key);
        out += ":";
        out += FormatJsonMetric(kBuckets[b].get(row.mean));
      }
      out += "}";
    }
    out += "}";
  }
  out += "]}\n";
  return out;
}

}  // namespace scoop::scenario
