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
/// only on the double's bits, which keeps the CSV stable across runs and
/// thread counts. Non-finite values (an idle node's lifetime is +inf) have
/// no portable CSV spelling and get an empty cell; the perf JSON writes
/// null.
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

/// The profiler buckets: table label, perf-JSON key and field.
struct Bucket {
  const char* label;
  const char* key;
  double ExperimentResult::*field;
};
constexpr Bucket kBuckets[] = {
    {"queue", "profile_queue_seconds", &ExperimentResult::profile_queue_seconds},
    {"radio", "profile_radio_seconds", &ExperimentResult::profile_radio_seconds},
    {"agent", "profile_agent_seconds", &ExperimentResult::profile_agent_seconds},
    {"shard-sync", "profile_shard_sync_seconds", &ExperimentResult::profile_shard_sync_seconds},
    {"other", "profile_other_seconds", &ExperimentResult::profile_other_seconds},
};

/// True when some trial ran with the profiler (obs.profile / --profile):
/// a combo's mean bucket is nonzero iff one of its trials' is.
bool AnyTrialProfiled(const CampaignResult& result) {
  for (const CampaignRow& row : result.rows) {
    for (const Bucket& b : kBuckets) {
      if (row.mean.*b.field > 0) return true;
    }
  }
  return false;
}

/// One row per combo, under the axis keys (or "scenario") and `columns`:
/// the combo's axis values (or the scenario name), then `cells(mean)`.
template <typename Cells>
std::string ComboTable(const CampaignResult& result, const std::vector<std::string>& columns,
                       Cells cells) {
  std::vector<std::string> headers = result.axis_keys;
  if (headers.empty()) headers.push_back("scenario");
  headers.insert(headers.end(), columns.begin(), columns.end());
  harness::TablePrinter table(std::move(headers));
  for (const CampaignRow& row : result.rows) {
    std::vector<std::string> line;
    if (result.axis_keys.empty()) line.push_back(result.scenario_name);
    for (const auto& [key, value] : row.axes) line.push_back(value);
    for (std::string& cell : cells(row.mean)) line.push_back(std::move(cell));
    table.AddRow(std::move(line));
  }
  return table.ToString();
}

}  // namespace

const MetricColumn* MetricColumns(size_t* count) {
  *count = sizeof(kColumns) / sizeof(kColumns[0]);
  return kColumns;
}

std::string CampaignTable(const CampaignResult& result) {
  return ComboTable(
      result, {"data", "summary", "mapping", "query+reply", "total", "stored", "q-success"},
      [](const ExperimentResult& m) {
        return std::vector<std::string>{
            harness::FormatCount(m.data()), harness::FormatCount(m.summary()),
            harness::FormatCount(m.mapping()), harness::FormatCount(m.query_reply()),
            harness::FormatCount(m.total_excl_beacons),
            harness::FormatPercent(m.storage_success), harness::FormatPercent(m.query_success)};
      });
}

std::string CampaignProfileTable(const CampaignResult& result) {
  if (!AnyTrialProfiled(result)) return "";
  std::vector<std::string> labels;
  for (const Bucket& b : kBuckets) labels.emplace_back(b.label);
  return ComboTable(result, labels, [](const ExperimentResult& m) {
    std::vector<std::string> cells;
    for (const Bucket& b : kBuckets) cells.push_back(harness::FormatDouble(m.*b.field, 3));
    return cells;
  });
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

std::string CampaignPerfJson(const CampaignResult& result) {
  double total_events = 0;
  double total_wall = 0;
  size_t total_trials = 0;
  double total_stall_us = 0;
  double total_stall_episodes = 0;
  double total_mirrored = 0;
  double bucket_totals[std::size(kBuckets)] = {};
  // Unprofiled perf reports carry no "profile" objects.
  const bool profiled = AnyTrialProfiled(result);
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
      for (size_t b = 0; b < std::size(kBuckets); ++b) bucket_totals[b] += trial.*kBuckets[b].field;
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
        out += FormatJsonMetric(row.mean.*kBuckets[b].field);
      }
      out += "}";
    }
    out += "}";
  }
  out += "]}\n";
  return out;
}

}  // namespace scoop::scenario
