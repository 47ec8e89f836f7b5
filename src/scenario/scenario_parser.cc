#include "scenario/scenario_parser.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/types.h"
#include "workload/data_source.h"

namespace scoop::scenario {

namespace {

using harness::ExperimentConfig;
using harness::Policy;
using harness::TopologyPreset;
using workload::DataSourceKind;

std::string_view TrimView(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) s.remove_prefix(1);
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) s.remove_suffix(1);
  return s;
}

// Built with append rather than operator+ chains: GCC 12's -O3 -Wrestrict
// false-positives on the `"'" + std::string(s) + "'"` pattern and SCOOP_WERROR
// turns that into a broken release build.
std::string Quoted(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out += '\'';
  out += s;
  out += '\'';
  return out;
}

// --- scalar value parsers -------------------------------------------------

Result<double> ParseDouble(std::string_view text) {
  std::string buf(TrimView(text));
  if (buf.empty()) return Status::InvalidArgument("expected a number, got an empty value");
  char* end = nullptr;
  double v = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size() || !std::isfinite(v)) {
    return Status::InvalidArgument("expected a number, got " + Quoted(text));
  }
  return v;
}

Result<int64_t> ParseInt(std::string_view text) {
  std::string buf(TrimView(text));
  if (buf.empty()) return Status::InvalidArgument("expected an integer, got an empty value");
  char* end = nullptr;
  errno = 0;
  long long v = std::strtoll(buf.c_str(), &end, 10);
  if (end != buf.c_str() + buf.size()) {
    return Status::InvalidArgument("expected an integer, got " + Quoted(text));
  }
  if (errno == ERANGE) {
    return Status::OutOfRange("integer " + Quoted(text) + " does not fit in 64 bits");
  }
  return static_cast<int64_t>(v);
}

Result<uint64_t> ParseUint(std::string_view text) {
  std::string buf(TrimView(text));
  if (buf.empty() || buf[0] == '-') {
    return Status::InvalidArgument("expected a non-negative integer, got " + Quoted(text));
  }
  char* end = nullptr;
  errno = 0;
  unsigned long long v = std::strtoull(buf.c_str(), &end, 10);
  if (end != buf.c_str() + buf.size()) {
    return Status::InvalidArgument("expected a non-negative integer, got " + Quoted(text));
  }
  if (errno == ERANGE) {
    return Status::OutOfRange("integer " + Quoted(text) + " does not fit in 64 bits");
  }
  return static_cast<uint64_t>(v);
}

Result<bool> ParseBool(std::string_view text) {
  std::string_view v = TrimView(text);
  if (v == "on" || v == "true" || v == "yes" || v == "1") return true;
  if (v == "off" || v == "false" || v == "no" || v == "0") return false;
  return Status::InvalidArgument("expected on/off (or true/false), got " + Quoted(text));
}

std::string FormatBool(bool v) { return v ? "on" : "off"; }

/// Table-local shorthand for the shared shortest-round-trip formatter.
std::string FormatNumber(double v) { return FormatShortestDouble(v); }

// Durations are stored as integer microseconds; parse by rounding (not
// truncating) so format -> parse is exact for every representable SimTime.
SimTime MinutesOf(double m) { return static_cast<SimTime>(std::llround(m * 60.0 * kSecond)); }
SimTime SecondsOf(double s) { return static_cast<SimTime>(std::llround(s * kSecond)); }
double ToMinutes(SimTime t) { return ToSeconds(t) / 60.0; }

// --- the key table --------------------------------------------------------

/// One scenario key: how to apply a textual value to an ExperimentConfig
/// and how to print the current value back out (for FormatScenario).
struct KeyInfo {
  const char* key;
  Status (*apply)(ExperimentConfig*, std::string_view);
  std::string (*format)(const ExperimentConfig&);
};

// Small builders to keep the table readable. Each returns Status so the
// parser can attach "<origin>:<line>:<col>" positions.
Status SetPolicy(ExperimentConfig* c, std::string_view v) {
  std::string_view s = TrimView(v);
  if (s == "scoop") c->policy = Policy::kScoop;
  else if (s == "local") c->policy = Policy::kLocal;
  else if (s == "base") c->policy = Policy::kBase;
  else if (s == "hash") c->policy = Policy::kHashAnalytical;
  else if (s == "hash-sim") c->policy = Policy::kHashSim;
  else return Status::InvalidArgument("unknown policy " + Quoted(v) +
                                      " (expected scoop|local|base|hash|hash-sim)");
  return Status::OK();
}

Status SetPartition(ExperimentConfig* c, std::string_view v) {
  std::string_view s = TrimView(v);
  if (s == "strip") c->partition = sim::PartitionKind::kStrip;
  else if (s == "mincut") c->partition = sim::PartitionKind::kMincut;
  else return Status::InvalidArgument("unknown partition " + Quoted(v) +
                                      " (expected strip|mincut)");
  return Status::OK();
}

Status SetSource(ExperimentConfig* c, std::string_view v) {
  std::string_view s = TrimView(v);
  if (s == "real") c->source = DataSourceKind::kReal;
  else if (s == "unique") c->source = DataSourceKind::kUnique;
  else if (s == "equal") c->source = DataSourceKind::kEqual;
  else if (s == "random") c->source = DataSourceKind::kRandom;
  else if (s == "gaussian") c->source = DataSourceKind::kGaussian;
  else return Status::InvalidArgument("unknown source " + Quoted(v) +
                                      " (expected real|unique|equal|random|gaussian)");
  return Status::OK();
}

Status SetTopology(ExperimentConfig* c, std::string_view v) {
  std::string_view s = TrimView(v);
  if (s == "testbed") c->preset = TopologyPreset::kTestbed;
  else if (s == "random") c->preset = TopologyPreset::kRandom;
  else if (s == "grid") c->preset = TopologyPreset::kGrid;
  else return Status::InvalidArgument("unknown topology " + Quoted(v) +
                                      " (expected testbed|random|grid)");
  return Status::OK();
}

template <typename T>
Status StoreInt(std::string_view v, T* out, int64_t lo, int64_t hi, const char* what) {
  Result<int64_t> parsed = ParseInt(v);
  if (!parsed.ok()) return parsed.status();
  if (parsed.value() < lo || parsed.value() > hi) {
    return Status::OutOfRange(std::string(what) + " must be in [" + std::to_string(lo) +
                              ", " + std::to_string(hi) + "], got " + Quoted(TrimView(v)));
  }
  *out = static_cast<T>(parsed.value());
  return Status::OK();
}

Status StoreDouble(std::string_view v, double* out, double lo, double hi, const char* what) {
  Result<double> parsed = ParseDouble(v);
  if (!parsed.ok()) return parsed.status();
  if (parsed.value() < lo || parsed.value() > hi) {
    return Status::OutOfRange(std::string(what) + " must be in [" + FormatNumber(lo) + ", " +
                              FormatNumber(hi) + "], got " + Quoted(TrimView(v)));
  }
  *out = parsed.value();
  return Status::OK();
}

// Upper bound on any single duration value: one simulated decade. Keeps
// the microsecond conversion far inside llround()'s defined int64 range.
constexpr double kMaxDurationSeconds = 10.0 * 365 * 24 * 3600;

Status StoreMinutes(std::string_view v, SimTime* out, bool allow_zero, const char* what) {
  Result<double> parsed = ParseDouble(v);
  if (!parsed.ok()) return parsed.status();
  if (parsed.value() < 0 || (!allow_zero && parsed.value() == 0) ||
      parsed.value() * 60.0 > kMaxDurationSeconds) {
    return Status::OutOfRange(std::string(what) + " must be " +
                              (allow_zero ? ">= 0" : "> 0") +
                              " and at most ten years of minutes, got " +
                              Quoted(TrimView(v)));
  }
  *out = MinutesOf(parsed.value());
  return Status::OK();
}

Status StoreSeconds(std::string_view v, SimTime* out, bool allow_zero, const char* what) {
  Result<double> parsed = ParseDouble(v);
  if (!parsed.ok()) return parsed.status();
  if (parsed.value() < 0 || (!allow_zero && parsed.value() == 0) ||
      parsed.value() > kMaxDurationSeconds) {
    return Status::OutOfRange(std::string(what) + " must be " +
                              (allow_zero ? ">= 0" : "> 0") +
                              " and at most ten years of seconds, got " +
                              Quoted(TrimView(v)));
  }
  *out = SecondsOf(parsed.value());
  return Status::OK();
}

Status StoreMillis(std::string_view v, SimTime* out, bool allow_zero, const char* what) {
  Result<double> parsed = ParseDouble(v);
  if (!parsed.ok()) return parsed.status();
  if (parsed.value() < 0 || (!allow_zero && parsed.value() == 0) ||
      parsed.value() / 1000.0 > kMaxDurationSeconds) {
    return Status::OutOfRange(std::string(what) + " must be " +
                              (allow_zero ? ">= 0" : "> 0") +
                              " and at most ten years of milliseconds, got " +
                              Quoted(TrimView(v)));
  }
  *out = static_cast<SimTime>(std::llround(parsed.value() * kMillisecond));
  return Status::OK();
}

std::string FormatMillis(SimTime t) { return FormatNumber(ToSeconds(t) * 1000.0); }

Status StoreBool(std::string_view v, bool* out) {
  Result<bool> parsed = ParseBool(v);
  if (!parsed.ok()) return parsed.status();
  *out = parsed.value();
  return Status::OK();
}

/// Every ExperimentConfig knob, in canonical writer order. The macro-free
/// table keeps apply and format side by side so a knob cannot be writable
/// but not readable (the round-trip test walks this same table).
const KeyInfo kKeys[] = {
    {"policy", SetPolicy,
     [](const ExperimentConfig& c) { return std::string(harness::PolicyName(c.policy)); }},
    {"source", SetSource,
     [](const ExperimentConfig& c) {
       return std::string(workload::DataSourceKindName(c.source));
     }},
    {"topology", SetTopology,
     [](const ExperimentConfig& c) {
       return std::string(harness::TopologyPresetName(c.preset));
     }},
    {"nodes",
     [](ExperimentConfig* c, std::string_view v) {
       return StoreInt(v, &c->num_nodes, 2, kMaxSupportedNodes, "nodes");
     },
     [](const ExperimentConfig& c) { return std::to_string(c.num_nodes); }},
    {"duration_minutes",
     [](ExperimentConfig* c, std::string_view v) {
       return StoreMinutes(v, &c->duration, /*allow_zero=*/false, "duration_minutes");
     },
     [](const ExperimentConfig& c) { return FormatNumber(ToMinutes(c.duration)); }},
    {"stabilization_minutes",
     [](ExperimentConfig* c, std::string_view v) {
       return StoreMinutes(v, &c->stabilization, /*allow_zero=*/true,
                           "stabilization_minutes");
     },
     [](const ExperimentConfig& c) { return FormatNumber(ToMinutes(c.stabilization)); }},
    {"sample_interval_seconds",
     [](ExperimentConfig* c, std::string_view v) {
       return StoreSeconds(v, &c->sample_interval, /*allow_zero=*/false,
                           "sample_interval_seconds");
     },
     [](const ExperimentConfig& c) { return FormatNumber(ToSeconds(c.sample_interval)); }},
    {"summary_interval_seconds",
     [](ExperimentConfig* c, std::string_view v) {
       return StoreSeconds(v, &c->summary_interval, /*allow_zero=*/false,
                           "summary_interval_seconds");
     },
     [](const ExperimentConfig& c) { return FormatNumber(ToSeconds(c.summary_interval)); }},
    {"remap_interval_seconds",
     [](ExperimentConfig* c, std::string_view v) {
       return StoreSeconds(v, &c->remap_interval, /*allow_zero=*/false,
                           "remap_interval_seconds");
     },
     [](const ExperimentConfig& c) { return FormatNumber(ToSeconds(c.remap_interval)); }},
    {"queries",
     [](ExperimentConfig* c, std::string_view v) { return StoreBool(v, &c->queries_enabled); },
     [](const ExperimentConfig& c) { return FormatBool(c.queries_enabled); }},
    {"query_interval_seconds",
     [](ExperimentConfig* c, std::string_view v) {
       return StoreSeconds(v, &c->query_interval, /*allow_zero=*/false,
                           "query_interval_seconds");
     },
     [](const ExperimentConfig& c) { return FormatNumber(ToSeconds(c.query_interval)); }},
    {"query_burst_size",
     [](ExperimentConfig* c, std::string_view v) {
       return StoreInt(v, &c->query_burst_size, 1, 1000, "query_burst_size");
     },
     [](const ExperimentConfig& c) { return std::to_string(c.query_burst_size); }},
    {"query_burst_spacing_seconds",
     [](ExperimentConfig* c, std::string_view v) {
       return StoreSeconds(v, &c->query_burst_spacing, /*allow_zero=*/false,
                           "query_burst_spacing_seconds");
     },
     [](const ExperimentConfig& c) {
       return FormatNumber(ToSeconds(c.query_burst_spacing));
     }},
    {"query_mode",
     [](ExperimentConfig* c, std::string_view v) {
       std::string_view s = TrimView(v);
       if (s == "range") c->query_mode = ExperimentConfig::QueryMode::kValueRange;
       else if (s == "node-list") c->query_mode = ExperimentConfig::QueryMode::kNodeList;
       else return Status::InvalidArgument("unknown query_mode " + Quoted(v) +
                                           " (expected range|node-list)");
       return Status::OK();
     },
     [](const ExperimentConfig& c) {
       return std::string(c.query_mode == ExperimentConfig::QueryMode::kNodeList
                              ? "node-list"
                              : "range");
     }},
    {"query_width_lo",
     [](ExperimentConfig* c, std::string_view v) {
       return StoreDouble(v, &c->query_width_lo, 0.0, 1.0, "query_width_lo");
     },
     [](const ExperimentConfig& c) { return FormatNumber(c.query_width_lo); }},
    {"query_width_hi",
     [](ExperimentConfig* c, std::string_view v) {
       return StoreDouble(v, &c->query_width_hi, 0.0, 1.0, "query_width_hi");
     },
     [](const ExperimentConfig& c) { return FormatNumber(c.query_width_hi); }},
    {"node_list_fraction",
     [](ExperimentConfig* c, std::string_view v) {
       return StoreDouble(v, &c->node_list_fraction, 0.0, 1.0, "node_list_fraction");
     },
     [](const ExperimentConfig& c) { return FormatNumber(c.node_list_fraction); }},
    {"history_window_seconds",
     [](ExperimentConfig* c, std::string_view v) {
       return StoreSeconds(v, &c->query_history_window, /*allow_zero=*/false,
                           "history_window_seconds");
     },
     [](const ExperimentConfig& c) {
       return FormatNumber(ToSeconds(c.query_history_window));
     }},
    {"summary_history_window_minutes",
     [](ExperimentConfig* c, std::string_view v) {
       return StoreMinutes(v, &c->summary_history_window, /*allow_zero=*/true,
                           "summary_history_window_minutes");
     },
     [](const ExperimentConfig& c) {
       return FormatNumber(ToMinutes(c.summary_history_window));
     }},
    {"summary_history_epoch_minutes",
     [](ExperimentConfig* c, std::string_view v) {
       return StoreMinutes(v, &c->summary_history_epoch, /*allow_zero=*/false,
                           "summary_history_epoch_minutes");
     },
     [](const ExperimentConfig& c) {
       return FormatNumber(ToMinutes(c.summary_history_epoch));
     }},
    {"trials",
     [](ExperimentConfig* c, std::string_view v) {
       return StoreInt(v, &c->trials, 1, 10000, "trials");
     },
     [](const ExperimentConfig& c) { return std::to_string(c.trials); }},
    {"seed",
     [](ExperimentConfig* c, std::string_view v) {
       Result<uint64_t> parsed = ParseUint(v);
       if (!parsed.ok()) return parsed.status();
       c->seed = parsed.value();
       return Status::OK();
     },
     [](const ExperimentConfig& c) { return std::to_string(c.seed); }},
    {"shards",
     [](ExperimentConfig* c, std::string_view v) {
       return StoreInt(v, &c->shards, 0, 64, "shards");
     },
     [](const ExperimentConfig& c) { return std::to_string(c.shards); }},
    {"partition", SetPartition,
     [](const ExperimentConfig& c) {
       return std::string(sim::PartitionKindName(c.partition));
     }},
    // Typed fault injection (src/fault/). The fault.crash_* keys configure
    // crash-stop waves through the ExperimentConfig failure_* fields.
    {"fault.crash_fraction",
     [](ExperimentConfig* c, std::string_view v) {
       return StoreDouble(v, &c->node_failure_fraction, 0.0, 1.0, "fault.crash_fraction");
     },
     [](const ExperimentConfig& c) { return FormatNumber(c.node_failure_fraction); }},
    {"fault.crash_minute",
     [](ExperimentConfig* c, std::string_view v) {
       return StoreMinutes(v, &c->failure_time, /*allow_zero=*/true, "fault.crash_minute");
     },
     [](const ExperimentConfig& c) { return FormatNumber(ToMinutes(c.failure_time)); }},
    {"fault.crash_wave_count",
     [](ExperimentConfig* c, std::string_view v) {
       return StoreInt(v, &c->failure_wave_count, 1, 1000, "fault.crash_wave_count");
     },
     [](const ExperimentConfig& c) { return std::to_string(c.failure_wave_count); }},
    {"fault.crash_wave_interval_minutes",
     [](ExperimentConfig* c, std::string_view v) {
       return StoreMinutes(v, &c->failure_wave_interval, /*allow_zero=*/false,
                           "fault.crash_wave_interval_minutes");
     },
     [](const ExperimentConfig& c) {
       return FormatNumber(ToMinutes(c.failure_wave_interval));
     }},
    {"fault.reboot_fraction",
     [](ExperimentConfig* c, std::string_view v) {
       return StoreDouble(v, &c->fault.reboot_fraction, 0.0, 1.0, "fault.reboot_fraction");
     },
     [](const ExperimentConfig& c) { return FormatNumber(c.fault.reboot_fraction); }},
    {"fault.reboot_minute",
     [](ExperimentConfig* c, std::string_view v) {
       return StoreMinutes(v, &c->fault.reboot_time, /*allow_zero=*/true,
                           "fault.reboot_minute");
     },
     [](const ExperimentConfig& c) { return FormatNumber(ToMinutes(c.fault.reboot_time)); }},
    {"fault.reboot_wave_count",
     [](ExperimentConfig* c, std::string_view v) {
       return StoreInt(v, &c->fault.reboot_wave_count, 1, 1000, "fault.reboot_wave_count");
     },
     [](const ExperimentConfig& c) { return std::to_string(c.fault.reboot_wave_count); }},
    {"fault.reboot_wave_interval_minutes",
     [](ExperimentConfig* c, std::string_view v) {
       return StoreMinutes(v, &c->fault.reboot_wave_interval, /*allow_zero=*/false,
                           "fault.reboot_wave_interval_minutes");
     },
     [](const ExperimentConfig& c) {
       return FormatNumber(ToMinutes(c.fault.reboot_wave_interval));
     }},
    {"fault.reboot_downtime_seconds",
     [](ExperimentConfig* c, std::string_view v) {
       return StoreSeconds(v, &c->fault.reboot_downtime, /*allow_zero=*/false,
                           "fault.reboot_downtime_seconds");
     },
     [](const ExperimentConfig& c) {
       return FormatNumber(ToSeconds(c.fault.reboot_downtime));
     }},
    {"fault.link_degrade_factor",
     [](ExperimentConfig* c, std::string_view v) {
       return StoreDouble(v, &c->fault.link_degrade_factor, 0.0, 1.0,
                          "fault.link_degrade_factor");
     },
     [](const ExperimentConfig& c) { return FormatNumber(c.fault.link_degrade_factor); }},
    {"fault.link_degrade_start_minute",
     [](ExperimentConfig* c, std::string_view v) {
       return StoreMinutes(v, &c->fault.link_degrade_start, /*allow_zero=*/true,
                           "fault.link_degrade_start_minute");
     },
     [](const ExperimentConfig& c) {
       return FormatNumber(ToMinutes(c.fault.link_degrade_start));
     }},
    {"fault.link_degrade_end_minute",
     [](ExperimentConfig* c, std::string_view v) {
       return StoreMinutes(v, &c->fault.link_degrade_end, /*allow_zero=*/true,
                           "fault.link_degrade_end_minute");
     },
     [](const ExperimentConfig& c) {
       return FormatNumber(ToMinutes(c.fault.link_degrade_end));
     }},
    {"fault.link_degrade_x_lo",
     [](ExperimentConfig* c, std::string_view v) {
       return StoreDouble(v, &c->fault.link_degrade_x_lo, 0.0, 1.0,
                          "fault.link_degrade_x_lo");
     },
     [](const ExperimentConfig& c) { return FormatNumber(c.fault.link_degrade_x_lo); }},
    {"fault.link_degrade_x_hi",
     [](ExperimentConfig* c, std::string_view v) {
       return StoreDouble(v, &c->fault.link_degrade_x_hi, 0.0, 1.0,
                          "fault.link_degrade_x_hi");
     },
     [](const ExperimentConfig& c) { return FormatNumber(c.fault.link_degrade_x_hi); }},
    {"fault.link_degrade_y_lo",
     [](ExperimentConfig* c, std::string_view v) {
       return StoreDouble(v, &c->fault.link_degrade_y_lo, 0.0, 1.0,
                          "fault.link_degrade_y_lo");
     },
     [](const ExperimentConfig& c) { return FormatNumber(c.fault.link_degrade_y_lo); }},
    {"fault.link_degrade_y_hi",
     [](ExperimentConfig* c, std::string_view v) {
       return StoreDouble(v, &c->fault.link_degrade_y_hi, 0.0, 1.0,
                          "fault.link_degrade_y_hi");
     },
     [](const ExperimentConfig& c) { return FormatNumber(c.fault.link_degrade_y_hi); }},
    {"fault.partition_start_minute",
     [](ExperimentConfig* c, std::string_view v) {
       return StoreMinutes(v, &c->fault.partition_start, /*allow_zero=*/true,
                           "fault.partition_start_minute");
     },
     [](const ExperimentConfig& c) {
       return FormatNumber(ToMinutes(c.fault.partition_start));
     }},
    {"fault.partition_end_minute",
     [](ExperimentConfig* c, std::string_view v) {
       return StoreMinutes(v, &c->fault.partition_end, /*allow_zero=*/true,
                           "fault.partition_end_minute");
     },
     [](const ExperimentConfig& c) {
       return FormatNumber(ToMinutes(c.fault.partition_end));
     }},
    {"fault.partition_x_lo",
     [](ExperimentConfig* c, std::string_view v) {
       return StoreDouble(v, &c->fault.partition_x_lo, 0.0, 1.0, "fault.partition_x_lo");
     },
     [](const ExperimentConfig& c) { return FormatNumber(c.fault.partition_x_lo); }},
    {"fault.partition_x_hi",
     [](ExperimentConfig* c, std::string_view v) {
       return StoreDouble(v, &c->fault.partition_x_hi, 0.0, 1.0, "fault.partition_x_hi");
     },
     [](const ExperimentConfig& c) { return FormatNumber(c.fault.partition_x_hi); }},
    {"fault.partition_y_lo",
     [](ExperimentConfig* c, std::string_view v) {
       return StoreDouble(v, &c->fault.partition_y_lo, 0.0, 1.0, "fault.partition_y_lo");
     },
     [](const ExperimentConfig& c) { return FormatNumber(c.fault.partition_y_lo); }},
    {"fault.partition_y_hi",
     [](ExperimentConfig* c, std::string_view v) {
       return StoreDouble(v, &c->fault.partition_y_hi, 0.0, 1.0, "fault.partition_y_hi");
     },
     [](const ExperimentConfig& c) { return FormatNumber(c.fault.partition_y_hi); }},
    {"fault.base_outage_start_minute",
     [](ExperimentConfig* c, std::string_view v) {
       return StoreMinutes(v, &c->fault.base_outage_start, /*allow_zero=*/true,
                           "fault.base_outage_start_minute");
     },
     [](const ExperimentConfig& c) {
       return FormatNumber(ToMinutes(c.fault.base_outage_start));
     }},
    {"fault.base_outage_end_minute",
     [](ExperimentConfig* c, std::string_view v) {
       return StoreMinutes(v, &c->fault.base_outage_end, /*allow_zero=*/true,
                           "fault.base_outage_end_minute");
     },
     [](const ExperimentConfig& c) {
       return FormatNumber(ToMinutes(c.fault.base_outage_end));
     }},
    {"fault.base_backup",
     [](ExperimentConfig* c, std::string_view v) {
       return StoreInt(v, &c->fault.base_backup, 0, kMaxSupportedNodes,
                       "fault.base_backup");
     },
     [](const ExperimentConfig& c) { return std::to_string(c.fault.base_backup); }},
    {"fault.orphan_rehoming",
     [](ExperimentConfig* c, std::string_view v) {
       return StoreBool(v, &c->fault.orphan_rehoming);
     },
     [](const ExperimentConfig& c) { return FormatBool(c.fault.orphan_rehoming); }},
    {"fault.send_retry_max",
     [](ExperimentConfig* c, std::string_view v) {
       return StoreInt(v, &c->fault.send_retry_max, 0, 100, "fault.send_retry_max");
     },
     [](const ExperimentConfig& c) { return std::to_string(c.fault.send_retry_max); }},
    {"fault.send_retry_backoff_ms",
     [](ExperimentConfig* c, std::string_view v) {
       return StoreMillis(v, &c->fault.send_retry_backoff, /*allow_zero=*/false,
                          "fault.send_retry_backoff_ms");
     },
     [](const ExperimentConfig& c) { return FormatMillis(c.fault.send_retry_backoff); }},
    {"fault.query_reissue_max",
     [](ExperimentConfig* c, std::string_view v) {
       return StoreInt(v, &c->fault.query_reissue_max, 0, 100, "fault.query_reissue_max");
     },
     [](const ExperimentConfig& c) { return std::to_string(c.fault.query_reissue_max); }},
    {"max_batch",
     [](ExperimentConfig* c, std::string_view v) {
       return StoreInt(v, &c->max_batch, 1, 1000, "max_batch");
     },
     [](const ExperimentConfig& c) { return std::to_string(c.max_batch); }},
    {"neighbor_shortcut",
     [](ExperimentConfig* c, std::string_view v) {
       return StoreBool(v, &c->enable_neighbor_shortcut);
     },
     [](const ExperimentConfig& c) { return FormatBool(c.enable_neighbor_shortcut); }},
    {"descendant_routing",
     [](ExperimentConfig* c, std::string_view v) {
       return StoreBool(v, &c->enable_descendant_routing);
     },
     [](const ExperimentConfig& c) { return FormatBool(c.enable_descendant_routing); }},
    {"suppression_similarity",
     [](ExperimentConfig* c, std::string_view v) {
       return StoreDouble(v, &c->suppression_similarity, 0.0, 1.0, "suppression_similarity");
     },
     [](const ExperimentConfig& c) { return FormatNumber(c.suppression_similarity); }},
    {"consider_store_local",
     [](ExperimentConfig* c, std::string_view v) {
       return StoreBool(v, &c->builder.consider_store_local);
     },
     [](const ExperimentConfig& c) { return FormatBool(c.builder.consider_store_local); }},
    {"owner_set",
     [](ExperimentConfig* c, std::string_view v) {
       return StoreInt(v, &c->builder.owner_set_size, 1, kMaxSupportedNodes, "owner_set");
     },
     [](const ExperimentConfig& c) { return std::to_string(c.builder.owner_set_size); }},
    {"range_granularity",
     [](ExperimentConfig* c, std::string_view v) {
       return StoreInt(v, &c->builder.range_granularity, 1, 1 << 20, "range_granularity");
     },
     [](const ExperimentConfig& c) { return std::to_string(c.builder.range_granularity); }},
    {"owner_hysteresis",
     [](ExperimentConfig* c, std::string_view v) {
       return StoreDouble(v, &c->builder.owner_hysteresis, 0.0, 1.0, "owner_hysteresis");
     },
     [](const ExperimentConfig& c) { return FormatNumber(c.builder.owner_hysteresis); }},
    {"domain_lo",
     [](ExperimentConfig* c, std::string_view v) {
       return StoreInt(v, &c->source_options.domain_lo, -(1 << 30), 1 << 30, "domain_lo");
     },
     [](const ExperimentConfig& c) { return std::to_string(c.source_options.domain_lo); }},
    {"domain_hi",
     [](ExperimentConfig* c, std::string_view v) {
       return StoreInt(v, &c->source_options.domain_hi, -(1 << 30), 1 << 30, "domain_hi");
     },
     [](const ExperimentConfig& c) { return std::to_string(c.source_options.domain_hi); }},
    {"equal_value",
     [](ExperimentConfig* c, std::string_view v) {
       return StoreInt(v, &c->source_options.equal_value, -(1 << 30), 1 << 30, "equal_value");
     },
     [](const ExperimentConfig& c) { return std::to_string(c.source_options.equal_value); }},
    {"gaussian_variance",
     [](ExperimentConfig* c, std::string_view v) {
       return StoreDouble(v, &c->source_options.gaussian_variance, 0.0, 1e9,
                          "gaussian_variance");
     },
     [](const ExperimentConfig& c) {
       return FormatNumber(c.source_options.gaussian_variance);
     }},
    {"gaussian_mean_skew",
     [](ExperimentConfig* c, std::string_view v) {
       return StoreDouble(v, &c->source_options.gaussian_mean_skew, 0.01, 100.0,
                          "gaussian_mean_skew");
     },
     [](const ExperimentConfig& c) {
       return FormatNumber(c.source_options.gaussian_mean_skew);
     }},
    {"real_domain_hi",
     [](ExperimentConfig* c, std::string_view v) {
       return StoreInt(v, &c->source_options.real_domain_hi, 1, 1 << 30, "real_domain_hi");
     },
     [](const ExperimentConfig& c) {
       return std::to_string(c.source_options.real_domain_hi);
     }},
    {"real_shared_weight",
     [](ExperimentConfig* c, std::string_view v) {
       return StoreDouble(v, &c->source_options.real_shared_weight, 0.0, 1.0,
                          "real_shared_weight");
     },
     [](const ExperimentConfig& c) {
       return FormatNumber(c.source_options.real_shared_weight);
     }},
    {"real_correlation_meters",
     [](ExperimentConfig* c, std::string_view v) {
       return StoreDouble(v, &c->source_options.real_correlation_meters, 0.01, 1e6,
                          "real_correlation_meters");
     },
     [](const ExperimentConfig& c) {
       return FormatNumber(c.source_options.real_correlation_meters);
     }},
    {"real_noise",
     [](ExperimentConfig* c, std::string_view v) {
       return StoreDouble(v, &c->source_options.real_noise, 0.0, 1e6, "real_noise");
     },
     [](const ExperimentConfig& c) { return FormatNumber(c.source_options.real_noise); }},
    {"energy_tx_nj_per_bit",
     [](ExperimentConfig* c, std::string_view v) {
       return StoreDouble(v, &c->energy.tx_nj_per_bit, 0.0, 1e9, "energy_tx_nj_per_bit");
     },
     [](const ExperimentConfig& c) { return FormatNumber(c.energy.tx_nj_per_bit); }},
    {"energy_rx_nj_per_bit",
     [](ExperimentConfig* c, std::string_view v) {
       return StoreDouble(v, &c->energy.rx_nj_per_bit, 0.0, 1e9, "energy_rx_nj_per_bit");
     },
     [](const ExperimentConfig& c) { return FormatNumber(c.energy.rx_nj_per_bit); }},
    {"energy_flash_write_nj_per_bit",
     [](ExperimentConfig* c, std::string_view v) {
       return StoreDouble(v, &c->energy.flash_write_nj_per_bit, 0.0, 1e9,
                          "energy_flash_write_nj_per_bit");
     },
     [](const ExperimentConfig& c) { return FormatNumber(c.energy.flash_write_nj_per_bit); }},
    {"energy_battery_joules",
     [](ExperimentConfig* c, std::string_view v) {
       return StoreDouble(v, &c->energy.battery_joules, 0.0, 1e12, "energy_battery_joules");
     },
     [](const ExperimentConfig& c) { return FormatNumber(c.energy.battery_joules); }},
    // Observability (src/obs/). Path keys use the "off" sentinel because a
    // .scn value cannot be empty; "off"/"none" both mean disabled.
    {"obs.trace_out",
     [](ExperimentConfig* c, std::string_view v) {
       std::string_view s = TrimView(v);
       c->trace_out = (s == "off" || s == "none") ? std::string() : std::string(s);
       return Status::OK();
     },
     [](const ExperimentConfig& c) {
       return c.trace_out.empty() ? std::string("off") : c.trace_out;
     }},
    {"obs.metrics_out",
     [](ExperimentConfig* c, std::string_view v) {
       std::string_view s = TrimView(v);
       c->metrics_out = (s == "off" || s == "none") ? std::string() : std::string(s);
       return Status::OK();
     },
     [](const ExperimentConfig& c) {
       return c.metrics_out.empty() ? std::string("off") : c.metrics_out;
     }},
    {"obs.metrics_interval_seconds",
     [](ExperimentConfig* c, std::string_view v) {
       return StoreSeconds(v, &c->metrics_interval, /*allow_zero=*/false,
                           "obs.metrics_interval_seconds");
     },
     [](const ExperimentConfig& c) { return FormatNumber(ToSeconds(c.metrics_interval)); }},
    {"obs.profile",
     [](ExperimentConfig* c, std::string_view v) { return StoreBool(v, &c->profile); },
     [](const ExperimentConfig& c) { return FormatBool(c.profile); }},
};

const KeyInfo* FindKey(std::string_view key) {
  for (const KeyInfo& info : kKeys) {
    if (key == info.key) return &info;
  }
  return nullptr;
}

/// Expands a sweep value list: comma-separated tokens, where a lone
/// "lo..hi" token expands to the inclusive integer range.
Result<std::vector<std::string>> ExpandSweepValues(std::string_view text) {
  std::vector<std::string> values;
  size_t start = 0;
  std::string spec(text);
  while (start <= spec.size()) {
    size_t comma = spec.find(',', start);
    std::string_view token =
        TrimView(std::string_view(spec).substr(start, comma == std::string::npos
                                                          ? std::string::npos
                                                          : comma - start));
    if (token.empty()) return Status::InvalidArgument("empty sweep value");
    size_t dots = token.find("..");
    bool is_range = dots != std::string_view::npos &&
                    token.find("..", dots + 1) == std::string_view::npos;
    if (is_range) {
      Result<int64_t> lo = ParseInt(token.substr(0, dots));
      Result<int64_t> hi = ParseInt(token.substr(dots + 2));
      if (!lo.ok() || !hi.ok() || lo.value() > hi.value()) {
        return Status::InvalidArgument("bad range " + Quoted(token) +
                                       " (expected 'lo..hi' with lo <= hi)");
      }
      // Unsigned subtraction: exact for lo <= hi even when the signed
      // difference would overflow (e.g. INT64_MIN..INT64_MAX).
      uint64_t span =
          static_cast<uint64_t>(hi.value()) - static_cast<uint64_t>(lo.value());
      if (span >= 100000) {
        return Status::OutOfRange("range " + Quoted(token) + " has more than 100000 values");
      }
      // Count iterations instead of comparing v <= hi: ++v past hi would
      // be signed overflow when hi == INT64_MAX.
      int64_t v = lo.value();
      for (uint64_t i = 0;; ++i) {
        values.push_back(std::to_string(v));
        if (i == span) break;
        ++v;
      }
    } else {
      values.emplace_back(token);
    }
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return values;
}

/// Strips a trailing comment: " # ..." (hash preceded by whitespace).
std::string_view StripTrailingComment(std::string_view line) {
  for (size_t i = 1; i < line.size(); ++i) {
    if (line[i] == '#' && std::isspace(static_cast<unsigned char>(line[i - 1]))) {
      return line.substr(0, i);
    }
  }
  return line;
}

std::string Position(std::string_view origin, int line, size_t col) {
  return std::string(origin) + ":" + std::to_string(line) + ":" + std::to_string(col + 1) +
         ": ";
}

}  // namespace

std::string FormatShortestDouble(double v) {
  char buf[64];
  for (int precision = 6; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

Status ValidateConfig(const harness::ExperimentConfig& config) {
  if (config.query_width_lo > config.query_width_hi) {
    return Status::InvalidArgument("query_width_lo must be <= query_width_hi");
  }
  if (config.source_options.domain_lo > config.source_options.domain_hi) {
    return Status::InvalidArgument("domain_lo must be <= domain_hi");
  }
  if (config.fault.base_outage_end > config.fault.base_outage_start &&
      config.fault.base_backup != 0 &&
      config.fault.base_backup >= config.num_nodes) {
    return Status::InvalidArgument(
        "fault.base_backup must name an existing non-base node (< nodes)");
  }
  return Status::OK();
}

Status ApplyScenarioKey(harness::ExperimentConfig* config, std::string_view key,
                        std::string_view value) {
  const KeyInfo* info = FindKey(key);
  if (info == nullptr) return Status::NotFound("unknown key " + Quoted(key));
  return info->apply(config, value);
}

std::vector<std::string> ScenarioKeyNames() {
  std::vector<std::string> names;
  for (const KeyInfo& info : kKeys) names.emplace_back(info.key);
  return names;
}

Result<Scenario> ParseScenario(std::string_view text, std::string_view origin) {
  Scenario scenario;
  std::vector<std::string> seen_keys;
  bool have_name = false;

  int line_no = 0;
  size_t pos = 0;
  while (pos <= text.size()) {
    size_t eol = text.find('\n', pos);
    std::string_view raw = text.substr(pos, eol == std::string_view::npos ? std::string_view::npos
                                                                          : eol - pos);
    ++line_no;
    size_t line_start = pos;
    pos = (eol == std::string_view::npos) ? text.size() + 1 : eol + 1;

    std::string_view line = StripTrailingComment(raw);
    std::string_view trimmed = TrimView(line);
    if (trimmed.empty() || trimmed.front() == '#' || trimmed.front() == ';') continue;

    size_t eq = line.find('=');
    if (eq == std::string_view::npos) {
      return Status::InvalidArgument(Position(origin, line_no, 0) +
                                     "expected 'key = value', got " + Quoted(trimmed));
    }
    std::string_view key = TrimView(line.substr(0, eq));
    std::string_view value = TrimView(line.substr(eq + 1));
    size_t key_col = text.find_first_not_of(" \t", line_start) - line_start;
    size_t value_col = eq + 1;
    while (value_col < line.size() &&
           std::isspace(static_cast<unsigned char>(line[value_col]))) {
      ++value_col;
    }
    if (key.empty()) {
      return Status::InvalidArgument(Position(origin, line_no, 0) + "missing key before '='");
    }
    if (value.empty()) {
      return Status::InvalidArgument(Position(origin, line_no, value_col) +
                                     "missing value for key " + Quoted(key));
    }
    if (std::find(seen_keys.begin(), seen_keys.end(), std::string(key)) != seen_keys.end()) {
      return Status::InvalidArgument(Position(origin, line_no, key_col) + "duplicate key " +
                                     Quoted(key));
    }
    seen_keys.emplace_back(key);

    if (key == "name") {
      scenario.name = std::string(value);
      have_name = true;
      continue;
    }
    if (key == "description") {
      scenario.description = std::string(value);
      continue;
    }
    if (key.substr(0, 6) == "sweep.") {
      std::string_view axis_key = key.substr(6);
      const KeyInfo* info = FindKey(axis_key);
      if (info == nullptr) {
        return Status::InvalidArgument(Position(origin, line_no, key_col) +
                                       "unknown sweep key " + Quoted(axis_key));
      }
      Result<std::vector<std::string>> values = ExpandSweepValues(value);
      if (!values.ok()) {
        return Status::InvalidArgument(Position(origin, line_no, value_col) +
                                       values.status().message());
      }
      // Validate every axis value now, against one scratch config (each
      // apply overwrites the same field), so sweep typos fail at parse
      // time instead of mid-campaign.
      ExperimentConfig scratch = scenario.base;
      for (const std::string& v : values.value()) {
        Status s = info->apply(&scratch, v);
        if (!s.ok()) {
          return Status::InvalidArgument(Position(origin, line_no, value_col) + "sweep " +
                                         Quoted(axis_key) + ": " + s.message());
        }
      }
      scenario.sweeps.push_back(SweepAxis{std::string(axis_key), std::move(values).value()});
      continue;
    }

    const KeyInfo* info = FindKey(key);
    if (info == nullptr) {
      return Status::InvalidArgument(Position(origin, line_no, key_col) + "unknown key " +
                                     Quoted(key));
    }
    Status s = info->apply(&scenario.base, value);
    if (!s.ok()) {
      return Status::InvalidArgument(Position(origin, line_no, value_col) + s.message());
    }
  }

  if (!have_name) {
    return Status::InvalidArgument(std::string(origin) + ": missing required key 'name'");
  }
  Status valid = ValidateConfig(scenario.base);
  if (!valid.ok()) {
    return Status::InvalidArgument(std::string(origin) + ": " + valid.message());
  }
  return scenario;
}

std::string FormatScenario(const Scenario& scenario) {
  // Newlines and whitespace-preceded '#' cannot appear in a .scn value
  // (they would end the value or start a comment), so sanitize free-text
  // fields to keep the emitted file parseable.
  auto sanitize = [](std::string_view s) {
    std::string out;
    for (char c : s) {
      if (c == '\n' || c == '\r' || c == '\t') c = ' ';
      if (c == '#' && (out.empty() || out.back() == ' ')) continue;
      out += c;
    }
    return std::string(TrimView(out));
  };
  std::string out;
  std::string name = sanitize(scenario.name);
  out += "name = " + (name.empty() ? "unnamed" : name) + "\n";
  if (!scenario.description.empty()) {
    std::string description = sanitize(scenario.description);
    if (!description.empty()) out += "description = " + description + "\n";
  }
  for (const KeyInfo& info : kKeys) {
    out += std::string(info.key) + " = " + info.format(scenario.base) + "\n";
  }
  for (const SweepAxis& axis : scenario.sweeps) {
    out += "sweep." + axis.key + " = ";
    for (size_t i = 0; i < axis.values.size(); ++i) {
      if (i > 0) out += ", ";
      out += axis.values[i];
    }
    out += "\n";
  }
  return out;
}

}  // namespace scoop::scenario
