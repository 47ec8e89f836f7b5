#include "scenario/scenario_parser.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <initializer_list>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

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

/// Appends every part in turn. Diagnostics are built this way rather than
/// with operator+ chains, which GCC 12's -O3 -Wrestrict false-positives on.
template <typename... Parts>
std::string Concat(const Parts&... parts) {
  std::string out;
  (out.append(parts), ...);
  return out;
}

// Upper bound on any single duration value: one simulated decade. Keeps
// the microsecond conversion far inside llround()'s defined int64 range.
constexpr double kMaxDurationSeconds = 10.0 * 365 * 24 * 3600;

/// A duration unit: the three conversions a duration key needs, each in
/// the evaluation order the format has always used. One "microseconds per
/// unit" factor would round differently and move formatted output.
struct TimeUnit {
  const char* name;
  double (*seconds)(double);  ///< For the ten-year bound.
  SimTime (*parse)(double);   ///< Rounds, so format -> parse is exact.
  double (*format)(SimTime);
};

const TimeUnit kMinutes{
    "minutes", [](double m) { return m * 60.0; },
    [](double m) { return static_cast<SimTime>(std::llround(m * 60.0 * kSecond)); },
    [](SimTime t) { return ToSeconds(t) / 60.0; }};
const TimeUnit kSeconds{
    "seconds", [](double s) { return s; },
    [](double s) { return static_cast<SimTime>(std::llround(s * kSecond)); },
    [](SimTime t) { return ToSeconds(t); }};

const char* QueryModeName(ExperimentConfig::QueryMode mode) {
  return mode == ExperimentConfig::QueryMode::kNodeList ? "node-list" : "range";
}

// --- the key table --------------------------------------------------------

/// One scenario key: how to apply a textual value to an ExperimentConfig
/// and how to print the current value back out (for FormatScenario).
struct KeyInfo {
  const char* key;
  std::function<Status(ExperimentConfig*, std::string_view)> apply;
  std::function<std::string(const ExperimentConfig&)> format;
};

/// "<key> must be <bound>, got '<value>'".
Status RangeError(const char* key, std::string_view bound, std::string_view v) {
  return Status::OutOfRange(Concat(key, " must be ", bound, ", got ", Quoted(TrimView(v))));
}

/// The shape every builder shares. `field` is a generic accessor
/// (`[](auto& c) -> auto& { return c.x; }`), so the setter and the
/// formatter cannot name different fields; `parse` returns the value to
/// store (range-checked) or the error, and `format` prints a stored value.
template <typename Field, typename Parse, typename Format>
KeyInfo MakeKey(const char* key, Field field, Parse parse, Format format) {
  return {key,
          [=](ExperimentConfig* c, std::string_view v) -> Status {
            auto parsed = parse(v);
            if (!parsed.ok()) return parsed.status();
            auto& out = field(*c);
            out = static_cast<std::remove_reference_t<decltype(out)>>(std::move(parsed).value());
            return Status::OK();
          },
          [=](const ExperimentConfig& c) { return format(field(c)); }};
}

template <typename Field>
KeyInfo IntKey(const char* key, Field field, int64_t lo, int64_t hi) {
  auto parse = [=](std::string_view v) -> Result<int64_t> {
    Result<int64_t> parsed = ParseInt(v);
    if (parsed.ok() && (parsed.value() < lo || parsed.value() > hi)) {
      return RangeError(key, Concat("in [", std::to_string(lo), ", ", std::to_string(hi), "]"),
                        v);
    }
    return parsed;
  };
  return MakeKey(key, field, parse, [](auto v) { return std::to_string(v); });
}

template <typename Field>
KeyInfo UintKey(const char* key, Field field) {
  return MakeKey(key, field, ParseUint, [](uint64_t v) { return std::to_string(v); });
}

template <typename Field>
KeyInfo DoubleKey(const char* key, Field field, double lo, double hi) {
  auto parse = [=](std::string_view v) -> Result<double> {
    Result<double> parsed = ParseDouble(v);
    if (parsed.ok() && (parsed.value() < lo || parsed.value() > hi)) {
      return RangeError(key, Concat("in [", FormatNumber(lo), ", ", FormatNumber(hi), "]"), v);
    }
    return parsed;
  };
  return MakeKey(key, field, parse, FormatNumber);
}

template <typename Field>
KeyInfo BoolKey(const char* key, Field field) {
  return MakeKey(key, field, ParseBool, FormatBool);
}

/// A duration in `unit`: >= 0 (> 0 unless `allow_zero`), at most ten years.
template <typename Field>
KeyInfo TimeKey(const char* key, Field field, const TimeUnit& unit, bool allow_zero) {
  auto parse = [=](std::string_view v) -> Result<SimTime> {
    Result<double> parsed = ParseDouble(v);
    if (!parsed.ok()) return parsed.status();
    double x = parsed.value();
    if (x < 0 || (!allow_zero && x == 0) || unit.seconds(x) > kMaxDurationSeconds) {
      return RangeError(
          key, Concat(allow_zero ? ">= 0" : "> 0", " and at most ten years of ", unit.name), v);
    }
    return unit.parse(x);
  };
  return MakeKey(key, field, parse, [=](SimTime t) { return FormatNumber(unit.format(t)); });
}

/// An output path, taken verbatim. A .scn value cannot be empty, so "off"
/// (or "none") means disabled and an empty path prints as "off".
template <typename Field>
KeyInfo PathKey(const char* key, Field field) {
  auto parse = [](std::string_view v) -> Result<std::string> {
    return (v == "off" || v == "none") ? std::string() : std::string(v);
  };
  return MakeKey(key, field, parse,
                 [](const std::string& p) { return p.empty() ? std::string("off") : p; });
}

/// An enum spelled by its `name` function; `values` fixes the order of the
/// "(expected a|b|c)" list in the rejection.
template <typename Field, typename Enum>
KeyInfo EnumKey(const char* key, Field field, const char* (*name)(Enum),
                std::initializer_list<Enum> values) {
  auto parse = [=, all = std::vector<Enum>(values)](std::string_view v) -> Result<Enum> {
    std::string expected;
    for (Enum e : all) {
      if (TrimView(v) == name(e)) return e;
      expected.append(expected.empty() ? "" : "|").append(name(e));
    }
    return Status::InvalidArgument(
        Concat("unknown ", key, " ", Quoted(v), " (expected ", expected, ")"));
  };
  return MakeKey(key, field, parse, [=](Enum e) { return std::string(name(e)); });
}

/// Every ExperimentConfig knob, in canonical writer order. Each key is
/// declared once: its name, the one field it reads and writes, its kind
/// and its bounds. The builders derive the setter, the formatter and the
/// diagnostics from that entry, and enum spellings come from the enum's
/// own *Name() function. The round-trip tests walk this same table.
const std::vector<KeyInfo>& Keys() {
  constexpr bool kZeroOk = true;
  constexpr bool kPositive = false;
  static const std::vector<KeyInfo> keys = {
      EnumKey("policy", [](auto& c) -> auto& { return c.policy; }, harness::PolicyName,
              {Policy::kScoop, Policy::kLocal, Policy::kBase, Policy::kHashAnalytical,
               Policy::kHashSim}),
      EnumKey("source", [](auto& c) -> auto& { return c.source; }, workload::DataSourceKindName,
              {DataSourceKind::kReal, DataSourceKind::kUnique, DataSourceKind::kEqual,
               DataSourceKind::kRandom, DataSourceKind::kGaussian}),
      EnumKey("topology", [](auto& c) -> auto& { return c.preset; }, harness::TopologyPresetName,
              {TopologyPreset::kTestbed, TopologyPreset::kRandom, TopologyPreset::kGrid}),
      IntKey("nodes", [](auto& c) -> auto& { return c.num_nodes; }, 2, kMaxSupportedNodes),
      TimeKey("duration_minutes", [](auto& c) -> auto& { return c.duration; }, kMinutes,
              kPositive),
      TimeKey("stabilization_minutes", [](auto& c) -> auto& { return c.stabilization; },
              kMinutes, kZeroOk),
      TimeKey("sample_interval_seconds", [](auto& c) -> auto& { return c.sample_interval; },
              kSeconds, kPositive),
      TimeKey("summary_interval_seconds", [](auto& c) -> auto& { return c.summary_interval; },
              kSeconds, kPositive),
      TimeKey("remap_interval_seconds", [](auto& c) -> auto& { return c.remap_interval; },
              kSeconds, kPositive),
      BoolKey("queries", [](auto& c) -> auto& { return c.queries_enabled; }),
      TimeKey("query_interval_seconds", [](auto& c) -> auto& { return c.query_interval; },
              kSeconds, kPositive),
      IntKey("query_burst_size", [](auto& c) -> auto& { return c.query_burst_size; }, 1, 1000),
      TimeKey("query_burst_spacing_seconds",
              [](auto& c) -> auto& { return c.query_burst_spacing; }, kSeconds, kPositive),
      EnumKey("query_mode", [](auto& c) -> auto& { return c.query_mode; }, QueryModeName,
              {ExperimentConfig::QueryMode::kValueRange, ExperimentConfig::QueryMode::kNodeList}),
      DoubleKey("query_width_lo", [](auto& c) -> auto& { return c.query_width_lo; }, 0.0, 1.0),
      DoubleKey("query_width_hi", [](auto& c) -> auto& { return c.query_width_hi; }, 0.0, 1.0),
      DoubleKey("node_list_fraction", [](auto& c) -> auto& { return c.node_list_fraction; },
                0.0, 1.0),
      IntKey("trials", [](auto& c) -> auto& { return c.trials; }, 1, 10000),
      UintKey("seed", [](auto& c) -> auto& { return c.seed; }),
      IntKey("shards", [](auto& c) -> auto& { return c.shards; }, 0, 64),
      EnumKey("partition", [](auto& c) -> auto& { return c.partition; }, sim::PartitionKindName,
              {sim::PartitionKind::kStrip, sim::PartitionKind::kMincut}),
      // Typed fault injection (src/fault/). The fault.crash_* keys configure
      // crash-stop waves through the ExperimentConfig failure_* fields.
      DoubleKey("fault.crash_fraction", [](auto& c) -> auto& { return c.node_failure_fraction; },
                0.0, 1.0),
      TimeKey("fault.crash_minute", [](auto& c) -> auto& { return c.failure_time; }, kMinutes,
              kZeroOk),
      IntKey("fault.crash_wave_count", [](auto& c) -> auto& { return c.failure_wave_count; }, 1,
             1000),
      TimeKey("fault.crash_wave_interval_minutes",
              [](auto& c) -> auto& { return c.failure_wave_interval; }, kMinutes, kPositive),
      DoubleKey("fault.reboot_fraction", [](auto& c) -> auto& { return c.fault.reboot_fraction; },
                0.0, 1.0),
      TimeKey("fault.reboot_minute", [](auto& c) -> auto& { return c.fault.reboot_time; },
              kMinutes, kZeroOk),
      IntKey("fault.reboot_wave_count",
             [](auto& c) -> auto& { return c.fault.reboot_wave_count; }, 1, 1000),
      TimeKey("fault.reboot_wave_interval_minutes",
              [](auto& c) -> auto& { return c.fault.reboot_wave_interval; }, kMinutes, kPositive),
      TimeKey("fault.reboot_downtime_seconds",
              [](auto& c) -> auto& { return c.fault.reboot_downtime; }, kSeconds, kPositive),
      TimeKey("fault.partition_start_minute",
              [](auto& c) -> auto& { return c.fault.partition_start; }, kMinutes, kZeroOk),
      TimeKey("fault.partition_end_minute",
              [](auto& c) -> auto& { return c.fault.partition_end; }, kMinutes, kZeroOk),
      DoubleKey("fault.partition_x_lo", [](auto& c) -> auto& { return c.fault.partition_x_lo; },
                0.0, 1.0),
      DoubleKey("fault.partition_x_hi", [](auto& c) -> auto& { return c.fault.partition_x_hi; },
                0.0, 1.0),
      TimeKey("fault.base_outage_start_minute",
              [](auto& c) -> auto& { return c.fault.base_outage_start; }, kMinutes, kZeroOk),
      TimeKey("fault.base_outage_end_minute",
              [](auto& c) -> auto& { return c.fault.base_outage_end; }, kMinutes, kZeroOk),
      IntKey("fault.base_backup", [](auto& c) -> auto& { return c.fault.base_backup; }, 0,
             kMaxSupportedNodes),
      BoolKey("fault.orphan_rehoming", [](auto& c) -> auto& { return c.fault.orphan_rehoming; }),
      IntKey("fault.send_retry_max", [](auto& c) -> auto& { return c.fault.send_retry_max; }, 0,
             100),
      IntKey("fault.query_reissue_max",
             [](auto& c) -> auto& { return c.fault.query_reissue_max; }, 0, 100),
      IntKey("max_batch", [](auto& c) -> auto& { return c.max_batch; }, 1, 1000),
      BoolKey("neighbor_shortcut", [](auto& c) -> auto& { return c.enable_neighbor_shortcut; }),
      BoolKey("descendant_routing", [](auto& c) -> auto& { return c.enable_descendant_routing; }),
      BoolKey("consider_store_local",
              [](auto& c) -> auto& { return c.builder.consider_store_local; }),
      IntKey("owner_set", [](auto& c) -> auto& { return c.builder.owner_set_size; }, 1,
             kMaxSupportedNodes),
      IntKey("range_granularity", [](auto& c) -> auto& { return c.builder.range_granularity; }, 1,
             1 << 20),
      DoubleKey("gaussian_mean_skew",
                [](auto& c) -> auto& { return c.source_options.gaussian_mean_skew; }, 0.01,
                100.0),
      // Observability (src/obs/).
      PathKey("obs.trace_out", [](auto& c) -> auto& { return c.trace_out; }),
      PathKey("obs.metrics_out", [](auto& c) -> auto& { return c.metrics_out; }),
      TimeKey("obs.metrics_interval_seconds",
              [](auto& c) -> auto& { return c.metrics_interval; }, kSeconds, kPositive),
      BoolKey("obs.profile", [](auto& c) -> auto& { return c.profile; }),
  };
  return keys;
}

const KeyInfo* FindKey(std::string_view key) {
  for (const KeyInfo& info : Keys()) {
    if (key == info.key) return &info;
  }
  return nullptr;
}

// --- quoted values ---------------------------------------------------------
//
// A value, or one element of a sweep list, is either bare text or a single
// double-quoted string. Inside quotes '#', ',' and ".." are literal, a
// backslash takes the next character literally, and "\n" is a newline.
// The writer quotes exactly the values that would not read back bare.

/// Index of the first character outside quotes at which `hit(s, i)` holds,
/// or npos. An unterminated quote hides the rest of `s`.
template <typename Hit>
size_t FindUnquoted(std::string_view s, Hit hit) {
  bool quoted = false;
  for (size_t i = 0; i < s.size(); ++i) {
    if (quoted) {
      if (s[i] == '\\') {
        ++i;
      } else if (s[i] == '"') {
        quoted = false;
      }
    } else if (s[i] == '"') {
      quoted = true;
    } else if (hit(s, i)) {
      return i;
    }
  }
  return std::string_view::npos;
}

/// True at a '#' that starts a comment: first on its line or after
/// whitespace.
bool CommentStart(std::string_view s, size_t i) {
  return s[i] == '#' && (i == 0 || std::isspace(static_cast<unsigned char>(s[i - 1])));
}

/// The text of a trimmed value token: bare text as is, one quoted string
/// unescaped.
Result<std::string> Unquote(std::string_view token) {
  if (token.empty() || token.front() != '"') {
    if (token.find('"') != std::string_view::npos) {
      return Status::InvalidArgument("a quote must enclose the whole value, got " +
                                     Quoted(token));
    }
    return std::string(token);
  }
  std::string out;
  for (size_t i = 1; i < token.size(); ++i) {
    char c = token[i];
    if (c == '"') {
      if (i + 1 != token.size()) {
        return Status::InvalidArgument("text after the closing quote in " + Quoted(token));
      }
      return out;
    }
    if (c == '\\' && i + 1 < token.size()) {
      c = token[++i];
      if (c == 'n') c = '\n';
    }
    out += c;
  }
  return Status::InvalidArgument("unterminated quote in " + Quoted(token));
}

/// `v` as the writer emits it: bare when it reads back unchanged, quoted
/// otherwise (surrounding whitespace, a quote, a newline, a comment-starting
/// '#', or a ',' or ".." that a sweep list would split or expand).
std::string FormatValue(std::string_view v) {
  bool bare = !v.empty() && !std::isspace(static_cast<unsigned char>(v.front())) &&
              !std::isspace(static_cast<unsigned char>(v.back())) &&
              v.find_first_of("\",\n") == std::string_view::npos &&
              v.find("..") == std::string_view::npos &&
              FindUnquoted(v, CommentStart) == std::string_view::npos;
  if (bare) return std::string(v);
  std::string out = "\"";
  for (char c : v) {
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
  return out;
}

/// Expands a sweep value list: comma-separated tokens, where a lone bare
/// "lo..hi" token expands to the inclusive integer range.
Result<std::vector<std::string>> ExpandSweepValues(std::string_view text) {
  std::vector<std::string> values;
  for (;;) {
    size_t comma = FindUnquoted(text, [](std::string_view s, size_t i) { return s[i] == ','; });
    std::string_view token = TrimView(text.substr(0, comma));
    if (token.empty()) return Status::InvalidArgument("empty sweep value");
    size_t dots = token.find("..");
    bool is_range = token.find('"') == std::string_view::npos &&
                    dots != std::string_view::npos &&
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
      Result<std::string> value = Unquote(token);
      if (!value.ok()) return value.status();
      values.push_back(std::move(value).value());
    }
    if (comma == std::string_view::npos) break;
    text.remove_prefix(comma + 1);
  }
  return values;
}

/// Strips a trailing comment: " # ..." (hash preceded by whitespace,
/// outside quotes).
std::string_view StripTrailingComment(std::string_view line) {
  return line.substr(0, FindUnquoted(line, [](std::string_view s, size_t i) {
                       return i > 0 && CommentStart(s, i);
                     }));
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
  // A Scoop node draws its first summary's phase between one sample
  // interval and one summary interval.
  if (config.sample_interval > config.summary_interval) {
    return Status::InvalidArgument(
        "sample_interval_seconds must be <= summary_interval_seconds");
  }
  if (config.stabilization >= config.duration) {
    return Status::InvalidArgument(
        "stabilization_minutes must be < duration_minutes (the measurement window would be "
        "empty)");
  }
  if ((config.fault.partition_start != 0 || config.fault.partition_end != 0) &&
      config.fault.partition_end <= config.fault.partition_start) {
    return Status::InvalidArgument(
        "fault.partition_end_minute must be > fault.partition_start_minute when a partition "
        "is set");
  }
  // The fault plan injects an outage only for a forward window with a
  // backup to promote; any other window set would run without one.
  if (config.fault.base_outage_start != 0 || config.fault.base_outage_end != 0) {
    if (config.fault.base_outage_end <= config.fault.base_outage_start) {
      return Status::InvalidArgument(
          "fault.base_outage_end_minute must be > fault.base_outage_start_minute when a base "
          "outage is set");
    }
    if (config.fault.base_backup == 0) {
      return Status::InvalidArgument(
          "fault.base_backup must be set (a non-base node) when a base outage is set");
    }
    if (config.fault.base_backup >= config.num_nodes) {
      return Status::InvalidArgument(
          "fault.base_backup must name an existing non-base node (< nodes)");
    }
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
  for (const KeyInfo& info : Keys()) names.emplace_back(info.key);
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

    // Sweep lists unquote element by element; every other value is one
    // token.
    const bool is_sweep = key.substr(0, 6) == "sweep.";
    Result<std::string> text = is_sweep ? std::string() : Unquote(value);
    if (!text.ok()) {
      return Status::InvalidArgument(Position(origin, line_no, value_col) +
                                     text.status().message());
    }
    if (key == "name") {
      scenario.name = std::move(text).value();
      have_name = true;
      continue;
    }
    if (key == "description") {
      scenario.description = std::move(text).value();
      continue;
    }
    if (is_sweep) {
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
    Status s = info->apply(&scenario.base, text.value());
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
  // Free text is written bare: newlines and tabs flatten to spaces, and
  // quotes and comment-starting '#' are dropped.
  auto sanitize = [](std::string_view s) {
    std::string out;
    for (char c : s) {
      if (c == '\n' || c == '\r' || c == '\t') c = ' ';
      if (c == '"' || (c == '#' && (out.empty() || out.back() == ' '))) continue;
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
  for (const KeyInfo& info : Keys()) {
    out += std::string(info.key) + " = " + FormatValue(info.format(scenario.base)) + "\n";
  }
  for (const SweepAxis& axis : scenario.sweeps) {
    out += "sweep." + axis.key + " = ";
    for (size_t i = 0; i < axis.values.size(); ++i) {
      if (i > 0) out += ", ";
      out += FormatValue(axis.values[i]);
    }
    out += "\n";
  }
  return out;
}

}  // namespace scoop::scenario
