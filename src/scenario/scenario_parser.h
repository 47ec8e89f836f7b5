// Parser and writer for the ".scn" scenario format: a dependency-free
// INI-style text format covering every ExperimentConfig knob.
//
//   # Figure 3 (middle), as a scenario.
//   name = fig3_middle
//   description = Scoop vs LOCAL, HASH, BASE over the REAL trace
//   source = real                  # real|unique|equal|random|gaussian
//   topology = random              # testbed|random|grid
//   sweep.policy = scoop, local, hash, base
//   sweep.seed = 1..4              # integer ranges expand inclusively
//
// One `key = value` per line; `#` (whole-line or trailing) and `;`
// (whole-line) start comments. Errors carry "<origin>:<line>:<col>"
// positions. `sweep.<key>` declares a sweep axis over any scalar key;
// values are comma-separated, or `lo..hi` for inclusive integer ranges.
// A value, or one sweep element, may be a double-quoted string, inside
// which `#`, `,` and `..` are literal, `\` escapes the next character
// and `\n` is a newline:
//
//   obs.trace_out = "runs/a #1.json"
//   sweep.obs.metrics_out = "m #1.jsonl", m2.jsonl
#ifndef SCOOP_SCENARIO_SCENARIO_PARSER_H_
#define SCOOP_SCENARIO_SCENARIO_PARSER_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "scenario/scenario.h"

namespace scoop::scenario {

/// Parses `text` as a .scn scenario. `origin` (a file name or "<registry>")
/// prefixes every diagnostic. Requires a `name` key; rejects unknown keys,
/// duplicate keys, malformed values, and out-of-range settings.
Result<Scenario> ParseScenario(std::string_view text, std::string_view origin = "<string>");

/// Applies one scenario key to a config ("nodes" = "63"). This is the same
/// setter table the parser uses, exposed so the campaign runner can apply
/// sweep-axis values; errors carry no position prefix.
Status ApplyScenarioKey(harness::ExperimentConfig* config, std::string_view key,
                        std::string_view value);

/// Cross-field invariants that single-key setters cannot enforce:
/// query_width_lo <= query_width_hi, domain_lo <= domain_hi, a base backup
/// that exists, sample_interval <= summary_interval, stabilization <
/// duration, and a set partition window that ends after it starts.
/// ParseScenario applies this to the base config and the campaign runner
/// to every sweep-expanded combo, so a sweep cannot smuggle in an invalid
/// configuration.
Status ValidateConfig(const harness::ExperimentConfig& config);

/// All recognized config keys, in canonical (writer) order.
std::vector<std::string> ScenarioKeyNames();

/// Serializes a scenario back to .scn text emitting every config key, such
/// that ParseScenario(FormatScenario(s)) reproduces `s` exactly. Values
/// that would not read back bare (a comment-starting '#', a quote, a
/// newline, surrounding whitespace, or a ',' or ".." inside a sweep list)
/// are written as double-quoted strings. The exceptions: the name and
/// description are written bare, with newlines and tabs flattened to
/// spaces and quotes and comment-starting '#' dropped, and a path spelled
/// "off" or "none" reads back as disabled.
std::string FormatScenario(const Scenario& scenario);

/// Shortest decimal string that strtod parses back to exactly `v`. Shared
/// by the .scn writer and the CSV/JSON reporters: it depends only on the
/// double's bits, which is what makes their output thread-count-invariant.
std::string FormatShortestDouble(double v);

}  // namespace scoop::scenario

#endif  // SCOOP_SCENARIO_SCENARIO_PARSER_H_
