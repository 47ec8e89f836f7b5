// Tiny shared helper for the tools' --flag / --flag=value parsing.
#ifndef SCOOP_TOOLS_CLI_FLAGS_H_
#define SCOOP_TOOLS_CLI_FLAGS_H_

#include <cstring>

namespace scoop::tools {

/// Matches `arg` against `--name` (then *value = nullptr) or `--name=...`
/// (then *value points at the text after '='). Returns false otherwise.
inline bool MatchFlag(const char* arg, const char* name, const char** value) {
  size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0) return false;
  if (arg[len] == '\0') {
    *value = nullptr;
    return true;
  }
  if (arg[len] == '=') {
    *value = arg + len + 1;
    return true;
  }
  return false;
}

/// A flag that sets one scenario key. With `fixed` set it is a switch: it
/// applies `fixed` and ignores any `=value`; otherwise it needs `--flag=v`.
struct KeyFlag {
  const char* flag;
  const char* key;
  const char* fixed = nullptr;
};

/// The entry of `flags` that `arg` names, with the value it applies in
/// *value; nullptr when none matches (or a valued flag has no value).
template <size_t N>
const KeyFlag* MatchKeyFlag(const char* arg, const KeyFlag (&flags)[N], const char** value) {
  for (const KeyFlag& f : flags) {
    if (!MatchFlag(arg, f.flag, value)) continue;
    if (f.fixed != nullptr) *value = f.fixed;
    return *value != nullptr ? &f : nullptr;
  }
  return nullptr;
}

}  // namespace scoop::tools

#endif  // SCOOP_TOOLS_CLI_FLAGS_H_
