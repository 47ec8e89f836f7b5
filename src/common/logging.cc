#include "common/logging.h"

#include <cstdio>

namespace scoop {

namespace {
LogLevel g_level = LogLevel::kWarning;

thread_local ScopedLogClock::NowFn t_clock_fn = nullptr;
thread_local const void* t_clock_ctx = nullptr;

/// Reads the calling thread's registered sim clock; false when none.
bool CurrentLogSimTime(SimTime* out) {
  if (t_clock_fn == nullptr) return false;
  *out = t_clock_fn(t_clock_ctx);
  return true;
}

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarning:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
  }
  return "?";
}
}  // namespace

void SetLogLevel(LogLevel level) { g_level = level; }
LogLevel GetLogLevel() { return g_level; }

LogLevel LogLevelForVerbosity(int verbosity) {
  if (verbosity <= 0) return LogLevel::kWarning;
  if (verbosity == 1) return LogLevel::kInfo;
  return LogLevel::kDebug;
}

ScopedLogClock::ScopedLogClock(NowFn fn, const void* ctx)
    : previous_fn_(t_clock_fn), previous_ctx_(t_clock_ctx) {
  t_clock_fn = fn;
  t_clock_ctx = ctx;
}

ScopedLogClock::~ScopedLogClock() {
  t_clock_fn = previous_fn_;
  t_clock_ctx = previous_ctx_;
}

namespace internal {

LogMessage::LogMessage(LogLevel level, const char* file, int line) {
  stream_ << "[" << LevelName(level);
  SimTime now = 0;
  if (CurrentLogSimTime(&now)) {
    char stamp[32];
    std::snprintf(stamp, sizeof(stamp), " t=%.6fs", ToSeconds(now));
    stream_ << stamp;
  }
  stream_ << " " << file << ":" << line << "] ";
}

LogMessage::~LogMessage() { std::fprintf(stderr, "%s\n", stream_.str().c_str()); }

}  // namespace internal
}  // namespace scoop
