// Leveled, sim-time-stamped logging. Disabled (kWarning threshold) by
// default so simulations stay quiet; the CLIs raise verbosity with -v/-vv
// and tests/examples can call SetLogLevel directly.
//
// Sim-time stamps: an engine thread registers a clock provider
// (ScopedLogClock) for its lifetime; every SCOOP_LOG line emitted from
// that thread is then prefixed with the current simulated time. The
// provider is thread-local, so the sharded engine's K worker threads each
// stamp with their own shard clock without any synchronization.
//
// Lines go to stderr.
#ifndef SCOOP_COMMON_LOGGING_H_
#define SCOOP_COMMON_LOGGING_H_

#include <sstream>

#include "common/sim_time.h"

namespace scoop {

/// Log severity, ordered by verbosity.
enum class LogLevel : int {
  kDebug = 0,
  kInfo = 1,
  kWarning = 2,
  kError = 3,
};

/// Sets the global minimum level that is actually emitted.
void SetLogLevel(LogLevel level);

/// Returns the current global minimum level.
LogLevel GetLogLevel();

/// Maps a -v count (0 = default, 1 = -v, >= 2 = -vv) to a threshold:
/// kWarning / kInfo / kDebug.
LogLevel LogLevelForVerbosity(int verbosity);

/// Registers `fn(ctx)` as the calling thread's sim clock for this scope.
/// A raw function pointer + context (rather than std::function) so the
/// thread-local slot is trivially destructible.
class ScopedLogClock {
 public:
  using NowFn = SimTime (*)(const void* ctx);

  ScopedLogClock(NowFn fn, const void* ctx);
  ~ScopedLogClock();

  ScopedLogClock(const ScopedLogClock&) = delete;
  ScopedLogClock& operator=(const ScopedLogClock&) = delete;

 private:
  NowFn previous_fn_;
  const void* previous_ctx_;
};

namespace internal {

/// Accumulates one log line and emits it on destruction.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  std::ostringstream& stream() { return stream_; }

 private:
  std::ostringstream stream_;
};

}  // namespace internal
}  // namespace scoop

#define SCOOP_LOG(level)                                                      \
  if (::scoop::LogLevel::level < ::scoop::GetLogLevel()) {                    \
  } else                                                                      \
    ::scoop::internal::LogMessage(::scoop::LogLevel::level, __FILE__, __LINE__).stream()

#endif  // SCOOP_COMMON_LOGGING_H_
