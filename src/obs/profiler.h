// Sim profiler: wall-clock attribution of engine time to subsystem
// buckets (event-queue bookkeeping, radio walks, agent callbacks, shard
// synchronization). Surfaced through `--perf-json` so the bench
// trajectory can prove -- rather than assert -- where a run's wall time
// goes (e.g. whether a queue change moves the kQueue bucket at all, or
// only the radio and agent buckets it feeds).
//
// Implementation: a single running steady_clock stopwatch whose elapsed
// time is attributed to the *current* bucket at every Switch(). One clock
// read per transition -- no per-bucket start/stop pairs -- keeps the
// instrumented run within a few percent of the clean one, and the whole
// thing is absent (branch-on-null) unless `obs.profile` is on. Wall-clock
// readings never feed back into simulation state, so profiled runs stay
// bit-identical to unprofiled ones.
#ifndef SCOOP_OBS_PROFILER_H_
#define SCOOP_OBS_PROFILER_H_

#include <chrono>
#include <cstdint>

namespace scoop::obs {

class SimProfiler {
 public:
  enum Bucket : uint8_t {
    kQueue = 0,      ///< Event-queue pop/push/sift and run-loop overhead.
    kRadio = 1,      ///< MAC/CSMA decisions and the delivery walk.
    kAgent = 2,      ///< Protocol-agent callbacks (timers, receive paths).
    kShardSync = 3,  ///< Mailbox drains, EPT publication, stall spins.
    kOther = 4,      ///< Everything outside instrumented regions.
    kNumBuckets = 5,
  };

  static const char* BucketName(Bucket bucket);

  SimProfiler() : mark_(std::chrono::steady_clock::now()) {}

  /// Attributes the time since the previous transition to the current
  /// bucket, then makes `bucket` current. Returns the previous bucket so
  /// callers (ScopedBucket) can restore it.
  Bucket Switch(Bucket bucket) {
    auto now = std::chrono::steady_clock::now();
    nanos_[current_] += (now - mark_).count();
    mark_ = now;
    Bucket previous = current_;
    current_ = bucket;
    return previous;
  }

  /// Flushes the in-flight interval into the current bucket (call once
  /// when the run loop exits, before reading totals).
  void Stop() { Switch(current_); }

  /// Discards the interval since the last transition instead of
  /// attributing it. Called at the top of a run loop so setup wall time
  /// (topology build, agent installation) never lands in a bucket.
  void Restart() { mark_ = std::chrono::steady_clock::now(); }

  double Seconds(Bucket bucket) const {
    return static_cast<double>(nanos_[bucket]) * 1e-9;
  }

  /// Sums another profiler's buckets into this one (per-shard merge).
  void MergeFrom(const SimProfiler& other) {
    for (int i = 0; i < kNumBuckets; ++i) nanos_[i] += other.nanos_[i];
  }

 private:
  int64_t nanos_[kNumBuckets] = {};
  Bucket current_ = kOther;
  std::chrono::steady_clock::time_point mark_;
};

/// RAII bucket switch; null profiler makes it a no-op.
class ScopedBucket {
 public:
  ScopedBucket(SimProfiler* profiler, SimProfiler::Bucket bucket)
      : profiler_(profiler) {
    if (profiler_ != nullptr) previous_ = profiler_->Switch(bucket);
  }
  ~ScopedBucket() {
    if (profiler_ != nullptr) profiler_->Switch(previous_);
  }
  ScopedBucket(const ScopedBucket&) = delete;
  ScopedBucket& operator=(const ScopedBucket&) = delete;

 private:
  SimProfiler* profiler_;
  SimProfiler::Bucket previous_ = SimProfiler::kOther;
};

}  // namespace scoop::obs

#endif  // SCOOP_OBS_PROFILER_H_
