// Structured tracing: sim-time-stamped spans and instants recorded per
// engine thread and exported as Chrome trace-event JSON (loadable in
// Perfetto / chrome://tracing). SimTime is already microseconds, which is
// exactly the trace format's `ts` unit, so the viewer's time axis IS
// simulated time.
//
// Design constraints (see ISSUE 7):
//  - Observation-only: recording an event never draws randomness, never
//    schedules or reorders simulator events. Golden campaign CSVs stay
//    byte-identical with tracing on.
//  - Zero overhead when off: every instrumentation site holds a nullable
//    `TraceSink*` and compiles to a branch-on-null. No sink, no cost.
//  - One sink per engine shard (each shard runs on its own thread),
//    merged at export time with pid = shard index. Sinks are NOT
//    thread-safe by design.
#ifndef SCOOP_OBS_TRACE_H_
#define SCOOP_OBS_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/sim_time.h"

namespace scoop::obs {

/// Event category; becomes the trace's `cat` field, which viewers use for
/// filtering. Keep in sync with TraceCatName().
enum class TraceCat : uint8_t {
  kPacket = 0,     ///< Packet lifecycle: originate, tx, deliver, drop.
  kMac = 1,        ///< CSMA internals: backoff windows, CCA retries.
  kQuery = 2,      ///< Query lifecycle: issue, replies, close.
  kIndex = 3,      ///< Index build / suppress / disseminate.
  kShardSync = 4,  ///< Null-message waits, announce/abort/ack mirroring.
  kFault = 5,      ///< Injected faults: crash, reboot, link windows, failover.
};

const char* TraceCatName(TraceCat cat);

/// One recorded event. Compact by construction: names and argument keys
/// must be string literals (or otherwise outlive the sink) -- the sink
/// stores the pointer, never copies.
struct TraceEvent {
  SimTime ts = 0;
  SimTime dur = -1;  ///< >= 0: an "X" complete span; < 0: an "i" instant.
  const char* name = nullptr;
  TraceCat cat = TraceCat::kPacket;
  uint16_t tid = 0;  ///< Track within the shard; node id for node events.
  const char* arg1_name = nullptr;  ///< Optional first argument key.
  uint64_t arg1 = 0;
  const char* arg2_name = nullptr;  ///< Optional second argument key.
  uint64_t arg2 = 0;
};

/// Track id used for events that belong to a shard rather than a node
/// (EPT stalls, mailbox drains). Outside the NodeId space.
inline constexpr uint16_t kEngineTid = 0xFFFF;

/// Append-only event buffer for one engine thread.
class TraceSink {
 public:
  /// Hard cap on recorded events; further events are counted, not stored,
  /// so a pathological run degrades to a truncated trace instead of an
  /// OOM. ~48 B/event puts the default around 400 MB worst case.
  static constexpr size_t kDefaultMaxEvents = size_t{1} << 23;

  explicit TraceSink(size_t max_events = kDefaultMaxEvents)
      : max_events_(max_events) {}

  void Span(SimTime start, SimTime dur, const char* name, TraceCat cat,
            uint16_t tid, const char* arg1_name = nullptr, uint64_t arg1 = 0,
            const char* arg2_name = nullptr, uint64_t arg2 = 0) {
    Push(start, dur >= 0 ? dur : 0, name, cat, tid, arg1_name, arg1,
         arg2_name, arg2);
  }

  void Instant(SimTime ts, const char* name, TraceCat cat, uint16_t tid,
               const char* arg1_name = nullptr, uint64_t arg1 = 0,
               const char* arg2_name = nullptr, uint64_t arg2 = 0) {
    Push(ts, -1, name, cat, tid, arg1_name, arg1, arg2_name, arg2);
  }

  const std::vector<TraceEvent>& events() const { return events_; }
  size_t size() const { return events_.size(); }
  /// Events discarded after hitting the cap.
  uint64_t dropped() const { return dropped_; }

 private:
  void Push(SimTime ts, SimTime dur, const char* name, TraceCat cat,
            uint16_t tid, const char* arg1_name, uint64_t arg1,
            const char* arg2_name, uint64_t arg2) {
    if (events_.size() >= max_events_) {
      ++dropped_;
      return;
    }
    TraceEvent& e = events_.emplace_back();
    e.ts = ts;
    e.dur = dur;
    e.name = name;
    e.cat = cat;
    e.tid = tid;
    e.arg1_name = arg1_name;
    e.arg1 = arg1;
    e.arg2_name = arg2_name;
    e.arg2 = arg2;
  }

  std::vector<TraceEvent> events_;
  size_t max_events_;
  uint64_t dropped_ = 0;
};

/// Merges per-shard sinks into one Chrome trace-event JSON document.
/// `sinks[k]` becomes pid k, so each shard renders as its own process
/// group in the viewer; events are stably sorted by timestamp.
std::string ExportChromeTrace(const std::vector<const TraceSink*>& sinks);

}  // namespace scoop::obs

#endif  // SCOOP_OBS_TRACE_H_
