// Microbenchmarks of the discrete-event queue (ShardQueue) hot path:
// steady-state schedule/run churn, the schedule/cancel/run mix that
// Trickle timers and radio timeouts generate, a cancel-heavy soak that
// exercises compaction, and MAC-backoff churn.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "sim/shard.h"

namespace scoop {
namespace {

/// ShardQueue scheduling phase-2 events round-robin over a node-sized
/// origin space (as a grid's agents and MACs do), so the canonical-key
/// ordering is exercised too.
class BenchQueue {
 public:
  static constexpr uint32_t kOrigins = 1024;

  BenchQueue() : q_(kOrigins) {}

  sim::EventId ScheduleAfter(SimTime delay, sim::ShardQueue::Callback fn) {
    origin_ = origin_ + 1 == kOrigins ? 0 : origin_ + 1;
    return q_.ScheduleRegular(q_.now() + delay, origin_, std::move(fn));
  }
  void Cancel(sim::EventId id) { q_.Cancel(id); }
  bool RunOne() { return q_.RunOne(); }

 private:
  sim::ShardQueue q_;
  uint32_t origin_ = 0;
};

// Deterministic delay pattern (xorshift).
struct DelayGen {
  uint64_t state = 0x9e3779b97f4a7c15ull;
  SimTime Next() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return static_cast<SimTime>(state % 997 + 1);
  }
};

// ---------------------------------------------------------------------------
// Steady-state churn: a window of pending events; each iteration runs the
// earliest and schedules a replacement. Callbacks carry a radio-sized
// capture (this-pointer plus three 64-bit values), which overflows
// std::function's 16-byte inline buffer but fits SmallCallback's.
void BM_ScheduleRunChurn(benchmark::State& state) {
  BenchQueue q;
  DelayGen delays;
  uint64_t sink = 0;
  const int window = static_cast<int>(state.range(0));
  for (int i = 0; i < window; ++i) {
    uint64_t a = i, b = i + 1, c = i + 2;
    q.ScheduleAfter(delays.Next(), [&sink, a, b, c] { sink += a + b + c; });
  }
  for (auto _ : state) {
    q.RunOne();
    uint64_t a = sink, b = sink + 1, c = sink + 2;
    q.ScheduleAfter(delays.Next(), [&sink, a, b, c] { sink += a ^ b ^ c; });
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ScheduleRunChurn)->Arg(1024);

// ---------------------------------------------------------------------------
// A schedule/cancel/run mix. Each iteration
// schedules two events, cancels an aged one (as retransmission timeouts
// do) and replaces it, and runs one -- so the pending window stays stable
// and every iteration pays one of each hot-path operation.
void BM_MixedScheduleCancelRun(benchmark::State& state) {
  BenchQueue q;
  DelayGen delays;
  uint64_t sink = 0;
  const int window = static_cast<int>(state.range(0));
  std::vector<sim::EventId> aged(static_cast<size_t>(window), sim::kInvalidEventId);
  size_t cursor = 0;
  for (int i = 0; i < window; ++i) {
    uint64_t a = i, b = i + 1, c = i + 2;
    aged[static_cast<size_t>(i)] =
        q.ScheduleAfter(delays.Next(), [&sink, a, b, c] { sink += a + b + c; });
  }
  for (auto _ : state) {
    uint64_t a = sink, b = sink + 1, c = sink + 2;
    q.ScheduleAfter(delays.Next(), [&sink, a, b, c] { sink += a ^ b ^ c; });
    q.Cancel(aged[cursor]);
    aged[cursor] =
        q.ScheduleAfter(delays.Next(), [&sink, a, b, c] { sink += a + b - c; });
    cursor = (cursor + 1) % aged.size();
    q.RunOne();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MixedScheduleCancelRun)->Arg(256);

// ---------------------------------------------------------------------------
// Trickle soak: N timers that each cancel and reschedule every round, with
// one event run per round. Every cancel strands an entry in place, so the
// queue stays bounded only through compaction.
void BM_TrickleCancelReschedule(benchmark::State& state) {
  BenchQueue q;
  DelayGen delays;
  uint64_t sink = 0;
  const int timers = static_cast<int>(state.range(0));
  std::vector<sim::EventId> pending(static_cast<size_t>(timers));
  for (int i = 0; i < timers; ++i) {
    pending[static_cast<size_t>(i)] =
        q.ScheduleAfter(delays.Next(), [&sink] { ++sink; });
  }
  size_t cursor = 0;
  for (auto _ : state) {
    q.Cancel(pending[cursor]);
    pending[cursor] = q.ScheduleAfter(delays.Next(), [&sink] { ++sink; });
    cursor = (cursor + 1) % pending.size();
    if (cursor == 0) q.RunOne();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TrickleCancelReschedule)->Arg(64);

// ---------------------------------------------------------------------------
// MAC-backoff churn: N contending senders, each holding one pending CSMA
// backoff timer drawn from the radio's binary-exponential distribution
// (fresh window [8, 16) ms, doubling per busy attempt, capped at 64 ms --
// radio_options.h defaults). Most timers are cancelled before they fire
// (the channel went busy again) and re-armed with the next window; one in
// eight rounds runs the due timer instead.
struct BackoffGen {
  uint64_t state = 0x243f6a8885a308d3ull;
  uint64_t Next() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  }
  /// Uniform draw in [w/2, w) for the 1-based attempt's window.
  SimTime Draw(int attempt) {
    SimTime w = 16000 << (attempt - 1);  // us; fresh window tops at 16 ms.
    if (w > 64000) w = 64000;            // BEB cap.
    return w / 2 + static_cast<SimTime>(Next() % static_cast<uint64_t>(w / 2));
  }
};

void BM_MacBackoffChurn(benchmark::State& state) {
  BenchQueue q;
  BackoffGen rng;
  uint64_t sink = 0;
  const int n = static_cast<int>(state.range(0));
  std::vector<sim::EventId> timer(static_cast<size_t>(n));
  std::vector<uint8_t> attempt(static_cast<size_t>(n), 1);
  for (int i = 0; i < n; ++i) {
    timer[static_cast<size_t>(i)] = q.ScheduleAfter(rng.Draw(1), [&sink] { ++sink; });
  }
  size_t cursor = 0;
  for (auto _ : state) {
    if ((cursor & 7) == 7) {
      // The channel cleared: run the due timer; its sender re-arms fresh.
      if (q.RunOne()) q.ScheduleAfter(rng.Draw(1), [&sink] { ++sink; });
    } else {
      // Busy again: cancel the pending backoff before it fires and re-arm
      // with the doubled window -- the dominant MAC churn pattern.
      q.Cancel(timer[cursor]);
      uint8_t& a = attempt[cursor];
      a = a >= 4 ? 1 : static_cast<uint8_t>(a + 1);
      timer[cursor] = q.ScheduleAfter(rng.Draw(a), [&sink] { ++sink; });
    }
    cursor = (cursor + 1) % static_cast<size_t>(n);
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MacBackoffChurn)->Arg(128)->Arg(1024)->Arg(8192);

}  // namespace
}  // namespace scoop

BENCHMARK_MAIN();
