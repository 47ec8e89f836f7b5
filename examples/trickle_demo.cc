// Drives a TrickleTimer directly on the discrete-event queue, printing each
// interval's tau and whether the node broadcast or suppressed. Shows the
// sim layer used standalone (ShardQueue + Rng + a pure state machine), the
// cancel/reschedule pattern every Scoop agent uses, and the exponential
// decay of steady-state Trickle traffic (§5.3): tau doubles from 2 s to
// 64 s, the mapping gossip's bounds.
#include <cstdio>

#include "common/rng.h"
#include "common/sim_time.h"
#include "sim/shard.h"
#include "trickle/trickle_timer.h"

namespace {

using namespace scoop;

// The owner pattern every Scoop agent uses: schedule the time Trickle
// returns, on each event schedule the next, and on an inconsistency cancel
// the pending event and reschedule at the reset time.
struct Driver {
  sim::ShardQueue* queue;
  trickle::TrickleTimer* timer;
  sim::EventId pending = sim::kInvalidEventId;

  void ScheduleNext(SimTime at) {
    pending = queue->ScheduleRegular(at, /*origin=*/0, [this] { OnEvent(); });
  }

  void OnEvent() {
    trickle::TrickleTimer::Action action = timer->OnEvent(queue->now());
    if (action.should_broadcast) {
      std::printf("%10.2f  %8.0f  broadcast\n", ToSeconds(queue->now()),
                  ToSeconds(timer->tau()));
    }
    ScheduleNext(action.next_event);
  }

  void OnInconsistent() {
    std::printf("%10.2f  %8s  inconsistency heard -> reset to tau_min\n",
                ToSeconds(queue->now()), "-");
    if (auto reset_at = timer->OnInconsistent(queue->now())) {
      queue->Cancel(pending);
      ScheduleNext(*reset_at);
    }
  }
};

}  // namespace

int main() {
  sim::ShardQueue queue(/*num_origins=*/1);
  Rng rng(7);
  trickle::TrickleTimer timer(&rng);

  std::printf("%10s  %8s  %s\n", "t (s)", "tau (s)", "action");

  Driver driver{&queue, &timer, sim::kInvalidEventId};
  driver.ScheduleNext(timer.Start(0));

  // After four minutes of quiet network, inject an inconsistency: tau
  // collapses back to tau_min and the gossip rate spikes.
  queue.ScheduleRegular(Minutes(4), /*origin=*/0, [&driver] { driver.OnInconsistent(); });

  const SimTime end = Minutes(8);
  while (queue.HeadTime() <= end) queue.RunOne();
  queue.AdvanceTo(end);
  std::printf("\n%llu events processed over %.0f simulated minutes\n",
              static_cast<unsigned long long>(queue.processed()), ToSeconds(queue.now()) / 60);
  return 0;
}
