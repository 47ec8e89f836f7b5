// Glue between TrickleTimer and the simulator: owns the scheduled event and
// invokes a broadcast callback when Trickle decides to transmit.
#ifndef SCOOP_TRICKLE_TRICKLE_DRIVER_H_
#define SCOOP_TRICKLE_TRICKLE_DRIVER_H_

#include <functional>

#include "sim/app.h"
#include "trickle/trickle_timer.h"

namespace scoop::trickle {

/// Runs one TrickleTimer on top of a sim::Context.
class TrickleDriver {
 public:
  /// `broadcast_fn` is invoked whenever Trickle fires unsuppressed. The
  /// callback may decline to send (e.g., nothing to share yet).
  TrickleDriver(sim::Context* ctx, std::function<void()> broadcast_fn);
  ~TrickleDriver();

  TrickleDriver(const TrickleDriver&) = delete;
  TrickleDriver& operator=(const TrickleDriver&) = delete;

  /// Starts the timer (idempotent reset to tau_min).
  void Start();

  /// Stops the timer; Start() may be called again later.
  void Stop();

  /// Reports a consistent message heard (suppression).
  void NoteConsistent() { timer_.OnConsistent(); }

  /// Reports an inconsistency: resets the interval to tau_min.
  void NoteInconsistent();

  /// Current interval length (for tests).
  SimTime tau() const { return timer_.tau(); }

  /// Keeps the interval at tau_min while set (nodes still assembling).
  void set_hold_at_min(bool hold) { timer_.set_hold_at_min(hold); }

 private:
  void Arm(SimTime at);
  void HandleEvent();

  sim::Context* ctx_;
  TrickleTimer timer_;
  std::function<void()> broadcast_fn_;
  sim::EventId pending_ = sim::kInvalidEventId;
  bool running_ = false;
};

}  // namespace scoop::trickle

#endif  // SCOOP_TRICKLE_TRICKLE_DRIVER_H_
