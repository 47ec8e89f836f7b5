// The Trickle algorithm (Levis et al., NSDI'04) used by Scoop to
// disseminate storage-index chunks (§5.3). Pure state machine: the owner
// schedules callbacks at the times this class returns and reports heard
// traffic as consistent/inconsistent.
//
// Summary of the algorithm: time is divided into intervals of length tau in
// [tau_min, tau_max]. At a uniformly random point t in [tau/2, tau) of each
// interval the node broadcasts -- unless it already heard at least k
// consistent messages this interval ("polite gossip"). At the end of each
// interval tau doubles (up to tau_max). Hearing an inconsistency resets tau
// to tau_min, making propagation of news fast while steady-state traffic
// decays exponentially.
//
// Scoop runs one instance, the mapping gossip (§5.3), with tau in
// [2 s, 64 s] and k = 1.
#ifndef SCOOP_TRICKLE_TRICKLE_TIMER_H_
#define SCOOP_TRICKLE_TRICKLE_TIMER_H_

#include <optional>

#include "common/rng.h"
#include "common/sim_time.h"

namespace scoop::trickle {

/// One Trickle instance.
class TrickleTimer {
 public:
  /// Interval bounds. The fire point is drawn from [tau/2, tau - 1], so
  /// tau_min must be at least 2 microseconds.
  static constexpr SimTime kTauMin = Seconds(2);
  static constexpr SimTime kTauMax = Seconds(64);
  static_assert(kTauMin / 2 >= 1 && kTauMax >= kTauMin);
  /// Suppress our broadcast if we heard this many consistent messages in
  /// the current interval.
  static constexpr int kRedundancyK = 1;

  explicit TrickleTimer(Rng* rng);

  /// What the owner must do after calling an event-processing method.
  struct Action {
    /// True if the owner should broadcast its payload now.
    bool should_broadcast = false;
    /// Absolute time at which the owner must call OnEvent() next.
    SimTime next_event = 0;
  };

  /// Starts (or restarts) the timer at tau_min. Returns the first event time.
  SimTime Start(SimTime now);

  /// Must be called when the previously returned event time is reached.
  Action OnEvent(SimTime now);

  /// Records a consistent message heard this interval (suppression count).
  void OnConsistent() { ++heard_consistent_; }

  /// Records an inconsistency. Per the Trickle rules, the interval resets
  /// to tau_min only when tau > tau_min; a node already at tau_min keeps
  /// its current interval (otherwise gossip storms push the fire point
  /// forever). Returns the new next-event time when a reset happened,
  /// nullopt when the existing schedule stands.
  std::optional<SimTime> OnInconsistent(SimTime now);

  /// Current interval length.
  SimTime tau() const { return tau_; }

  /// Messages heard so far in the current interval.
  int heard_consistent() const { return heard_consistent_; }

  /// While held, the interval does not double at interval end (used by
  /// nodes that still need data and must keep soliciting at tau_min).
  void set_hold_at_min(bool hold) { hold_at_min_ = hold; }

 private:
  enum class Phase {
    kBeforeFire,  // Next event is the potential broadcast point t.
    kAfterFire,   // Next event is the end of the interval.
  };

  /// Opens a new interval of length tau_ at `now`; returns fire time.
  SimTime BeginInterval(SimTime now);

  Rng* rng_;
  SimTime tau_;
  SimTime interval_end_ = 0;
  Phase phase_ = Phase::kBeforeFire;
  int heard_consistent_ = 0;
  bool hold_at_min_ = false;
};

}  // namespace scoop::trickle

#endif  // SCOOP_TRICKLE_TRICKLE_TIMER_H_
