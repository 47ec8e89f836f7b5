#include "trickle/trickle_timer.h"

#include <algorithm>

#include "common/check.h"

namespace scoop::trickle {

TrickleTimer::TrickleTimer(Rng* rng) : rng_(rng), tau_(kTauMin) {
  SCOOP_CHECK(rng != nullptr);
}

SimTime TrickleTimer::BeginInterval(SimTime now) {
  interval_end_ = now + tau_;
  heard_consistent_ = 0;
  phase_ = Phase::kBeforeFire;
  // Fire point uniformly in [tau/2, tau).
  SimTime offset = tau_ / 2 + rng_->UniformInt(0, tau_ / 2 - 1);
  return now + offset;
}

SimTime TrickleTimer::Start(SimTime now) {
  tau_ = kTauMin;
  return BeginInterval(now);
}

TrickleTimer::Action TrickleTimer::OnEvent(SimTime now) {
  Action action;
  if (phase_ == Phase::kBeforeFire) {
    action.should_broadcast = heard_consistent_ < kRedundancyK;
    phase_ = Phase::kAfterFire;
    action.next_event = interval_end_;
    return action;
  }
  // Interval ended: double tau and open the next interval.
  tau_ = hold_at_min_ ? kTauMin : std::min(tau_ * 2, kTauMax);
  action.should_broadcast = false;
  action.next_event = BeginInterval(now);
  return action;
}

std::optional<SimTime> TrickleTimer::OnInconsistent(SimTime now) {
  if (tau_ == kTauMin && interval_end_ > now) {
    return std::nullopt;  // Already listening at the fastest rate.
  }
  tau_ = kTauMin;
  return BeginInterval(now);
}

}  // namespace scoop::trickle
