#include "trickle/trickle_driver.h"

#include <utility>

#include "common/check.h"

namespace scoop::trickle {

TrickleDriver::TrickleDriver(sim::Context* ctx, std::function<void()> broadcast_fn)
    : ctx_(ctx), timer_(&ctx->rng()), broadcast_fn_(std::move(broadcast_fn)) {
  SCOOP_CHECK(ctx != nullptr);
  SCOOP_CHECK(broadcast_fn_ != nullptr);
}

TrickleDriver::~TrickleDriver() { Stop(); }

void TrickleDriver::Start() {
  running_ = true;
  Arm(timer_.Start(ctx_->now()));
}

void TrickleDriver::Stop() {
  running_ = false;
  if (pending_ != sim::kInvalidEventId) {
    ctx_->Cancel(pending_);
    pending_ = sim::kInvalidEventId;
  }
}

void TrickleDriver::NoteInconsistent() {
  if (!running_) {
    Start();
    return;
  }
  std::optional<SimTime> reset = timer_.OnInconsistent(ctx_->now());
  if (reset.has_value()) Arm(*reset);
}

void TrickleDriver::Arm(SimTime at) {
  if (pending_ != sim::kInvalidEventId) ctx_->Cancel(pending_);
  SimTime delay = at - ctx_->now();
  if (delay < 0) delay = 0;
  pending_ = ctx_->Schedule(delay, [this] { HandleEvent(); });
}

void TrickleDriver::HandleEvent() {
  pending_ = sim::kInvalidEventId;
  if (!running_) return;
  TrickleTimer::Action action = timer_.OnEvent(ctx_->now());
  if (action.should_broadcast) broadcast_fn_();
  Arm(action.next_event);
}

}  // namespace scoop::trickle
