#include "serving/degradation.h"

#include <cmath>

namespace olympian::serving {

sim::Duration RetryPolicy::BackoffFor(int attempt) const {
  return base_backoff * std::pow(kMultiplier, attempt - 1);
}

bool CircuitBreaker::AllowRequest(sim::TimePoint now) {
  switch (state_) {
    case State::kClosed:
      return true;
    case State::kOpen:
      if (now < open_until_) return false;
      state_ = State::kHalfOpen;
      trial_in_flight_ = true;
      return true;
    case State::kHalfOpen:
      if (trial_in_flight_) return false;
      trial_in_flight_ = true;
      return true;
  }
  return true;
}

void CircuitBreaker::OnSuccess() {
  consecutive_failures_ = 0;
  trial_in_flight_ = false;
  state_ = State::kClosed;
}

bool CircuitBreaker::OnFailure(sim::TimePoint now) {
  trial_in_flight_ = false;
  if (options_.failure_threshold <= 0) return false;
  if (state_ == State::kHalfOpen) {
    // Failed trial: straight back to open for another cooldown.
    state_ = State::kOpen;
    open_until_ = now + options_.cooldown;
    ++opens_;
    return true;
  }
  ++consecutive_failures_;
  if (state_ == State::kClosed &&
      consecutive_failures_ >= options_.failure_threshold) {
    state_ = State::kOpen;
    open_until_ = now + options_.cooldown;
    ++opens_;
    return true;
  }
  return false;
}

}  // namespace olympian::serving
