#include "sim/condition.h"

namespace lazyrep::sim {

const char* WaitStatusName(WaitStatus status) {
  switch (status) {
    case WaitStatus::kSignaled:
      return "signaled";
    case WaitStatus::kTimeout:
      return "timeout";
    case WaitStatus::kCancelled:
      return "cancelled";
    case WaitStatus::kRejected:
      return "rejected";
  }
  return "unknown";
}

bool OneShot::Fire(WaitStatus status) {
  if (fired_) return false;
  fired_ = true;
  status_ = status;
  if (waiter_) {
    sim_->Cancel(timeout_event_);
    timeout_event_ = EventId{};
    std::coroutine_handle<> h = waiter_;
    waiter_ = nullptr;
    // Never reentrant: the signaler finishes its own handler before the
    // waiter runs. The resume goes through the event queue, or through the
    // kernel's inline slot when it is provably the next event; either way
    // the waiter runs after the current handler returns, at the position
    // the queue would have given it.
    sim_->ScheduleResumeNow(h);
  }
  return true;
}

void OneShot::Reset() {
  LAZYREP_CHECK_MSG(waiter_ == nullptr, "Reset while armed");
  fired_ = false;
  status_ = WaitStatus::kSignaled;
}

void OneShot::Awaiter::await_suspend(std::coroutine_handle<> h) {
  OneShot* s = shot;
  LAZYREP_CHECK_MSG(s->waiter_ == nullptr, "OneShot supports a single waiter");
  s->waiter_ = h;
  if (timeout != kTimeInfinity) {
    s->timeout_event_ = s->sim_->ScheduleCallbackAt(
        s->sim_->Now() + timeout, [s] {
          // The timeout event fires only if the shot was not fired first
          // (Fire cancels it), so the waiter must still be armed.
          LAZYREP_CHECK(s->waiter_ != nullptr);
          s->timeout_event_ = EventId{};
          s->fired_ = true;
          s->status_ = WaitStatus::kTimeout;
          std::coroutine_handle<> w = s->waiter_;
          s->waiter_ = nullptr;
          w.resume();
        });
  }
}

}  // namespace lazyrep::sim
