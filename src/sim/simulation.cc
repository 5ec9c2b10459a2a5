#include "sim/simulation.h"

#include "sim/check.h"

namespace lazyrep::sim {

bool Simulation::Step(SimTime until) {
  SimTime next = NextTime();
  if (next == kTimeInfinity || next > until) return false;
  in_step_ = true;
  end_step_ = false;
  if (!inline_) {
    EventQueue::Fired fired = events_.Pop();
    LAZYREP_CHECK_MSG(fired.time + 1e-12 >= now_,
                      "event scheduled in the past");
    now_ = fired.time;
    ++events_fired_;
    if (fired.handle) {
      fired.handle.resume();
    } else {
      fired.callback();
    }
  }
  while (inline_ && !end_step_) {
    std::coroutine_handle<> h = inline_;
    inline_ = nullptr;
    ++continuations_inlined_;
    h.resume();
  }
  in_step_ = false;
  return true;
}

uint64_t Simulation::Run(SimTime until) {
  const uint64_t before = events_fired_ + continuations_inlined_;
  while (Step(until)) {
  }
  if (NextTime() > until && until != kTimeInfinity) {
    // Advance the clock to the horizon so utilization denominators line up.
    now_ = until;
  }
  return events_fired_ + continuations_inlined_ - before;
}

}  // namespace lazyrep::sim
