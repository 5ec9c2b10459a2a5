#ifndef LAZYREP_SIM_SIMULATION_H_
#define LAZYREP_SIM_SIMULATION_H_

#include <coroutine>
#include <cstdint>

#include "sim/event_queue.h"
#include "sim/process.h"

namespace lazyrep::sim {

/// The discrete-event simulation executive.
///
/// Holds the clock and the event queue and drives coroutine processes.
/// Typical use:
///
///     Simulation sim;
///     sim.Spawn(MyProcess(&sim, ...));   // MyProcess returns sim::Process
///     sim.Run();                          // until no events remain
///
/// Inside a process:
///
///     co_await sim->Delay(0.5);           // advance simulated time
class Simulation {
 public:
  Simulation() = default;
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Current simulated time in seconds.
  SimTime Now() const { return now_; }

  /// Starts a detached process. The first step of the coroutine runs at the
  /// current simulated time, after the caller yields to the executive.
  void Spawn(Process process) { ScheduleResumeNow(process.Release()); }

  /// Awaitable that suspends the current process for `dt` simulated seconds.
  struct DelayAwaiter {
    Simulation* sim;
    SimTime dt;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      sim->events_.ScheduleResume(sim->now_ + dt, h);
    }
    void await_resume() const noexcept {}
  };
  DelayAwaiter Delay(SimTime dt) { return DelayAwaiter{this, dt}; }

  /// Awaitable that suspends the current process until the absolute
  /// simulated instant `at` (an already-passed instant resumes at the
  /// current time, after already-queued same-time events). Trace replay
  /// schedules recorded submission times through this rather than
  /// re-accumulated Delay() deltas, which would drift from the recorded
  /// doubles by ulps.
  struct DelayUntilAwaiter {
    Simulation* sim;
    SimTime at;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      sim->events_.ScheduleResume(at < sim->now_ ? sim->now_ : at, h);
    }
    void await_resume() const noexcept {}
  };
  DelayUntilAwaiter DelayUntil(SimTime at) {
    return DelayUntilAwaiter{this, at};
  }

  /// Schedules `handle` to resume at absolute time `t` (>= Now()).
  EventId ScheduleResumeAt(SimTime t, std::coroutine_handle<> handle) {
    return events_.ScheduleResume(t, handle);
  }

  /// Schedules `handle` to resume immediately (at the current time, after
  /// already-queued same-time events).
  ///
  /// Fast path: when called inside a Step with no queued event due now and
  /// the inline slot empty, the resume is provably the next event in
  /// (time, seq) order, so it skips the queue. The handle goes into the
  /// one-entry inline slot and resumes right after the current handler
  /// returns, in the same Step; the returned id is then invalid (there is
  /// no queue entry to cancel).
  EventId ScheduleResumeNow(std::coroutine_handle<> handle) {
    if (in_step_ && !inline_ && events_.PeekTime() > now_) {
      inline_ = handle;
      return EventId{};
    }
    return events_.ScheduleResume(now_, handle);
  }

  /// Schedules a callback at absolute time `t`.
  EventId ScheduleCallbackAt(SimTime t, EventQueue::Callback fn) {
    return events_.ScheduleCallback(t, std::move(fn));
  }

  /// Cancels a pending event; safe on stale ids.
  bool Cancel(EventId id) { return events_.Cancel(id); }

  /// Runs until the event queue drains or the clock passes `until`.
  /// Returns the number of events run (queue dispatches plus inlined
  /// continuations).
  uint64_t Run(SimTime until = kTimeInfinity);

  /// Fires at most one queued event, then the same-instant continuations
  /// that provably follow it (see ScheduleResumeNow). A Step that finds a
  /// continuation left in the inline slot by EndStep runs that instead of
  /// popping the queue. Returns false when nothing is pending or the next
  /// event lies beyond `until` (the clock is not advanced past it).
  bool Step(SimTime until = kTimeInfinity);

  /// Ends the current Step when the running handler returns: a continuation
  /// in the inline slot stays there and runs first in the next Step. A
  /// caller that tests a stop condition between Steps calls this when the
  /// condition becomes true, so it stops at the same point in the schedule
  /// as it would with every resume queued.
  void EndStep() { end_step_ = true; }

  /// Events dispatched from the queue so far.
  uint64_t events_fired() const { return events_fired_; }

  /// Same-instant continuations resumed through the inline slot instead of
  /// the queue. events_fired() + continuations_inlined() is the number of
  /// events the run would fire with every resume queued.
  uint64_t continuations_inlined() const { return continuations_inlined_; }

  /// Number of pending events (cancellations excluded), the inline slot
  /// included.
  size_t pending_events() const { return events_.Size() + (inline_ ? 1 : 0); }

  /// Pre-sizes the event queue for `events` concurrent events (perf harness
  /// warm-up; optional — the queue grows on demand either way).
  void ReserveEvents(size_t events) { events_.Reserve(events); }

  /// The underlying queue, for kernel diagnostics (heap occupancy checks).
  const EventQueue& event_queue() const { return events_; }

 private:
  /// Time of the next event to run. A continuation left in the inline slot
  /// by EndStep is due now, ahead of every queued event in (time, seq)
  /// order.
  SimTime NextTime() const { return inline_ ? now_ : events_.PeekTime(); }

  EventQueue events_;
  SimTime now_ = 0;
  uint64_t events_fired_ = 0;
  uint64_t continuations_inlined_ = 0;
  /// The inline slot: a same-instant continuation that is provably next.
  std::coroutine_handle<> inline_;
  bool in_step_ = false;
  bool end_step_ = false;
};

}  // namespace lazyrep::sim

#endif  // LAZYREP_SIM_SIMULATION_H_
