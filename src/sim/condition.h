#ifndef LAZYREP_SIM_CONDITION_H_
#define LAZYREP_SIM_CONDITION_H_

#include <coroutine>

#include "sim/check.h"
#include "sim/event_queue.h"
#include "sim/simulation.h"

namespace lazyrep::sim {

/// Result of a timed wait.
enum class WaitStatus : uint8_t {
  kSignaled,   ///< the event we waited for happened
  kTimeout,    ///< the deadline elapsed first
  kCancelled,  ///< an external actor cancelled the wait (e.g. abort)
  kRejected,   ///< admission refused (bounded queue overflow)
};

/// Returns a short human-readable name ("signaled", "timeout", ...).
const char* WaitStatusName(WaitStatus status);

/// One-shot synchronization point between one waiting process and one
/// signaler, with an optional timeout.
///
/// Exactly one process may wait at a time. Fire() may be called before or
/// after Wait() begins; a pre-fired status is delivered immediately. This is
/// the primitive beneath lock grants, RPC replies, ack collection and
/// graph-site wait queues.
///
/// The object must outlive the wait: the kernel resumes the waiter through a
/// pointer to it.
class OneShot {
 public:
  explicit OneShot(Simulation* sim) : sim_(sim) {}
  /// Moves an unarmed shot (nothing points at it), so shots can live in a
  /// growing vector.
  OneShot(OneShot&& other) noexcept
      : sim_(other.sim_), status_(other.status_), fired_(other.fired_) {
    LAZYREP_CHECK_MSG(other.waiter_ == nullptr, "OneShot moved while armed");
  }
  OneShot(const OneShot&) = delete;
  OneShot& operator=(const OneShot&) = delete;
  ~OneShot() { LAZYREP_CHECK_MSG(waiter_ == nullptr, "OneShot destroyed armed"); }

  /// Delivers `status` to the waiter (resuming it at the current time, after
  /// the caller's handler returns — never reentrantly, whether the resume is
  /// queued or inlined by the kernel), or records it for a future Wait().
  /// Returns false if the shot was already fired (the call is then a no-op).
  bool Fire(WaitStatus status);

  /// True once Fire() has been called.
  bool fired() const { return fired_; }

  /// True while a process is suspended in Wait().
  bool armed() const { return waiter_ != nullptr; }

  /// Resets a fired, unarmed OneShot so it can be reused.
  void Reset();

  struct Awaiter {
    OneShot* shot;
    SimTime timeout;

    bool await_ready() const noexcept { return shot->fired_; }
    void await_suspend(std::coroutine_handle<> h);
    WaitStatus await_resume() const noexcept { return shot->status_; }
  };

  /// Suspends the calling process until Fire() or until `timeout` simulated
  /// seconds elapse. Returns the delivered status (kTimeout on expiry).
  Awaiter Wait(SimTime timeout = kTimeInfinity) { return Awaiter{this, timeout}; }

 private:
  friend struct Awaiter;

  Simulation* sim_;
  std::coroutine_handle<> waiter_;
  EventId timeout_event_;
  WaitStatus status_ = WaitStatus::kSignaled;
  bool fired_ = false;
};

/// Counts down from `count` to zero; fires a OneShot when it reaches zero.
/// Used to gather N acknowledgements (e.g. replica-update acks).
class Countdown {
 public:
  Countdown(Simulation* sim, int count) : shot_(sim), remaining_(count) {
    if (remaining_ <= 0) shot_.Fire(WaitStatus::kSignaled);
  }

  /// Signals one arrival; the waiter resumes when all have arrived.
  void Arrive() {
    LAZYREP_CHECK(remaining_ > 0);
    if (--remaining_ == 0) shot_.Fire(WaitStatus::kSignaled);
  }

  /// Cancels the wait (e.g. the gathering transaction aborted).
  void Cancel() {
    if (!shot_.fired()) shot_.Fire(WaitStatus::kCancelled);
  }

  int remaining() const { return remaining_; }

  /// Starts a fresh count of `count` on an unarmed Countdown (reuse).
  void Reset(int count) {
    shot_.Reset();
    remaining_ = count;
    if (remaining_ <= 0) shot_.Fire(WaitStatus::kSignaled);
  }

  /// Waits for the count to reach zero (or timeout/cancellation).
  OneShot::Awaiter Wait(SimTime timeout = kTimeInfinity) {
    return shot_.Wait(timeout);
  }

 private:
  OneShot shot_;
  int remaining_;
};

}  // namespace lazyrep::sim

#endif  // LAZYREP_SIM_CONDITION_H_
