// Wall-clock adapter for the event scheduler, plus the one deadline
// primitive every transport timeout uses.
//
// The virtual-clock engine and the epoll loop share a single body of
// deadline arithmetic: both schedule timeout callbacks on an
// fl::EventScheduler. The engine advances that scheduler by running
// events; the epoll loop advances it to MonotonicClock::now() after each
// epoll_wait (EventScheduler::advance_to), and asks
// EventScheduler::next_time() how long epoll_wait may block. DeadlineTimer
// wraps the arm/cancel/re-arm dance so read deadlines, write deadlines and
// dispatch deadlines cannot each grow their own subtly different logic.
#pragma once

#include <chrono>
#include <utility>

#include "common/check.hpp"
#include "fl/scheduler.hpp"

namespace fedbiad::transport {

/// Seconds since construction on std::chrono::steady_clock — the time base
/// the TCP backends feed into EventScheduler::advance_to. Starting from
/// zero keeps transport schedulers comparable to virtual-clock ones (both
/// begin life at t=0).
class MonotonicClock {
 public:
  MonotonicClock() : epoch_(std::chrono::steady_clock::now()) {}

  [[nodiscard]] double now() const {
    const auto dt = std::chrono::steady_clock::now() - epoch_;
    return std::chrono::duration<double>(dt).count();
  }

 private:
  std::chrono::steady_clock::time_point epoch_;
};

/// One re-armable timeout on a scheduler. arm() replaces any previous
/// pending firing, so "reset the read deadline on every complete frame" is
/// a single call; cancel() is idempotent. The callback runs at most once
/// per arm(), from the scheduler's event loop.
class DeadlineTimer {
 public:
  DeadlineTimer(fl::EventScheduler& sched, double timeout_seconds)
      : sched_(sched), timeout_seconds_(timeout_seconds) {
    FEDBIAD_CHECK(timeout_seconds_ > 0.0, "deadline timeout must be positive");
  }

  ~DeadlineTimer() { cancel(); }

  DeadlineTimer(const DeadlineTimer&) = delete;
  DeadlineTimer& operator=(const DeadlineTimer&) = delete;

  /// (Re-)starts the countdown: `cb` fires timeout_seconds from the
  /// scheduler's current now() unless arm() or cancel() intervenes.
  void arm(fl::EventScheduler::Callback cb) {
    cancel();
    id_ = sched_.schedule_after(timeout_seconds_, [this, cb = std::move(cb)] {
      id_ = fl::EventScheduler::kNoEvent;  // fired; nothing left to cancel
      cb();
    });
  }

  void cancel() {
    if (id_ != fl::EventScheduler::kNoEvent) {
      sched_.cancel(id_);
      id_ = fl::EventScheduler::kNoEvent;
    }
  }

  [[nodiscard]] bool armed() const noexcept {
    return id_ != fl::EventScheduler::kNoEvent;
  }

 private:
  fl::EventScheduler& sched_;
  double timeout_seconds_;
  fl::EventScheduler::EventId id_ = fl::EventScheduler::kNoEvent;
};

}  // namespace fedbiad::transport
