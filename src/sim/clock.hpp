// Clock abstraction: the DES timeline split behind an interface.
//
// Every timestamp in the system (event times, arrival stamps, latencies) is
// seconds on one logical timeline. What that timeline is pinned to is the
// clock's business:
//
//  - VirtualClock is the discrete-event simulator's native mode: time jumps
//    instantaneously to the next event. advance_to() returns its target and
//    never blocks, so a Simulator driven by it is bit-identical to the
//    pre-clock DES — the whole regression/bench suite runs under it.
//  - WallClock pins the timeline to the process's monotonic clock (seconds
//    since the clock's construction). advance_to() sleeps in ppoll() until
//    real time reaches the target, wake() (an eventfd write) interrupts the
//    sleep, and so does any descriptor in an optional poll set — which is
//    what lets runtime::Gateway serve its sockets from the same event loop:
//    events fire when their timestamps actually pass, and a client line or
//    an external submission ends the sleep early.
//
// Only WallClock is shared across threads, and only through now()/wake();
// advance_to()/wait() and the poll set are driver-thread-only (single
// consumer).
#pragma once

#include <poll.h>

#include <chrono>
#include <vector>

namespace hidp::sim {

/// Simulation time in seconds (mirrors simulator.hpp's alias; kept local so
/// clock.hpp has no simulator dependency).
using ClockTime = double;

class Clock {
 public:
  virtual ~Clock() = default;

  /// True for clocks whose advance_to() never blocks (pure DES semantics).
  virtual bool is_virtual() const noexcept = 0;

  /// Current time on this clock's timeline.
  virtual ClockTime now() const = 0;

  /// Paces the caller toward `target`. Virtual: jumps, returns `target`.
  /// Wall: blocks until the monotonic timeline reaches `target` or wake()
  /// interrupts; returns the time actually reached (< target only when
  /// woken early). Driver thread only.
  virtual ClockTime advance_to(ClockTime target) = 0;

  /// Blocks up to `timeout_s` for a wake() (idle waiting with no event to
  /// pace toward). Returns true when woken, false on timeout. Virtual
  /// clocks return false immediately — a drained DES is done. Driver
  /// thread only.
  virtual bool wait(ClockTime timeout_s) = 0;

  /// Interrupts a blocked advance_to()/wait(). Thread-safe. A wake with no
  /// waiter is latched and consumed by the next wait, so a producer that
  /// pushes work and wakes between the driver's drain and its sleep cannot
  /// be lost.
  virtual void wake() = 0;
};

/// The DES timeline: time is wherever the last advance_to() put it.
class VirtualClock final : public Clock {
 public:
  bool is_virtual() const noexcept override { return true; }
  ClockTime now() const override { return now_; }
  ClockTime advance_to(ClockTime target) override {
    if (target > now_) now_ = target;
    return target;
  }
  bool wait(ClockTime timeout_s) override {
    (void)timeout_s;
    return false;
  }
  void wake() override {}

 private:
  ClockTime now_ = 0.0;
};

/// Monotonic wall time, anchored at construction. Timed waits sleep in
/// ppoll() on a wake eventfd plus the caller's poll set; wake() from any
/// thread ends them early.
class WallClock final : public Clock {
 public:
  /// Throws std::system_error when the wake eventfd cannot be created.
  WallClock();
  ~WallClock() override;
  WallClock(const WallClock&) = delete;
  WallClock& operator=(const WallClock&) = delete;

  bool is_virtual() const noexcept override { return false; }
  ClockTime now() const override;
  ClockTime advance_to(ClockTime target) override;
  bool wait(ClockTime timeout_s) override;
  void wake() override;

  /// Descriptors every wait polls besides the wake eventfd; the caller owns
  /// the vector and sets fd/events (a negative fd is skipped). A descriptor
  /// turning ready ends the wait early, like a wake, and every poll stores
  /// the revents back into the vector for the caller to service and clear.
  /// When advance_to() finds its target already passed it does not sleep,
  /// but still polls the set (never the wake eventfd) once `kPollGap` has
  /// elapsed since the last poll, so a DES that runs behind real time
  /// cannot starve the descriptors. nullptr (the default) polls none.
  /// Driver thread only.
  void set_poll_set(std::vector<pollfd>* fds) noexcept { watched_ = fds; }

  /// Longest stretch of overdue events advance_to() runs without polling
  /// the poll set.
  static constexpr ClockTime kPollGap = 0.001;

 private:
  /// Polls the wake eventfd (when `with_wake`) and the poll set for up to
  /// `timeout_s` (0 = just look). Returns true when a wake was consumed or
  /// a watched descriptor is ready.
  bool poll_for(ClockTime timeout_s, bool with_wake);

  std::chrono::steady_clock::time_point start_;
  int wake_fd_ = -1;
  std::vector<pollfd>* watched_ = nullptr;
  std::vector<pollfd> polled_;  ///< ppoll() array: [wake eventfd] + *watched_
  ClockTime last_poll_s_ = 0.0;
};

}  // namespace hidp::sim
