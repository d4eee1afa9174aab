// Deterministic discrete-event simulator.
//
// The whole evaluation substrate runs on this engine: processor busy
// intervals, radio transfers, FSM transitions and request arrivals are all
// events. Determinism is guaranteed by a (time, sequence) ordered queue, so
// two events at the same timestamp fire in scheduling order.
//
// The queue has two lanes. The monotone lane is a FIFO ring of events
// whose times never decrease: an event joins it when its time is >= the
// time of the ring's newest event (or the ring is empty). Every other
// event goes to a binary heap. Both lanes are ordered by (time, sequence)
// — the ring by construction, because sequence numbers only grow — so
// popping the smaller of the two fronts yields exactly the order of one
// priority queue, and the contract above is unchanged. Pre-scheduled
// open-loop streams (a replayed trace handed over at t = 0) sit in the
// ring at O(1) per push and pop, and the heap holds only in-flight work.
// Events are moved out of either lane, never copied, and the ring reuses
// the slots it has consumed.
//
// Time itself is split behind the Clock interface (clock.hpp). Under the
// default VirtualClock the simulator is the classic DES — time jumps to the
// next event, run() drains the queue, and behaviour is bit-identical to the
// pre-clock engine. Under a WallClock the same queue becomes a real-time
// event loop: run() sleeps until each event's timestamp actually passes,
// and an external-work pump (set_pump) lets producer threads feed new
// events through a thread-safe queue + Clock::wake() without ever touching
// simulator state themselves. All simulator methods remain single-threaded
// (driver thread only); cross-thread interaction goes exclusively through
// the clock's wake() and whatever queue the pump drains.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "sim/clock.hpp"

namespace hidp::sim {

/// Simulation time in seconds.
using Time = double;

/// Handle identifying a scheduled event (its scheduling sequence number).
using EventId = std::uint64_t;

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulation time.
  Time now() const noexcept { return now_; }

  /// Schedules `fn` to run at absolute time `at` (clamped to now()).
  EventId schedule_at(Time at, std::function<void()> fn);

  /// Schedules `fn` to run `delay` seconds from now (negative -> now).
  EventId schedule_in(Time delay, std::function<void()> fn);

  /// Runs until the event queue is empty (with a pump installed: until the
  /// pump returns false). Each event is paced through the clock first — the
  /// default VirtualClock jumps, a WallClock sleeps until the event's
  /// timestamp passes. Returns the final time.
  Time run();

  /// Runs until the queue is empty or `deadline` is reached, whichever is
  /// first. Events at exactly `deadline` are executed. Pacing as in run();
  /// the pump is not consulted.
  Time run_until(Time deadline);

  /// Executes at most one event, immediately (no clock pacing). Returns
  /// false if the queue was empty.
  bool step();

  /// Timestamp of the next pending event, or nullopt when the queue is
  /// empty.
  std::optional<Time> next_event_at() const;

  /// Installs the clock that paces run(). Defaults to an owned VirtualClock
  /// (pure DES, bit-identical to the pre-clock engine); pass nullptr to
  /// restore the default. The clock must outlive the simulator while set.
  void set_clock(Clock* clock) noexcept { clock_ = clock ? clock : &virtual_clock_; }
  Clock& clock() noexcept { return *clock_; }
  const Clock& clock() const noexcept { return *clock_; }

  /// External-work source consulted by run(): called at the top of every
  /// loop iteration — after a wake interrupted the clock's sleep, and when
  /// the queue drained. Return false to stop the loop (run() returns).
  /// Absent (default), run() returns when the queue empties — the DES
  /// behaviour. With a pump and an empty queue, run() blocks on
  /// clock().wait() instead of spinning; producers call Clock::wake().
  void set_pump(std::function<bool()> pump) { pump_ = std::move(pump); }

  /// Number of events executed so far.
  std::uint64_t events_executed() const noexcept { return executed_; }

  /// Number of pending events.
  std::size_t pending() const noexcept { return heap_.size() + lane_size_; }

  /// Slots the monotone lane currently retains (its ring capacity). The
  /// ring doubles when full and never shrinks; consumed slots are reused.
  std::size_t lane_capacity() const noexcept { return lane_.size(); }

 private:
  struct Event {
    Time at;
    EventId id;
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const noexcept {
      if (a.at != b.at) return a.at > b.at;
      return a.id > b.id;  // FIFO among simultaneous events
    }
  };

  bool empty() const noexcept { return heap_.empty() && lane_size_ == 0; }
  /// True when the lane's head precedes the heap's top (lane non-empty).
  bool lane_first() const noexcept;
  /// Timestamp of the earliest pending event; the queue must be non-empty.
  Time next_time() const noexcept;
  void push_lane(Event&& event);
  Event pop_next();
  bool pop_and_run();

  /// Maximum idle block in run() when a pump is installed and the queue is
  /// empty — a liveness bound (stop flags are re-checked at least this
  /// often) on top of the wake() fast path.
  static constexpr Time kIdleWait = 0.05;

  Time now_ = 0.0;
  EventId next_id_ = 1;
  std::uint64_t executed_ = 0;
  std::vector<Event> heap_;  ///< binary min-heap by (at, id) under Later
  /// The monotone lane: a ring of lane_.size() slots (0 or a power of two)
  /// holding lane_size_ events from lane_head_ on, in (at, id) order.
  std::vector<Event> lane_;
  std::size_t lane_head_ = 0;
  std::size_t lane_size_ = 0;
  Time lane_back_at_ = 0.0;  ///< time of the lane's newest event
  VirtualClock virtual_clock_;  ///< default pacing: the classic DES
  Clock* clock_ = &virtual_clock_;
  std::function<bool()> pump_;
};

}  // namespace hidp::sim
