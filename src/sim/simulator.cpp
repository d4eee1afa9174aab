#include "sim/simulator.hpp"

#include <algorithm>

namespace hidp::sim {

EventId Simulator::schedule_at(Time at, std::function<void()> fn) {
  const EventId id = next_id_++;
  queue_.push(Event{std::max(at, now_), id, std::move(fn)});
  return id;
}

EventId Simulator::schedule_in(Time delay, std::function<void()> fn) {
  return schedule_at(now_ + std::max(delay, 0.0), std::move(fn));
}

bool Simulator::pop_and_run() {
  if (queue_.empty()) return false;
  Event event = queue_.top();
  queue_.pop();
  now_ = event.at;
  ++executed_;
  event.fn();
  return true;
}

std::optional<Time> Simulator::next_event_at() const {
  if (queue_.empty()) return std::nullopt;
  return queue_.top().at;
}

Time Simulator::run() {
  for (;;) {
    if (pump_ && !pump_()) break;
    if (queue_.empty()) {
      if (!pump_) break;  // DES: drained means done
      // Real-time idle: block until a producer wakes us (or the liveness
      // bound elapses) rather than spinning on an empty queue.
      clock_->wait(kIdleWait);
      continue;
    }
    const Time at = queue_.top().at;
    // Pace through the clock. The virtual clock jumps (returns `at`); a
    // wall clock sleeps and may be woken early by an external producer —
    // loop back to the pump instead of firing the event ahead of time.
    if (clock_->advance_to(at) < at) continue;
    pop_and_run();
  }
  return now_;
}

Time Simulator::run_until(Time deadline) {
  for (;;) {
    if (queue_.empty()) break;
    const Time at = queue_.top().at;
    if (at > deadline) break;
    if (clock_->advance_to(at) < at) continue;
    pop_and_run();
  }
  return now_;
}

bool Simulator::step() { return pop_and_run(); }

}  // namespace hidp::sim
