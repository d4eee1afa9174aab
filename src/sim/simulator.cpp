#include "sim/simulator.hpp"

#include <algorithm>

namespace hidp::sim {

EventId Simulator::schedule_at(Time at, std::function<void()> fn) {
  const EventId id = next_id_++;
  Event event{std::max(at, now_), id, std::move(fn)};
  if (lane_size_ == 0 || event.at >= lane_back_at_) {
    push_lane(std::move(event));
  } else {
    heap_.push_back(std::move(event));
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }
  return id;
}

EventId Simulator::schedule_in(Time delay, std::function<void()> fn) {
  return schedule_at(now_ + std::max(delay, 0.0), std::move(fn));
}

void Simulator::push_lane(Event&& event) {
  if (lane_size_ == lane_.size()) {
    // Full ring: re-linearise into twice the slots.
    std::vector<Event> grown(std::max<std::size_t>(16, lane_.size() * 2));
    for (std::size_t i = 0; i < lane_size_; ++i) {
      grown[i] = std::move(lane_[(lane_head_ + i) & (lane_.size() - 1)]);
    }
    lane_ = std::move(grown);
    lane_head_ = 0;
  }
  lane_back_at_ = event.at;
  lane_[(lane_head_ + lane_size_) & (lane_.size() - 1)] = std::move(event);
  ++lane_size_;
}

bool Simulator::lane_first() const noexcept {
  if (lane_size_ == 0) return false;
  return heap_.empty() || Later{}(heap_.front(), lane_[lane_head_]);
}

Time Simulator::next_time() const noexcept {
  return lane_first() ? lane_[lane_head_].at : heap_.front().at;
}

Simulator::Event Simulator::pop_next() {
  if (lane_first()) {
    Event& slot = lane_[lane_head_];
    Event event = std::move(slot);
    slot.fn = nullptr;  // the slot must not keep captures alive
    lane_head_ = (lane_head_ + 1) & (lane_.size() - 1);
    --lane_size_;
    return event;
  }
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  Event event = std::move(heap_.back());
  heap_.pop_back();
  return event;
}

bool Simulator::pop_and_run() {
  if (empty()) return false;
  Event event = pop_next();
  now_ = event.at;
  ++executed_;
  event.fn();
  return true;
}

std::optional<Time> Simulator::next_event_at() const {
  if (empty()) return std::nullopt;
  return next_time();
}

Time Simulator::run() {
  for (;;) {
    if (pump_ && !pump_()) break;
    if (empty()) {
      if (!pump_) break;  // DES: drained means done
      // Real-time idle: block until a producer wakes us (or the liveness
      // bound elapses) rather than spinning on an empty queue.
      clock_->wait(kIdleWait);
      continue;
    }
    const Time at = next_time();
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
    if (empty()) break;
    const Time at = next_time();
    if (at > deadline) break;
    if (clock_->advance_to(at) < at) continue;
    pop_and_run();
  }
  return now_;
}

bool Simulator::step() { return pop_and_run(); }

}  // namespace hidp::sim
