// Test oracle for the simulator's event queue (src/sim/simulator.cpp): one
// plain std::priority_queue of (time, id), the single-lane queue the
// two-lane one replaced. It carries the whole ordering contract and nothing
// else: ids are handed out in scheduling order, a time in the past is
// clamped to now, and events pop by time with ties broken by id (FIFO among
// simultaneous events). Popping an event advances now to its time.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <queue>
#include <utility>
#include <vector>

namespace hidp::sim::oracle {

class EventQueue {
 public:
  using Entry = std::pair<double, std::uint64_t>;  ///< (time, id)

  double now() const noexcept { return now_; }
  std::size_t size() const noexcept { return queue_.size(); }
  bool empty() const noexcept { return queue_.empty(); }

  /// Queues an event at `at` (clamped to now) and returns its id.
  std::uint64_t schedule_at(double at) {
    const std::uint64_t id = next_id_++;
    queue_.emplace(std::max(at, now_), id);
    return id;
  }

  std::optional<double> next_at() const {
    if (queue_.empty()) return std::nullopt;
    return queue_.top().first;
  }

  /// Removes the earliest event and advances now to its time.
  Entry pop() {
    const Entry entry = queue_.top();
    queue_.pop();
    now_ = entry.first;
    return entry;
  }

 private:
  double now_ = 0.0;
  std::uint64_t next_id_ = 1;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> queue_;
};

}  // namespace hidp::sim::oracle
