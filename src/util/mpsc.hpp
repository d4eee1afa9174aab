// Multi-producer single-consumer queue: the thread-safe submission path
// between external threads (planner-pool workers, programmatic
// Gateway::submit callers) and the single DES driver thread.
//
// Deliberately a mutex + deque rather than a lock-free ring: producers are
// caller/planner threads pushing at request rate (not a hot loop), the
// consumer drains in batches between DES events, and a mutex is trivially
// TSan-clean. Pairing with sim::Clock::wake() is the caller's job — push,
// then wake the driver so it drains before its next sleep.
#pragma once

#include <cstddef>
#include <deque>
#include <mutex>
#include <utility>

namespace hidp::util {

template <typename T>
class MpscQueue {
 public:
  MpscQueue() = default;
  MpscQueue(const MpscQueue&) = delete;
  MpscQueue& operator=(const MpscQueue&) = delete;

  /// Enqueues one item. Any thread.
  void push(T value) {
    std::lock_guard<std::mutex> lock(mu_);
    items_.push_back(std::move(value));
  }

  /// Removes and returns everything queued so far (FIFO order). Consumer
  /// thread. O(1) swap under the lock; the returned batch is processed
  /// lock-free.
  std::deque<T> drain() {
    std::deque<T> out;
    {
      std::lock_guard<std::mutex> lock(mu_);
      items_.swap(out);
    }
    return out;
  }

  bool empty() const {
    std::lock_guard<std::mutex> lock(mu_);
    return items_.empty();
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return items_.size();
  }

 private:
  mutable std::mutex mu_;
  std::deque<T> items_;
};

}  // namespace hidp::util
