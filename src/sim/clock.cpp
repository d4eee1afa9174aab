#include "sim/clock.hpp"

#include <sys/eventfd.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <ctime>
#include <system_error>

namespace hidp::sim {

WallClock::WallClock()
    : start_(std::chrono::steady_clock::now()),
      wake_fd_(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC)) {
  if (wake_fd_ < 0) throw std::system_error(errno, std::generic_category(), "eventfd");
}

WallClock::~WallClock() { ::close(wake_fd_); }

ClockTime WallClock::now() const {
  const auto elapsed = std::chrono::steady_clock::now() - start_;
  return std::chrono::duration<double>(elapsed).count();
}

bool WallClock::poll_for(ClockTime timeout_s, bool with_wake) {
  const std::size_t watched = watched_ != nullptr ? watched_->size() : 0;
  polled_.resize(1 + watched);
  polled_[0] = pollfd{with_wake ? wake_fd_ : -1, POLLIN, 0};
  for (std::size_t i = 0; i < watched; ++i) polled_[1 + i] = (*watched_)[i];

  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::duration<double>(timeout_s))
                      .count();
  timespec timeout{static_cast<std::time_t>(ns / 1000000000), static_cast<long>(ns % 1000000000)};
  const int ready = ::ppoll(polled_.data(), polled_.size(), &timeout, nullptr);
  const int error = ready < 0 ? errno : 0;
  last_poll_s_ = now();
  // An interrupted poll reports as woken: the caller re-evaluates.
  if (ready < 0) return error == EINTR;
  for (std::size_t i = 0; i < watched; ++i) (*watched_)[i].revents = polled_[1 + i].revents;
  if (ready == 0) return false;
  if ((polled_[0].revents & POLLIN) != 0) {
    std::uint64_t count = 0;
    const ssize_t n = ::read(wake_fd_, &count, sizeof(count));  // consume the latch
    (void)n;
  }
  return true;
}

ClockTime WallClock::advance_to(ClockTime target) {
  const ClockTime now_s = now();
  if (now_s >= target) {
    if (watched_ != nullptr && now_s - last_poll_s_ >= kPollGap) poll_for(0.0, false);
    return target;
  }
  if (poll_for(target - now_s, true)) {
    // Woken early: report where the timeline actually is so the caller
    // re-evaluates (an external producer may have queued earlier work).
    const ClockTime reached = now();
    return reached < target ? reached : target;
  }
  return target;
}

bool WallClock::wait(ClockTime timeout_s) {
  return poll_for(timeout_s > 0.0 ? timeout_s : 0.0, true);
}

void WallClock::wake() {
  const std::uint64_t one = 1;
  const ssize_t n = ::write(wake_fd_, &one, sizeof(one));  // latched until a poll reads it
  (void)n;
}

}  // namespace hidp::sim
