// Unit tests for the discrete-event simulator and FIFO resources.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <random>

#include "oracle_event_queue.hpp"
#include "sim/resource.hpp"
#include "sim/simulator.hpp"

namespace hidp::sim {
namespace {

TEST(Simulator, StartsAtZero) {
  Simulator sim;
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulator, ExecutesInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(2.0, [&] { order.push_back(2); });
  sim.schedule_at(1.0, [&] { order.push_back(1); });
  sim.schedule_at(3.0, [&] { order.push_back(3); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
}

TEST(Simulator, FifoAmongSimultaneousEvents) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) sim.schedule_at(1.0, [&order, i] { order.push_back(i); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, ScheduleInIsRelative) {
  Simulator sim;
  double fired_at = -1.0;
  sim.schedule_at(5.0, [&] {
    sim.schedule_in(2.5, [&] { fired_at = sim.now(); });
  });
  sim.run();
  EXPECT_DOUBLE_EQ(fired_at, 7.5);
}

TEST(Simulator, PastEventsClampToNow) {
  Simulator sim;
  double fired_at = -1.0;
  sim.schedule_at(4.0, [&] {
    sim.schedule_at(1.0, [&] { fired_at = sim.now(); });  // in the past
  });
  sim.run();
  EXPECT_DOUBLE_EQ(fired_at, 4.0);
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(1.0, [&] { ++fired; });
  sim.schedule_at(2.0, [&] { ++fired; });
  sim.schedule_at(10.0, [&] { ++fired; });
  sim.run_until(5.0);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.pending(), 1u);
  sim.run();
  EXPECT_EQ(fired, 3);
}

TEST(Simulator, StepExecutesOne) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(1.0, [&] { ++fired; });
  sim.schedule_at(2.0, [&] { ++fired; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
  EXPECT_EQ(sim.events_executed(), 2u);
}

TEST(Simulator, NextEventAtReportsEarliestPending) {
  Simulator sim;
  EXPECT_FALSE(sim.next_event_at().has_value());
  sim.schedule_at(2.0, [] {});
  sim.schedule_at(1.0, [] {});
  ASSERT_TRUE(sim.next_event_at().has_value());
  EXPECT_DOUBLE_EQ(*sim.next_event_at(), 1.0);
  sim.run();
  EXPECT_FALSE(sim.next_event_at().has_value());
}

TEST(Simulator, PumpFeedsExternalWorkAndEndsTheRun) {
  // The pump is consulted before every event and when the queue drains;
  // returning false is the only way a pumped run ends.
  Simulator sim;
  int pumps = 0;
  std::vector<double> fired;
  sim.set_pump([&] {
    ++pumps;
    if (pumps == 1) sim.schedule_at(1.0, [&] { fired.push_back(sim.now()); });
    return pumps < 3;
  });
  sim.run();
  sim.set_pump(nullptr);
  EXPECT_EQ(pumps, 3);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_DOUBLE_EQ(fired[0], 1.0);
}

TEST(Simulator, ExplicitVirtualClockMatchesDefaultTimeline) {
  // set_clock with an external VirtualClock keeps pure DES semantics;
  // set_clock(nullptr) restores the built-in clock.
  Simulator sim;
  VirtualClock clock;
  sim.set_clock(&clock);
  std::vector<double> fired;
  sim.schedule_at(0.5, [&] { fired.push_back(sim.now()); });
  sim.schedule_in(1.25, [&] { fired.push_back(sim.now()); });
  sim.run();
  ASSERT_EQ(fired.size(), 2u);
  EXPECT_DOUBLE_EQ(fired[0], 0.5);
  EXPECT_DOUBLE_EQ(fired[1], 1.25);
  EXPECT_DOUBLE_EQ(clock.now(), 1.25);  // the external clock carried the timeline
  sim.set_clock(nullptr);
  sim.schedule_in(0.25, [&] { fired.push_back(sim.now()); });
  sim.run();
  EXPECT_DOUBLE_EQ(sim.now(), 1.5);
}

/// Drives a Simulator and the single-queue oracle through one seeded
/// program — monotone bursts, equal timestamps, times in the past, events
/// scheduling events, step() and run_until() — and checks that every event
/// fires in the oracle's order at the oracle's time, and that pending()
/// and next_event_at() agree after every operation.
class QueueAgainstOracle {
 public:
  explicit QueueAgainstOracle(std::uint64_t seed) : rng_(seed) {}

  void run_program(int operations) {
    for (int op = 0; op < operations; ++op) {
      switch (draw(6)) {
        case 0: {  // monotone burst, steps of 0, 0.25 or 0.5 s
          double at = sim_.now() + grid(16);
          for (std::uint64_t k = 1 + draw(32); k > 0; --k) {
            schedule(at, 0);
            at += grid(3);
          }
          break;
        }
        case 1: {  // simultaneous events
          const double at = sim_.now() + grid(16);
          for (std::uint64_t k = 1 + draw(8); k > 0; --k) schedule(at, 0);
          break;
        }
        case 2:  // scattered, some in the past (clamped to now)
          for (std::uint64_t k = 1 + draw(8); k > 0; --k) {
            schedule(sim_.now() + grid(32) - 2.0, 0);
          }
          break;
        case 3:
          EXPECT_EQ(sim_.step(), !oracle_.empty());
          break;
        case 4: {  // run_until, often exactly at a pending event's time
          double deadline = sim_.now() + grid(8);
          if (const auto next = oracle_.next_at(); next && draw(2) == 0) deadline = *next;
          sim_.run_until(deadline);
          if (const auto next = oracle_.next_at()) {
            EXPECT_GT(*next, deadline);
          }
          break;
        }
        default:  // everything due now, including zero-delay children
          sim_.run_until(sim_.now());
          if (const auto next = oracle_.next_at()) {
            EXPECT_GT(*next, sim_.now());
          }
          break;
      }
      ASSERT_EQ(sim_.now(), oracle_.now());
      ASSERT_EQ(sim_.pending(), oracle_.size());
      ASSERT_EQ(sim_.next_event_at(), oracle_.next_at());
    }
    sim_.run();
    EXPECT_TRUE(oracle_.empty());
    EXPECT_EQ(sim_.events_executed(), fired_);
  }

 private:
  std::uint64_t draw(std::uint64_t n) { return rng_() % n; }
  /// Times on a 0.25 s grid, so equal timestamps are common.
  double grid(std::uint64_t n) { return 0.25 * static_cast<double>(draw(n)); }

  void schedule(double at, int depth) {
    const std::uint64_t id = oracle_.schedule_at(at);
    EXPECT_EQ(sim_.schedule_at(at, [this, id, depth] { fire(id, depth); }), id);
  }

  void fire(std::uint64_t id, int depth) {
    ++fired_;
    const auto [at, expected] = oracle_.pop();
    EXPECT_EQ(id, expected);
    EXPECT_EQ(sim_.now(), at);
    if (depth == 3) return;
    for (std::uint64_t k = draw(4); k > 0; --k) {
      switch (draw(3)) {
        case 0: schedule(sim_.now(), depth + 1); break;              // same instant
        case 1: schedule(sim_.now() + grid(8), depth + 1); break;    // ahead
        default: schedule(sim_.now() - grid(8), depth + 1); break;   // past
      }
    }
  }

  std::mt19937_64 rng_;
  Simulator sim_;
  oracle::EventQueue oracle_;
  std::uint64_t fired_ = 0;
};

TEST(Simulator, TwoLaneQueueMatchesSingleQueueOracle) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(seed);
    QueueAgainstOracle(seed).run_program(300);
    if (HasFatalFailure()) return;
  }
}

TEST(Simulator, MonotoneLaneReusesItsSlots) {
  // Under a WallClock nearly every event is monotone, so the lane carries
  // the whole stream: it must reuse the slots it has consumed, not grow.
  Simulator sim;
  constexpr std::size_t kInFlight = 8;
  for (std::size_t i = 0; i < kInFlight; ++i) sim.schedule_in(1.0, [] {});
  const std::size_t capacity = sim.lane_capacity();
  EXPECT_GE(capacity, kInFlight + 1);
  for (int i = 0; i < 100000; ++i) {
    sim.schedule_in(1.0, [] {});
    ASSERT_TRUE(sim.step());
  }
  EXPECT_EQ(sim.lane_capacity(), capacity);
  EXPECT_EQ(sim.pending(), kInFlight);
  EXPECT_EQ(sim.events_executed(), 100000u);
}

TEST(Simulator, ExecutedEventsReleaseTheirCaptures) {
  // Both lanes: a monotone event and one that lands behind it in the heap.
  Simulator sim;
  auto lane_held = std::make_shared<int>(0);
  auto heap_held = std::make_shared<int>(0);
  const std::weak_ptr<int> lane_watch = lane_held;
  const std::weak_ptr<int> heap_watch = heap_held;
  sim.schedule_at(2.0, [held = std::move(lane_held)] {});
  sim.schedule_at(1.0, [held = std::move(heap_held)] {});
  ASSERT_TRUE(sim.step());
  EXPECT_TRUE(heap_watch.expired());
  EXPECT_FALSE(lane_watch.expired());
  ASSERT_TRUE(sim.step());
  EXPECT_TRUE(lane_watch.expired());
}

TEST(Resource, SerializesJobs) {
  Simulator sim;
  Resource r(sim, "proc");
  std::vector<double> ends;
  r.submit(0.0, 2.0, [&](Time t) { ends.push_back(t); });
  r.submit(0.0, 3.0, [&](Time t) { ends.push_back(t); });
  sim.run();
  ASSERT_EQ(ends.size(), 2u);
  EXPECT_DOUBLE_EQ(ends[0], 2.0);
  EXPECT_DOUBLE_EQ(ends[1], 5.0);  // queued behind the first
  EXPECT_DOUBLE_EQ(r.busy_time(), 5.0);
}

TEST(Resource, RespectsEarliestStart) {
  Simulator sim;
  Resource r(sim, "proc");
  double end = 0.0;
  r.submit(4.0, 1.0, [&](Time t) { end = t; });
  sim.run();
  EXPECT_DOUBLE_EQ(end, 5.0);
  ASSERT_EQ(r.intervals().size(), 1u);
  EXPECT_DOUBLE_EQ(r.intervals()[0].start, 4.0);
}

TEST(Resource, UtilizationOverHorizon) {
  Simulator sim;
  Resource r(sim, "proc");
  r.submit(0.0, 2.0, nullptr);
  sim.run();
  EXPECT_DOUBLE_EQ(r.utilization(4.0), 0.5);
  EXPECT_DOUBLE_EQ(r.utilization(0.0), 0.0);
}

TEST(Resource, ZeroDurationJobCompletes) {
  Simulator sim;
  Resource r(sim, "proc");
  bool done = false;
  r.submit(0.0, 0.0, [&](Time) { done = true; });
  sim.run();
  EXPECT_TRUE(done);
}

TEST(Resource, NextFreeTracksBacklog) {
  Simulator sim;
  Resource r(sim, "proc");
  r.submit(0.0, 3.0, nullptr);
  EXPECT_DOUBLE_EQ(r.next_free(0.0), 3.0);
  EXPECT_DOUBLE_EQ(r.next_free(10.0), 10.0);
}

}  // namespace
}  // namespace hidp::sim
