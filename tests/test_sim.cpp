// Unit tests for the discrete-event simulator and FIFO resources.
#include <gtest/gtest.h>

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
