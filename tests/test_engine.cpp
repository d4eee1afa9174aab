// Execution engine: dispatch, contention, FSM phase charging, traces.
#include <gtest/gtest.h>

#include <memory>

#include "dnn/zoo/zoo.hpp"
#include "runtime/engine.hpp"
#include "runtime/workload.hpp"

namespace hidp::runtime {
namespace {

/// Deterministic strategy issuing `tasks` fixed compute tasks on
/// (node 0, proc 0).
class FixedStrategy : public IStrategy {
 public:
  explicit FixedStrategy(double seconds, double phases_s = 0.0, int tasks = 1)
      : seconds_(seconds), phases_s_(phases_s), tasks_(tasks) {}
  std::string name() const override { return "Fixed"; }
  PlanResult plan(const PlanRequest& request) override {
    last_snapshot = request.snapshot;
    Plan p;
    p.strategy = name();
    p.leader = request.snapshot.leader;
    for (int i = 0; i < tasks_; ++i) {
      PlanTask t;
      t.kind = PlanTask::Kind::kCompute;
      t.node = 0;
      t.proc = 0;
      t.seconds = seconds_;
      t.flops = 1e9;
      if (i > 0) t.deps = {i - 1};
      p.tasks.push_back(t);
    }
    p.phases.explore_s = phases_s_;
    p.nodes_used = 1;
    return PlanResult{std::move(p), false};
  }
  ClusterSnapshot last_snapshot;

 private:
  double seconds_;
  double phases_s_;
  int tasks_;
};

TEST(Engine, SingleRequestLatency) {
  Cluster cluster(platform::paper_cluster(2));
  FixedStrategy strategy(0.5);
  ExecutionEngine engine(cluster, strategy, 0);
  dnn::DnnGraph model = dnn::zoo::build_efficientnet_b0(32, 4);
  const auto records = engine.run({InferenceRequest{0, &model, 1.0}});
  ASSERT_EQ(records.size(), 1u);
  EXPECT_DOUBLE_EQ(records[0].arrival_s, 1.0);
  EXPECT_DOUBLE_EQ(records[0].finish_s, 1.5);
  EXPECT_DOUBLE_EQ(records[0].latency_s(), 0.5);
  EXPECT_EQ(records[0].outcome, RequestOutcome::kCompleted);
  EXPECT_DOUBLE_EQ(engine.makespan_s(), 1.5);
}

TEST(Engine, FinishedRunIsFreedWhenThePumpStopsTheLoop) {
  // A driver may stop Simulator::run() from its pump the moment the last
  // terminal outcome fires (the gateway does). Nothing of the finished run
  // — here, its `done` callback's captures — may outlive that moment.
  Cluster cluster(platform::paper_cluster(2));
  FixedStrategy strategy(0.5, 0.1, 3);
  ExecutionEngine engine(cluster, strategy, 0);
  dnn::DnnGraph model = dnn::zoo::build_efficientnet_b0(32, 4);
  RequestRecord record;
  bool done = false;
  auto sentinel = std::make_shared<int>(0);
  const std::weak_ptr<int> watch = sentinel;
  engine.execute(RequestSpec{0, &model, 0.0}, record, /*queued_behind=*/0,
                 [&done, held = std::move(sentinel)] { done = true; });
  sim::Simulator& sim = cluster.simulator();
  sim.set_pump([&done] { return !done; });
  sim.run();
  sim.set_pump(nullptr);
  ASSERT_TRUE(done);
  EXPECT_DOUBLE_EQ(record.finish_s, 1.6);
  EXPECT_TRUE(watch.expired());
}

TEST(Engine, PhasesDelayDispatch) {
  Cluster cluster(platform::paper_cluster(2));
  FixedStrategy strategy(0.5, 0.1);
  ExecutionEngine engine(cluster, strategy, 0);
  dnn::DnnGraph model = dnn::zoo::build_efficientnet_b0(32, 4);
  const auto records = engine.run({InferenceRequest{0, &model, 0.0}});
  EXPECT_DOUBLE_EQ(records[0].dispatch_s, 0.1);
  EXPECT_DOUBLE_EQ(records[0].finish_s, 0.6);
}

TEST(Engine, ContentionSerialisesOnSharedProcessor) {
  Cluster cluster(platform::paper_cluster(2));
  FixedStrategy strategy(1.0);
  ExecutionEngine engine(cluster, strategy, 0);
  dnn::DnnGraph model = dnn::zoo::build_efficientnet_b0(32, 4);
  const auto records = engine.run({
      InferenceRequest{0, &model, 0.0},
      InferenceRequest{1, &model, 0.0},
      InferenceRequest{2, &model, 0.0},
  });
  ASSERT_EQ(records.size(), 3u);
  EXPECT_DOUBLE_EQ(records[0].finish_s, 1.0);
  EXPECT_DOUBLE_EQ(records[1].finish_s, 2.0);
  EXPECT_DOUBLE_EQ(records[2].finish_s, 3.0);
}

TEST(Engine, QueueDepthVisibleToStrategy) {
  Cluster cluster(platform::paper_cluster(2));
  FixedStrategy strategy(1.0);
  ExecutionEngine engine(cluster, strategy, 0);
  dnn::DnnGraph model = dnn::zoo::build_efficientnet_b0(32, 4);
  engine.run({InferenceRequest{0, &model, 0.0}, InferenceRequest{1, &model, 0.1}});
  // The second request arrives while the first is still running.
  EXPECT_EQ(strategy.last_snapshot.queue_depth, 1);
}

TEST(Engine, DeadlineMissStampedOnLateFinish) {
  Cluster cluster(platform::paper_cluster(2));
  FixedStrategy strategy(1.0);
  ExecutionEngine engine(cluster, strategy, 0);
  dnn::DnnGraph model = dnn::zoo::build_efficientnet_b0(32, 4);
  InferenceRequest late{0, &model, 0.0};
  late.deadline_s = 0.5;  // the 1 s task can only miss
  InferenceRequest fine{1, &model, 2.0};
  fine.deadline_s = 4.0;
  const auto records = engine.run({late, fine});
  EXPECT_EQ(records[0].outcome, RequestOutcome::kDeadlineMiss);
  EXPECT_EQ(records[1].outcome, RequestOutcome::kCompleted);
}

TEST(Engine, TracesRecordComputeIntervals) {
  Cluster cluster(platform::paper_cluster(2));
  FixedStrategy strategy(0.25);
  ExecutionEngine engine(cluster, strategy, 0);
  dnn::DnnGraph model = dnn::zoo::build_efficientnet_b0(32, 4);
  engine.run({InferenceRequest{0, &model, 0.0}, InferenceRequest{1, &model, 0.0}});
  ASSERT_EQ(engine.traces().size(), 2u);
  EXPECT_DOUBLE_EQ(engine.traces()[0].start_s, 0.0);
  EXPECT_DOUBLE_EQ(engine.traces()[0].end_s, 0.25);
  EXPECT_DOUBLE_EQ(engine.traces()[1].start_s, 0.25);  // queued
  EXPECT_DOUBLE_EQ(engine.traces()[1].flops, 1e9);
}

TEST(Engine, TraceCapacityZeroDisablesTracing) {
  Cluster cluster(platform::paper_cluster(2));
  FixedStrategy strategy(0.25, 0.0, /*tasks=*/3);
  ExecutionEngine engine(cluster, strategy, 0);
  engine.set_trace_capacity(0);
  dnn::DnnGraph model = dnn::zoo::build_efficientnet_b0(32, 4);
  const auto records =
      engine.run({InferenceRequest{0, &model, 0.0}, InferenceRequest{1, &model, 0.0}});
  EXPECT_TRUE(engine.traces().empty());
  // Execution itself is unaffected: both requests still complete (their
  // chained tasks interleave on the shared FIFO processor).
  EXPECT_DOUBLE_EQ(records[0].finish_s, 1.25);
  EXPECT_DOUBLE_EQ(records[1].finish_s, 1.5);
}

TEST(Engine, TraceCapHitMidRunStopsCollection) {
  Cluster cluster(platform::paper_cluster(2));
  FixedStrategy strategy(0.1, 0.0, /*tasks=*/2);
  ExecutionEngine engine(cluster, strategy, 0);
  engine.set_trace_capacity(3);  // 3 requests x 2 tasks = 6 would overflow
  dnn::DnnGraph model = dnn::zoo::build_efficientnet_b0(32, 4);
  const auto records = engine.run({
      InferenceRequest{0, &model, 0.0},
      InferenceRequest{1, &model, 0.0},
      InferenceRequest{2, &model, 0.0},
  });
  EXPECT_EQ(engine.traces().size(), 3u);
  // The cap hit mid-run (between tasks of request 1): the retained prefix
  // is still time-ordered and complete execution was unaffected.
  for (std::size_t i = 1; i < engine.traces().size(); ++i) {
    EXPECT_GE(engine.traces()[i].start_s, engine.traces()[i - 1].start_s);
  }
  EXPECT_EQ(records.size(), 3u);
  for (const auto& r : records) EXPECT_EQ(r.outcome, RequestOutcome::kCompleted);
}

TEST(Engine, RecordsSortedById) {
  Cluster cluster(platform::paper_cluster(2));
  FixedStrategy strategy(0.1);
  ExecutionEngine engine(cluster, strategy, 0);
  dnn::DnnGraph model = dnn::zoo::build_efficientnet_b0(32, 4);
  const auto records = engine.run({
      InferenceRequest{7, &model, 0.2},
      InferenceRequest{3, &model, 0.1},
  });
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].id, 3);
  EXPECT_EQ(records[1].id, 7);
}

TEST(Engine, RecordsSortedByIdUnderShuffledArrivalOrder) {
  // The id-sorted invariant must hold regardless of arrival order, id
  // gaps, or submission order (ids here are neither contiguous nor sorted
  // by arrival).
  Cluster cluster(platform::paper_cluster(2));
  FixedStrategy strategy(0.05);
  ExecutionEngine engine(cluster, strategy, 0);
  dnn::DnnGraph model = dnn::zoo::build_efficientnet_b0(32, 4);
  const auto records = engine.run({
      InferenceRequest{42, &model, 0.30},
      InferenceRequest{-3, &model, 0.20},
      InferenceRequest{7, &model, 0.00},
      InferenceRequest{19, &model, 0.10},
  });
  ASSERT_EQ(records.size(), 4u);
  for (std::size_t i = 1; i < records.size(); ++i) {
    EXPECT_LT(records[i - 1].id, records[i].id);
  }
}

TEST(Engine, RejectsNullModel) {
  Cluster cluster(platform::paper_cluster(2));
  FixedStrategy strategy(0.1);
  ExecutionEngine engine(cluster, strategy, 0);
  EXPECT_THROW(engine.run({InferenceRequest{0, nullptr, 0.0}}), std::invalid_argument);
}

TEST(Engine, RejectsBadLeader) {
  Cluster cluster(platform::paper_cluster(2));
  FixedStrategy strategy(0.1);
  EXPECT_THROW(ExecutionEngine(cluster, strategy, 9), std::invalid_argument);
}

TEST(Engine, EmptyPlanFinishesImmediately) {
  class EmptyStrategy : public IStrategy {
   public:
    std::string name() const override { return "Empty"; }
    PlanResult plan(const PlanRequest&) override { return PlanResult{}; }
  };
  Cluster cluster(platform::paper_cluster(2));
  EmptyStrategy strategy;
  ExecutionEngine engine(cluster, strategy, 0);
  dnn::DnnGraph model = dnn::zoo::build_efficientnet_b0(32, 4);
  const auto records = engine.run({InferenceRequest{0, &model, 0.5}});
  EXPECT_DOUBLE_EQ(records[0].finish_s, 0.5);
}

TEST(Engine, MidTaskNodeDeathFailsAtFailureInstantWithPartialFlops) {
  // Three chained 0.4 s tasks on node 0; the node dies at t=0.6, one task
  // done and the second mid-execution. The request must fail *then* — not
  // complete at t=1.2 on a ghost node — keeping only the finished task's
  // FLOPs.
  Cluster cluster(platform::paper_cluster(2));
  FixedStrategy strategy(0.4, 0.0, /*tasks=*/3);
  ExecutionEngine engine(cluster, strategy, 0);
  dnn::DnnGraph model = dnn::zoo::build_efficientnet_b0(32, 4);
  cluster.simulator().schedule_at(0.6, [&] { cluster.set_node_available(0, false); });
  const auto records = engine.run({InferenceRequest{0, &model, 0.0}});
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].outcome, RequestOutcome::kFailed);
  EXPECT_DOUBLE_EQ(records[0].finish_s, 0.6);
  EXPECT_DOUBLE_EQ(records[0].flops, 1e9);  // only the completed first task
}

TEST(Engine, DeathOfUntouchedNodeLeavesRequestAlone) {
  Cluster cluster(platform::paper_cluster(2));
  FixedStrategy strategy(0.5);  // plans on node 0 only
  ExecutionEngine engine(cluster, strategy, 0);
  dnn::DnnGraph model = dnn::zoo::build_efficientnet_b0(32, 4);
  cluster.simulator().schedule_at(0.2, [&] { cluster.set_node_available(1, false); });
  const auto records = engine.run({InferenceRequest{0, &model, 0.0}});
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].outcome, RequestOutcome::kCompleted);
  EXPECT_DOUBLE_EQ(records[0].finish_s, 0.5);
}

TEST(Engine, NodeDeathDuringPhaseDelayFailsBeforeFirstTask) {
  // The node dies during the FSM phase delay, after planning but before
  // the first task starts: the request is already registered, so it fails
  // at the death instant instead of executing on the ghost (or throwing on
  // transfer) at dispatch time.
  Cluster cluster(platform::paper_cluster(2));
  FixedStrategy strategy(0.5, /*phases_s=*/0.3);
  ExecutionEngine engine(cluster, strategy, 0);
  dnn::DnnGraph model = dnn::zoo::build_efficientnet_b0(32, 4);
  cluster.simulator().schedule_at(0.1, [&] { cluster.set_node_available(0, false); });
  const auto records = engine.run({InferenceRequest{0, &model, 0.0}});
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].outcome, RequestOutcome::kFailed);
  EXPECT_DOUBLE_EQ(records[0].finish_s, 0.1);  // the death instant
  EXPECT_DOUBLE_EQ(records[0].flops, 0.0);
}

TEST(Engine, NodeDeadAtTaskStartFailsInsteadOfExecuting) {
  // The planned node dies *and never registers with the run's failure
  // sweep*: here, because it recovers planning-wise but the plan is stale —
  // simulate by killing the node after the run would fire only via the
  // start-task availability check: node down at 0.1, up before the
  // observer sweep would matter for a freshly-dispatched request at 0.2.
  Cluster cluster(platform::paper_cluster(2));
  FixedStrategy strategy(0.5);
  ExecutionEngine engine(cluster, strategy, 0);
  dnn::DnnGraph model = dnn::zoo::build_efficientnet_b0(32, 4);
  // The strategy plans on node 0 unconditionally, ignoring availability —
  // a stale/buggy plan. Node 0 is already down when the request arrives:
  // no churn event fires while the run is active, so only the start-task
  // check can catch it.
  cluster.set_node_available(0, false);
  const auto records = engine.run({InferenceRequest{0, &model, 0.2}});
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].outcome, RequestOutcome::kFailed);
  EXPECT_DOUBLE_EQ(records[0].finish_s, 0.2);
  EXPECT_DOUBLE_EQ(records[0].flops, 0.0);
}

TEST(Engine, FailureCallbackFiresInsteadOfDoneAndAllowsReplan) {
  Cluster cluster(platform::paper_cluster(2));
  FixedStrategy strategy(0.5);
  ExecutionEngine engine(cluster, strategy, 0);
  dnn::DnnGraph model = dnn::zoo::build_efficientnet_b0(32, 4);
  RequestRecord record;
  record.id = 7;
  int done_calls = 0;
  int failed_calls = 0;
  cluster.simulator().schedule_at(0.0, [&] {
    engine.execute(RequestSpec{7, &model, 0.0}, record, 0, [&] { ++done_calls; },
                   [&] { ++failed_calls; });
  });
  cluster.simulator().schedule_at(0.2, [&] { cluster.set_node_available(0, false); });
  cluster.simulator().run();
  EXPECT_EQ(done_calls, 0);
  EXPECT_EQ(failed_calls, 1);
  EXPECT_EQ(record.outcome, RequestOutcome::kFailed);
  EXPECT_DOUBLE_EQ(record.finish_s, 0.2);
  EXPECT_EQ(engine.in_flight(), 0);
}

TEST(Cluster, EnergyGrowsWithBusyTime) {
  Cluster cluster(platform::paper_cluster(2));
  FixedStrategy strategy(1.0);
  ExecutionEngine engine(cluster, strategy, 0);
  dnn::DnnGraph model = dnn::zoo::build_efficientnet_b0(32, 4);
  engine.run({InferenceRequest{0, &model, 0.0}});
  const double busy_energy = cluster.total_energy_j(1.0);
  // An idle cluster over the same horizon consumes strictly less.
  Cluster idle(platform::paper_cluster(2));
  EXPECT_GT(busy_energy, idle.total_energy_j(1.0));
}

TEST(Cluster, NodeEnergyBreakdownConsistent) {
  Cluster cluster(platform::paper_cluster(2));
  FixedStrategy strategy(2.0);
  ExecutionEngine engine(cluster, strategy, 0);
  dnn::DnnGraph model = dnn::zoo::build_efficientnet_b0(32, 4);
  engine.run({InferenceRequest{0, &model, 0.0}});
  const auto e = cluster.node_energy(0, 2.0);
  EXPECT_GT(e.active_j, 0.0);
  EXPECT_DOUBLE_EQ(cluster.busy_s(0, 0), 2.0);
  double total = 0.0;
  for (std::size_t n = 0; n < cluster.size(); ++n) total += cluster.node_energy(n, 2.0).total_j();
  EXPECT_NEAR(total, cluster.total_energy_j(2.0), 1e-9);
}

}  // namespace
}  // namespace hidp::runtime
