// Churn subsystem: Cluster epoch/observer mechanics, ChurnProcess kinds
// (scripted, MTBF/MTTR, flapping), injector scheduling, determinism of
// churned runs, mid-task failure + retry accounting, and the eager plan
// cache invalidation path.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/hidp_strategy.hpp"
#include "runtime/churn.hpp"
#include "runtime/metrics.hpp"
#include "runtime/service.hpp"
#include "runtime/workload.hpp"

namespace hidp::runtime {
namespace {

using dnn::zoo::ModelId;

std::vector<platform::NodeModel> uniform_cluster(std::size_t n) {
  std::vector<platform::NodeModel> nodes;
  for (std::size_t i = 0; i < n; ++i) nodes.push_back(platform::make_device("Jetson TX2"));
  return nodes;
}

/// Plans one compute task on `preferred` when that node is up, else on the
/// leader — a deterministic strategy whose replans visibly move off dead
/// nodes.
class PreferredNodeStrategy : public IStrategy {
 public:
  PreferredNodeStrategy(std::size_t preferred, double seconds)
      : preferred_(preferred), seconds_(seconds) {}
  std::string name() const override { return "PreferredNode"; }
  PlanResult plan(const PlanRequest& request) override {
    const auto& available = request.snapshot.available;
    const bool preferred_up = preferred_ < available.size() && available[preferred_];
    Plan plan;
    plan.strategy = name();
    plan.leader = request.snapshot.leader;
    PlanTask task;
    task.kind = PlanTask::Kind::kCompute;
    task.node = preferred_up ? preferred_ : request.snapshot.leader;
    task.proc = 0;
    task.seconds = seconds_;
    task.flops = 1e9;
    plan.tasks.push_back(task);
    plan.nodes_used = 1;
    return PlanResult{std::move(plan), false};
  }

 private:
  std::size_t preferred_;
  double seconds_;
};

TEST(ClusterChurn, EpochBumpsOnEffectiveChangesOnly) {
  Cluster cluster(uniform_cluster(2));
  EXPECT_EQ(cluster.membership_epoch(), 0u);
  cluster.set_node_available(1, true);  // already up: no-op
  EXPECT_EQ(cluster.membership_epoch(), 0u);
  cluster.set_node_available(1, false);
  EXPECT_EQ(cluster.membership_epoch(), 1u);
  EXPECT_FALSE(cluster.node_available(1));
  cluster.set_node_available(1, false);  // idempotent
  EXPECT_EQ(cluster.membership_epoch(), 1u);
  cluster.set_node_available(1, true);
  EXPECT_EQ(cluster.membership_epoch(), 2u);
  cluster.set_dvfs_scale(0, 1.0);  // already at baseline: no-op
  EXPECT_EQ(cluster.membership_epoch(), 2u);
  cluster.set_dvfs_scale(0, 0.5);
  EXPECT_EQ(cluster.membership_epoch(), 3u);
  EXPECT_THROW(cluster.set_node_available(7, false), std::out_of_range);
  EXPECT_THROW(cluster.set_dvfs_scale(0, 0.0), std::invalid_argument);
}

TEST(ClusterChurn, DvfsScalesFrequenciesAbsolutelyAndRestores) {
  Cluster cluster(uniform_cluster(1));
  std::vector<double> base;
  for (const auto& proc : cluster.nodes()[0].processors()) base.push_back(proc.freq_ghz());
  cluster.set_dvfs_scale(0, 0.5);
  EXPECT_DOUBLE_EQ(cluster.dvfs_scale(0), 0.5);
  for (std::size_t p = 0; p < base.size(); ++p) {
    EXPECT_DOUBLE_EQ(cluster.nodes()[0].processor(p).freq_ghz(), base[p] * 0.5);
  }
  // Absolute, not cumulative: 0.5 twice stays 0.5x; 1.0 restores exactly.
  cluster.set_dvfs_scale(0, 0.5);
  EXPECT_DOUBLE_EQ(cluster.nodes()[0].processor(0).freq_ghz(), base[0] * 0.5);
  cluster.set_dvfs_scale(0, 1.0);
  for (std::size_t p = 0; p < base.size(); ++p) {
    EXPECT_DOUBLE_EQ(cluster.nodes()[0].processor(p).freq_ghz(), base[p]);
  }
}

TEST(ClusterChurn, ObserversFireInRegistrationOrderWithEventDetails) {
  Cluster cluster(uniform_cluster(2));
  std::vector<int> order;
  NodeEvent seen{};
  const std::size_t a = cluster.add_observer([&](const NodeEvent& e) {
    order.push_back(1);
    seen = e;
  });
  cluster.add_observer([&](const NodeEvent&) { order.push_back(2); });
  cluster.set_node_available(1, false);
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1);
  EXPECT_EQ(order[1], 2);
  EXPECT_EQ(seen.kind, NodeEvent::Kind::kDown);
  EXPECT_EQ(seen.node, 1u);
  EXPECT_EQ(seen.epoch, 1u);
  cluster.remove_observer(a);
  order.clear();
  cluster.set_node_available(1, true);
  ASSERT_EQ(order.size(), 1u);
  EXPECT_EQ(order[0], 2);
}

TEST(ChurnProcesses, ScriptedReplaysSortedTrace) {
  ScriptedChurn churn({
      {0.5, 1, ChurnEvent::Action::kRepair, 1.0},
      {0.2, 0, ChurnEvent::Action::kFail, 1.0},
      {0.3, 1, ChurnEvent::Action::kFail, 1.0},
  });
  auto e1 = churn.next(0.0);
  auto e2 = churn.next(0.0);
  auto e3 = churn.next(0.0);
  ASSERT_TRUE(e1 && e2 && e3);
  EXPECT_DOUBLE_EQ(e1->time_s, 0.2);
  EXPECT_DOUBLE_EQ(e2->time_s, 0.3);
  EXPECT_DOUBLE_EQ(e3->time_s, 0.5);
  EXPECT_FALSE(churn.next(0.0).has_value());
}

TEST(ChurnProcesses, FlappingAlternatesFailRepair) {
  FlappingChurn::Options options;
  options.node = 2;
  options.start_s = 1.0;
  options.down_s = 0.2;
  options.up_s = 0.3;
  options.cycles = 2;
  FlappingChurn churn(options);
  const double expect_times[] = {1.0, 1.2, 1.5, 1.7};
  for (int i = 0; i < 4; ++i) {
    auto event = churn.next(0.0);
    ASSERT_TRUE(event.has_value()) << i;
    EXPECT_DOUBLE_EQ(event->time_s, expect_times[i]);
    EXPECT_EQ(event->node, 2u);
    EXPECT_EQ(event->action,
              i % 2 == 0 ? ChurnEvent::Action::kFail : ChurnEvent::Action::kRepair);
  }
  EXPECT_FALSE(churn.next(0.0).has_value());
}

TEST(ChurnProcesses, MtbfIsDeterministicPerSeedAndHorizonBounded) {
  MtbfChurn::Options options;
  options.mtbf_s = 0.3;
  options.mttr_s = 0.2;
  options.horizon_s = 5.0;
  options.seed = 42;
  options.nodes = {0, 2};
  const auto drain = [](MtbfChurn& churn) {
    std::vector<ChurnEvent> events;
    while (auto event = churn.next(0.0)) events.push_back(*event);
    return events;
  };
  MtbfChurn a(options), b(options);
  const auto ea = drain(a);
  const auto eb = drain(b);
  ASSERT_FALSE(ea.empty());
  ASSERT_EQ(ea.size(), eb.size());
  double last = 0.0;
  for (std::size_t i = 0; i < ea.size(); ++i) {
    EXPECT_DOUBLE_EQ(ea[i].time_s, eb[i].time_s);
    EXPECT_EQ(ea[i].node, eb[i].node);
    EXPECT_EQ(ea[i].action, eb[i].action);
    EXPECT_GE(ea[i].time_s, last);  // time-sorted
    EXPECT_LT(ea[i].time_s, options.horizon_s);
    last = ea[i].time_s;
  }
  options.seed = 43;
  MtbfChurn c(options);
  const auto ec = drain(c);
  bool differs = ec.size() != ea.size();
  for (std::size_t i = 0; !differs && i < ec.size(); ++i) {
    differs = ec[i].time_s != ea[i].time_s || ec[i].node != ea[i].node;
  }
  EXPECT_TRUE(differs) << "different seeds produced the same event stream";
}

TEST(ChurnInjector, AppliesEventsAtScheduledTimes) {
  Cluster cluster(uniform_cluster(2));
  ScriptedChurn trace({
      {0.25, 1, ChurnEvent::Action::kFail, 1.0},
      {0.5, 0, ChurnEvent::Action::kDvfs, 0.5},
      {0.75, 1, ChurnEvent::Action::kRepair, 1.0},
  });
  ChurnInjector injector(cluster, trace);
  injector.start();
  std::vector<std::pair<double, std::uint64_t>> observed;  // (time, epoch)
  cluster.add_observer([&](const NodeEvent& event) {
    observed.emplace_back(event.time_s, event.epoch);
  });
  cluster.simulator().run();
  EXPECT_EQ(injector.applied(), 3u);
  EXPECT_EQ(cluster.membership_epoch(), 3u);
  ASSERT_EQ(observed.size(), 3u);
  EXPECT_DOUBLE_EQ(observed[0].first, 0.25);
  EXPECT_DOUBLE_EQ(observed[1].first, 0.5);
  EXPECT_DOUBLE_EQ(observed[2].first, 0.75);
  EXPECT_TRUE(cluster.node_available(1));
  EXPECT_DOUBLE_EQ(cluster.dvfs_scale(0), 0.5);
}

TEST(ChurnFailure, MidTaskDeathRetriesOnSurvivorsThenCompletes) {
  Cluster cluster(uniform_cluster(2));
  PreferredNodeStrategy strategy(/*preferred=*/1, /*seconds=*/1.0);
  ServiceOptions options;
  options.max_retries = 1;
  InferenceService service(cluster, strategy, /*leader=*/0, options);
  ModelSet models;
  service.submit(RequestSpec{0, &models.graph(ModelId::kEfficientNetB0), 0.0});
  ScriptedChurn trace({{0.5, 1, ChurnEvent::Action::kFail, 1.0}});
  ChurnInjector injector(cluster, trace);
  injector.start();
  const auto records = service.run();
  ASSERT_EQ(records.size(), 1u);
  // Node 1 died at 0.5 mid-task; the retry replanned onto the leader at
  // that instant and ran 1.0 s there.
  EXPECT_EQ(records[0].outcome, RequestOutcome::kCompleted);
  EXPECT_DOUBLE_EQ(records[0].finish_s, 1.5);
  EXPECT_EQ(service.stats().retries, 1u);
  EXPECT_EQ(service.stats().completed, 1u);
  EXPECT_EQ(service.stats().failed, 0u);
}

TEST(ChurnFailure, RetriesExhaustedTurnsTerminalFailedWithBalancedStats) {
  Cluster cluster(uniform_cluster(2));
  PreferredNodeStrategy strategy(1, 1.0);
  ServiceOptions options;
  options.max_retries = 0;  // no second chance
  InferenceService service(cluster, strategy, 0, options);
  ModelSet models;
  RequestSpec interactive{0, &models.graph(ModelId::kEfficientNetB0), 0.0,
                          QosClass::kInteractive};
  service.submit(interactive);
  service.submit(RequestSpec{1, &models.graph(ModelId::kEfficientNetB0), 2.0});
  ScriptedChurn trace({{0.5, 1, ChurnEvent::Action::kFail, 1.0}});
  ChurnInjector injector(cluster, trace);
  injector.start();
  const auto records = service.run();
  ASSERT_EQ(records.size(), 2u);
  // Request 0 dies at the failure instant with its partial FLOPs dropped.
  EXPECT_EQ(records[0].outcome, RequestOutcome::kFailed);
  EXPECT_DOUBLE_EQ(records[0].finish_s, 0.5);
  EXPECT_DOUBLE_EQ(records[0].flops, 0.0);
  // Request 1 arrives after the death and plans around it (leader node).
  EXPECT_EQ(records[1].outcome, RequestOutcome::kCompleted);
  // Accounting balances per class: submitted = terminal outcomes.
  const ServiceStats& stats = service.stats();
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.retries, 0u);
  const QosClassStats& inter = stats.of(QosClass::kInteractive);
  EXPECT_EQ(inter.submitted, 1u);
  EXPECT_EQ(inter.failed, 1u);
  EXPECT_EQ(inter.completed + inter.rejected + inter.dropped + inter.deadline_misses, 0u);
  const QosClassStats& standard = stats.of(QosClass::kStandard);
  EXPECT_EQ(standard.submitted, 1u);
  EXPECT_EQ(standard.completed, 1u);
  const StreamMetrics metrics = summarize_run(records, cluster);
  EXPECT_EQ(metrics.failed, 1);
  EXPECT_EQ(metrics.completed, 1);
}

TEST(ChurnFailure, ExpiredRequestDroppedInsteadOfRetriedAfterMidTaskDeath) {
  // drop_expired_pending: a churn-killed request whose deadline passed
  // while it executed is could-only-miss work — no retry, terminal
  // kDropped at the failure instant.
  Cluster cluster(uniform_cluster(2));
  PreferredNodeStrategy strategy(1, 1.0);
  ServiceOptions options;
  options.max_retries = 3;
  options.drop_expired_pending = true;
  InferenceService service(cluster, strategy, 0, options);
  ModelSet models;
  RequestSpec doomed{0, &models.graph(ModelId::kEfficientNetB0), 0.0};
  doomed.deadline_s = 0.4;  // passes mid-execution
  service.submit(doomed);
  ScriptedChurn trace({{0.5, 1, ChurnEvent::Action::kFail, 1.0}});
  ChurnInjector injector(cluster, trace);
  injector.start();
  const auto records = service.run();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].outcome, RequestOutcome::kDropped);
  EXPECT_DOUBLE_EQ(records[0].finish_s, 0.5);
  EXPECT_EQ(service.stats().dropped, 1u);
  EXPECT_EQ(service.stats().retries, 0u);
  EXPECT_EQ(service.stats().failed, 0u);
}

TEST(ChurnFailure, DeadLeaderParksPendingUntilRepair) {
  Cluster cluster(uniform_cluster(2));
  PreferredNodeStrategy strategy(0, 0.2);  // plans on the leader itself
  ServiceOptions options;
  options.max_in_flight = 1;
  InferenceService service(cluster, strategy, 0, options);
  ModelSet models;
  // Leader down before the requests arrive; repair at t=1.0.
  ScriptedChurn trace({
      {0.05, 0, ChurnEvent::Action::kFail, 1.0},
      {1.0, 0, ChurnEvent::Action::kRepair, 1.0},
  });
  ChurnInjector injector(cluster, trace);
  injector.start();
  service.submit(RequestSpec{0, &models.graph(ModelId::kEfficientNetB0), 0.1});
  service.submit(RequestSpec{1, &models.graph(ModelId::kEfficientNetB0), 0.2});
  const auto records = service.run();
  ASSERT_EQ(records.size(), 2u);
  for (const auto& record : records) {
    EXPECT_EQ(record.outcome, RequestOutcome::kCompleted);
    // Nothing dispatched while the shard was dead: both ran post-repair.
    EXPECT_GE(record.dispatch_s, 1.0);
  }
  EXPECT_EQ(service.stats().completed, 2u);
}

TEST(ChurnFailure, DeadLeaderWithoutRepairStrandsAsFailed) {
  Cluster cluster(uniform_cluster(2));
  PreferredNodeStrategy strategy(0, 0.2);
  ServiceOptions options;
  options.max_in_flight = 1;
  InferenceService service(cluster, strategy, 0, options);
  ModelSet models;
  ScriptedChurn trace({{0.05, 0, ChurnEvent::Action::kFail, 1.0}});
  ChurnInjector injector(cluster, trace);
  injector.start();
  service.submit(RequestSpec{0, &models.graph(ModelId::kEfficientNetB0), 0.1});
  service.submit(RequestSpec{1, &models.graph(ModelId::kEfficientNetB0), 0.2});
  const auto records = service.run();
  ASSERT_EQ(records.size(), 2u);
  for (const auto& record : records) {
    EXPECT_EQ(record.outcome, RequestOutcome::kFailed);
    EXPECT_DOUBLE_EQ(record.flops, 0.0);
  }
  EXPECT_EQ(service.stats().failed, 2u);
  EXPECT_EQ(service.pending(), 0u);
}

TEST(ChurnDeterminism, IdenticalSeedsProduceIdenticalChurnedRuns) {
  // Full stack under MTBF/MTTR churn: HiDP planning, Poisson arrivals,
  // retries and failures — two runs with the same seeds must agree on
  // every record field, including failure traces and terminal outcomes.
  ModelSet models;
  const auto run_once = [&]() {
    Cluster cluster(platform::paper_cluster());
    core::HidpStrategy hidp;
    ServiceOptions options;
    options.max_in_flight = 2;
    InferenceService service(cluster, hidp, /*leader=*/1, options);
    PoissonArrivals::Options poisson;
    poisson.rate_hz = 30.0;
    poisson.count = 40;
    poisson.seed = 9;
    PoissonArrivals arrivals(models, {ModelId::kEfficientNetB0, ModelId::kResNet152},
                             poisson);
    service.attach(&arrivals);
    MtbfChurn::Options churn_options;
    churn_options.mtbf_s = 0.4;
    churn_options.mttr_s = 0.3;
    churn_options.horizon_s = 2.0;
    churn_options.seed = 5;
    churn_options.nodes = {0, 3, 4};  // leader 1 stays up
    MtbfChurn churn(churn_options);
    ChurnInjector injector(cluster, churn);
    injector.start();
    auto records = service.run();
    return std::make_pair(std::move(records), service.stats());
  };
  const auto [first, first_stats] = run_once();
  const auto [second, second_stats] = run_once();
  ASSERT_EQ(first.size(), 40u);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].id, second[i].id);
    EXPECT_EQ(first[i].outcome, second[i].outcome);
    EXPECT_DOUBLE_EQ(first[i].arrival_s, second[i].arrival_s);
    EXPECT_DOUBLE_EQ(first[i].dispatch_s, second[i].dispatch_s);
    EXPECT_DOUBLE_EQ(first[i].finish_s, second[i].finish_s);
    EXPECT_DOUBLE_EQ(first[i].flops, second[i].flops);
  }
  EXPECT_EQ(first_stats.completed, second_stats.completed);
  EXPECT_EQ(first_stats.failed, second_stats.failed);
  EXPECT_EQ(first_stats.retries, second_stats.retries);
}

TEST(ChurnPlanCache, DvfsEventRepairsEagerly) {
  Cluster cluster(platform::paper_cluster());
  core::HidpStrategy hidp;
  InferenceService service(cluster, hidp, 1);
  ModelSet models;
  service.submit(RequestSpec{0, &models.graph(ModelId::kVgg19), 0.0});
  service.run();
  const std::uint64_t epoch_before = hidp.plan_cache_epoch();
  const std::size_t scoped_before = hidp.plan_cache_stats().scoped_invalidations;
  // The DVFS event propagates through the service's observer to the
  // strategy at the event instant — no plan() call needed to notice. The
  // throttled leader is in the cached plan, so that entry drops (scoped,
  // not a wholesale flush), and only the leader's cost-model rows are
  // re-priced instead of rebuilding the cost model.
  cluster.set_dvfs_scale(1, 0.5);
  EXPECT_GT(hidp.plan_cache_stats().scoped_invalidations, scoped_before);
  EXPECT_GT(hidp.plan_cache_stats().partial_repriced_rows, 0u);
  EXPECT_EQ(hidp.cost_model_rebuilds(), 0u);
  EXPECT_EQ(hidp.plan_cache_epoch(), epoch_before);
  // Availability churn keys the cache instead of flushing it.
  cluster.set_node_available(3, false);
  EXPECT_EQ(hidp.plan_cache_epoch(), epoch_before);
}

/// Leader death with re-election on: the surviving scope member with the
/// highest aggregate peak rate is promoted, and requests arriving after the
/// death plan and complete under the new leader instead of parking.
TEST(LeaderReelection, PromotesHighestRateSurvivorAndKeepsServing) {
  std::vector<platform::NodeModel> nodes;
  nodes.push_back(platform::make_device("Jetson TX2"));       // leader
  nodes.push_back(platform::make_device("Jetson TX2"));
  nodes.push_back(platform::make_device("Jetson Orin NX"));   // fastest survivor
  Cluster cluster(std::move(nodes));
  PreferredNodeStrategy strategy(/*preferred=*/1, /*seconds=*/0.5);
  ServiceOptions options;
  options.leader_reelection = true;
  InferenceService service(cluster, strategy, /*leader=*/0, options);
  ModelSet models;
  service.submit(RequestSpec{0, &models.graph(ModelId::kEfficientNetB0), 0.0});
  service.submit(RequestSpec{1, &models.graph(ModelId::kEfficientNetB0), 2.0});
  // The leader dies between the two requests (nothing in flight on it).
  ScriptedChurn trace({{1.0, 0, ChurnEvent::Action::kFail, 1.0}});
  ChurnInjector injector(cluster, trace);
  injector.start();
  const auto records = service.run();

  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].outcome, RequestOutcome::kCompleted);
  EXPECT_EQ(records[1].outcome, RequestOutcome::kCompleted);
  EXPECT_EQ(service.stats().leader_reelections, 1u);
  EXPECT_EQ(service.stats().failed, 0u);
  // The Orin NX outguns the surviving TX2: it becomes the anchor.
  EXPECT_EQ(service.engine().leader(), 2u);
}

/// Same scenario with the flag off (the default): the shard is dead once
/// its leader is, so the post-death request parks and finalizes kFailed —
/// the pre-PR behaviour, unchanged.
TEST(LeaderReelection, OffByDefaultKeepsDeadShardSemantics) {
  std::vector<platform::NodeModel> nodes;
  nodes.push_back(platform::make_device("Jetson TX2"));
  nodes.push_back(platform::make_device("Jetson TX2"));
  nodes.push_back(platform::make_device("Jetson Orin NX"));
  Cluster cluster(std::move(nodes));
  PreferredNodeStrategy strategy(1, 0.5);
  InferenceService service(cluster, strategy, 0);
  ModelSet models;
  service.submit(RequestSpec{0, &models.graph(ModelId::kEfficientNetB0), 0.0});
  service.submit(RequestSpec{1, &models.graph(ModelId::kEfficientNetB0), 2.0});
  ScriptedChurn trace({{1.0, 0, ChurnEvent::Action::kFail, 1.0}});
  ChurnInjector injector(cluster, trace);
  injector.start();
  const auto records = service.run();

  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].outcome, RequestOutcome::kCompleted);
  EXPECT_EQ(records[1].outcome, RequestOutcome::kFailed);
  EXPECT_EQ(service.stats().leader_reelections, 0u);
  EXPECT_EQ(service.engine().leader(), 0u);
}

/// When every scope member is gone there is nobody to promote: re-election
/// declines silently and the parked work fails terminally, balanced.
TEST(LeaderReelection, NoSurvivorLeavesTheShardParked) {
  Cluster cluster(uniform_cluster(2));
  PreferredNodeStrategy strategy(1, 0.5);
  ServiceOptions options;
  options.leader_reelection = true;
  InferenceService service(cluster, strategy, 0, options);
  ModelSet models;
  service.submit(RequestSpec{0, &models.graph(ModelId::kEfficientNetB0), 2.0});
  ScriptedChurn trace({
      {0.5, 0, ChurnEvent::Action::kFail, 1.0},  // leader dies: 1 promoted
      {1.0, 1, ChurnEvent::Action::kFail, 1.0},  // new leader dies: nobody left
  });
  ChurnInjector injector(cluster, trace);
  injector.start();
  const auto records = service.run();

  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].outcome, RequestOutcome::kFailed);
  EXPECT_EQ(service.stats().leader_reelections, 1u);
  EXPECT_EQ(service.stats().failed, 1u);
  EXPECT_EQ(service.stats().completed, 0u);
}

}  // namespace
}  // namespace hidp::runtime
