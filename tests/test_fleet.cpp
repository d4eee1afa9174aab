// ServiceFleet: shard construction/validation, routing policies,
// cross-shard work stealing, fleet-level arrival sources (determinism and
// closed-loop liveness), throughput scaling with shard count, node-churn
// failover (evacuation, route-around, orphan merging, reassign), and
// cost-aware stealing for unlimited-admission shards.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/hidp_strategy.hpp"
#include "runtime/churn.hpp"
#include "runtime/fleet.hpp"
#include "runtime/metrics.hpp"
#include "runtime/workload.hpp"

namespace hidp::runtime {
namespace {

using dnn::zoo::ModelId;

/// Deterministic shard-local strategy: one compute task of `seconds` on
/// the shard's leader node — each shard exercises only its own resources.
class LeaderLocalStrategy : public IStrategy {
 public:
  explicit LeaderLocalStrategy(double seconds) : seconds_(seconds) {}
  std::string name() const override { return "LeaderLocal"; }
  PlanResult plan(const PlanRequest& request) override {
    Plan plan;
    plan.strategy = name();
    plan.leader = request.snapshot.leader;
    PlanTask task;
    task.kind = PlanTask::Kind::kCompute;
    task.node = request.snapshot.leader;
    task.proc = 0;
    task.seconds = seconds_;
    task.flops = 1e9;
    plan.tasks.push_back(task);
    plan.nodes_used = 1;
    return PlanResult{std::move(plan), false};
  }

 private:
  double seconds_;
};

/// Skew generator: every request to shard 0 regardless of load.
class AllToZeroRouting : public RoutingPolicy {
 public:
  std::string_view name() const override { return "all-to-zero"; }
  std::size_t route(const RequestSpec&, const ServiceFleet&) override { return 0; }
  bool routes_on_arrival() const override { return false; }
};

/// A shard spec with default service options.
FleetShard shard_spec(IStrategy* strategy, std::vector<std::size_t> nodes,
                      std::size_t leader = FleetShard::kAutoLeader) {
  return FleetShard{strategy, std::move(nodes), leader, {}};
}

std::vector<platform::NodeModel> uniform_cluster(std::size_t n) {
  std::vector<platform::NodeModel> nodes;
  for (std::size_t i = 0; i < n; ++i) nodes.push_back(platform::make_device("Jetson TX2"));
  return nodes;
}

TEST(FleetConstruction, RejectsInvalidTopologies) {
  ModelSet models;
  Cluster cluster(uniform_cluster(4));
  LeaderLocalStrategy a(0.1), b(0.1);
  RoundRobinRouting routing;
  // Overlapping node sets.
  EXPECT_THROW(ServiceFleet(cluster, {shard_spec(&a, {0, 1}), shard_spec(&b, {1, 2})}, routing),
               std::invalid_argument);
  // Shared strategy instance between shards.
  EXPECT_THROW(ServiceFleet(cluster, {shard_spec(&a, {0, 1}), shard_spec(&a, {2, 3})}, routing),
               std::invalid_argument);
  // Whole-cluster shard in a multi-shard fleet.
  EXPECT_THROW(ServiceFleet(cluster, {shard_spec(&a, {}), shard_spec(&b, {2, 3})}, routing),
               std::invalid_argument);
  // Leader outside the shard's node set.
  EXPECT_THROW(ServiceFleet(cluster, {shard_spec(&a, {0, 1}, 3)}, routing), std::invalid_argument);
  // Null strategy / no shards.
  EXPECT_THROW(ServiceFleet(cluster, {shard_spec(nullptr, {0, 1})}, routing),
               std::invalid_argument);
  EXPECT_THROW(ServiceFleet(cluster, {}, routing), std::invalid_argument);
}

TEST(FleetConstruction, ShardViewScopesPlanningAndLeaders) {
  Cluster cluster(uniform_cluster(4));
  const ClusterView view = cluster.shard({2, 3});
  EXPECT_FALSE(view.whole_cluster());
  EXPECT_TRUE(view.contains(2));
  EXPECT_FALSE(view.contains(0));
  const auto available = view.visible_availability();
  EXPECT_FALSE(available[0]);
  EXPECT_TRUE(available[2]);
  EXPECT_TRUE(cluster.view().whole_cluster());

  // Default leader is the first member; scoped planning stays inside.
  ModelSet models;
  LeaderLocalStrategy a(0.01), b(0.01);
  RoundRobinRouting routing;
  ServiceFleet fleet(cluster, {shard_spec(&a, {0, 1}), shard_spec(&b, {2, 3})}, routing);
  EXPECT_EQ(fleet.shard(0).engine().leader(), 0u);
  EXPECT_EQ(fleet.shard(1).engine().leader(), 2u);
  fleet.submit(RequestSpec{0, &models.graph(ModelId::kEfficientNetB0), 0.0});
  fleet.submit(RequestSpec{1, &models.graph(ModelId::kEfficientNetB0), 0.0});
  const auto records = fleet.run();
  ASSERT_EQ(records.size(), 2u);
  for (const auto& trace : fleet.shard(1).traces()) EXPECT_GE(trace.node, 2u);
}

TEST(FleetRouting, RoundRobinCyclesShards) {
  ModelSet models;
  Cluster cluster(uniform_cluster(4));
  LeaderLocalStrategy a(0.01), b(0.01);
  RoundRobinRouting routing;
  ServiceFleet fleet(cluster, {shard_spec(&a, {0, 1}), shard_spec(&b, {2, 3})}, routing);
  const auto stream = periodic_stream(models.graph(ModelId::kEfficientNetB0), 8, 0.5);
  for (const auto& spec : stream) fleet.submit(spec);
  fleet.run();
  EXPECT_EQ(fleet.shard(0).stats().submitted, 4u);
  EXPECT_EQ(fleet.shard(1).stats().submitted, 4u);
}

TEST(FleetRouting, LeastLoadedAvoidsBacklog) {
  ModelSet models;
  Cluster cluster(uniform_cluster(4));
  LeaderLocalStrategy a(1.0), b(1.0);
  LeastLoadedRouting routing;
  FleetShard shard_a{&a, {0, 1}, FleetShard::kAutoLeader, {}};
  FleetShard shard_b{&b, {2, 3}, FleetShard::kAutoLeader, {}};
  shard_a.service.max_in_flight = 1;
  shard_b.service.max_in_flight = 1;
  ServiceFleet fleet(cluster, {shard_a, shard_b}, routing);
  // Four simultaneous arrivals: least-loaded must spread 2/2 instead of
  // piling onto shard 0.
  for (int i = 0; i < 4; ++i) {
    fleet.submit(RequestSpec{i, &models.graph(ModelId::kEfficientNetB0), 0.0});
  }
  fleet.run();
  EXPECT_EQ(fleet.shard(0).stats().submitted, 2u);
  EXPECT_EQ(fleet.shard(1).stats().submitted, 2u);
}

TEST(FleetRouting, ModelAffinityIsStablePerModel) {
  ModelSet models;
  Cluster cluster(uniform_cluster(4));
  LeaderLocalStrategy a(0.01), b(0.01);
  ModelAffinityRouting routing;
  ServiceFleet fleet(cluster, {shard_spec(&a, {0, 1}), shard_spec(&b, {2, 3})}, routing);
  int id = 0;
  for (int round = 0; round < 3; ++round) {
    fleet.submit(RequestSpec{id++, &models.graph(ModelId::kEfficientNetB0), 0.1 * round});
    fleet.submit(RequestSpec{id++, &models.graph(ModelId::kVgg19), 0.1 * round});
  }
  fleet.run();
  // Each model's stream lands wholesale on one shard (which shard is a
  // hash detail; stability is the contract).
  for (std::size_t s = 0; s < fleet.shard_count(); ++s) {
    std::set<std::string> seen;
    for (const auto& record : fleet.shard(s).run()) seen.insert(record.model);
    EXPECT_LE(seen.size(), 1u) << "shard " << s << " serves a mixed model set";
  }
  EXPECT_EQ(fleet.stats().completed, 6u);
}

TEST(FleetRouting, QosWeightedPrefersShardsWithoutHighClassBacklog) {
  ModelSet models;
  const dnn::DnnGraph& model = models.graph(ModelId::kEfficientNetB0);
  Cluster cluster(uniform_cluster(4));
  LeaderLocalStrategy a(1.0), b(1.0);
  QosWeightedRouting routing;
  FleetShard shard_a{&a, {0, 1}, FleetShard::kAutoLeader, {}};
  FleetShard shard_b{&b, {2, 3}, FleetShard::kAutoLeader, {}};
  shard_a.service.max_in_flight = 1;
  shard_b.service.max_in_flight = 1;
  ServiceFleet fleet(cluster, {shard_a, shard_b}, routing);
  // Both shards busy with one request. Then shard 0 gets an interactive
  // pending request, shard 1 a best-effort one: the next standard arrival
  // must prefer shard 1 (lower weighted backlog).
  fleet.submit(RequestSpec{0, &model, 0.0});
  fleet.submit(RequestSpec{1, &model, 0.0});
  RequestSpec interactive{2, &model, 0.1, QosClass::kInteractive};
  fleet.submit(interactive);  // least weighted load: shard 0 (submit order tie)
  RequestSpec best_effort{3, &model, 0.15, QosClass::kBestEffort};
  fleet.submit(best_effort);
  fleet.submit(RequestSpec{4, &model, 0.2});
  fleet.run();
  // Shard 1 ends with the best-effort + the final standard request.
  EXPECT_EQ(fleet.shard(1).stats().submitted, 3u);
  EXPECT_EQ(fleet.shard(0).stats().submitted, 2u);
  EXPECT_EQ(fleet.shard(0).stats().of(QosClass::kInteractive).completed, 1u);
}

TEST(FleetWorkStealing, SkewedArrivalsStealToIdleShardAndLowerP99) {
  ModelSet models;
  const dnn::DnnGraph& model = models.graph(ModelId::kEfficientNetB0);
  const auto stream = periodic_stream(model, 40, 0.05);

  const auto run_fleet = [&](bool stealing) {
    Cluster cluster(uniform_cluster(4));
    LeaderLocalStrategy a(0.2), b(0.2);
    AllToZeroRouting routing;
    FleetShard shard_a{&a, {0, 1}, FleetShard::kAutoLeader, {}};
    FleetShard shard_b{&b, {2, 3}, FleetShard::kAutoLeader, {}};
    shard_a.service.max_in_flight = 1;
    shard_b.service.max_in_flight = 1;
    FleetOptions options;
    options.work_stealing = stealing;
    ServiceFleet fleet(cluster, {shard_a, shard_b}, routing, options);
    ReplayArrivals arrivals(stream);
    fleet.attach(&arrivals);
    const auto records = fleet.run();
    StreamMetrics metrics = summarize_run(records, cluster);
    EXPECT_EQ(records.size(), stream.size());
    EXPECT_EQ(fleet.stats().completed, stream.size());
    return std::pair<StreamMetrics, std::size_t>(metrics, fleet.steals());
  };

  const auto [skewed, no_steals] = run_fleet(false);
  const auto [balanced, steals] = run_fleet(true);
  EXPECT_EQ(no_steals, 0u);
  EXPECT_GT(steals, 0u);
  // All load funnels into shard 0; stealing turns one server into two, so
  // the tail latency must drop well below the skewed run's.
  EXPECT_LT(balanced.p99_latency_s, 0.7 * skewed.p99_latency_s);
  EXPECT_LT(balanced.makespan_s, skewed.makespan_s);
}

TEST(FleetWorkStealing, StealsHighestQosPendingFirst) {
  ModelSet models;
  const dnn::DnnGraph& model = models.graph(ModelId::kEfficientNetB0);
  Cluster cluster(uniform_cluster(2));
  LeaderLocalStrategy strategy(1.0);
  ServiceOptions options;
  options.max_in_flight = 1;
  InferenceService service(cluster.shard({0}), strategy, 0, options);
  service.submit(RequestSpec{0, &model, 0.0});  // occupies the slot
  service.submit(RequestSpec{1, &model, 0.1, QosClass::kBestEffort});
  service.submit(RequestSpec{2, &model, 0.2, QosClass::kInteractive});
  service.submit(RequestSpec{3, &model, 0.3, QosClass::kStandard});
  cluster.simulator().run_until(0.5);
  ASSERT_EQ(service.pending(), 3u);
  EXPECT_EQ(service.pending_of(QosClass::kInteractive), 1u);
  const auto stolen = service.steal_pending();
  ASSERT_TRUE(stolen.has_value());
  EXPECT_EQ(stolen->id, 2);  // interactive outranks earlier arrivals
  EXPECT_EQ(stolen->qos, QosClass::kInteractive);
  EXPECT_EQ(service.stats().stolen_away, 1u);
  EXPECT_EQ(service.stats().of(QosClass::kInteractive).stolen_away, 1u);
  cluster.simulator().run();
  // The stolen request is no longer this shard's to report.
  const auto records = service.run();
  ASSERT_EQ(records.size(), 3u);
  for (const auto& record : records) EXPECT_NE(record.id, 2);
}

TEST(FleetWorkStealing, StolenExpiredRequestIsDroppedNotExecuted) {
  // A request stolen after its deadline passed on the victim's queue must
  // not burn the thief's dispatch slot: under drop_expired_pending the
  // thief drops it on adoption-arrival, exactly as the victim's own
  // dispatch path would have.
  ModelSet models;
  const dnn::DnnGraph& model = models.graph(ModelId::kEfficientNetB0);
  Cluster cluster(uniform_cluster(2));
  LeaderLocalStrategy victim_strategy(1.0), thief_strategy(1.0);
  ServiceOptions options;
  options.max_in_flight = 1;
  options.drop_expired_pending = true;
  InferenceService victim(cluster.shard({0}), victim_strategy, 0, options);
  InferenceService thief(cluster.shard({1}), thief_strategy, 1, options);
  victim.submit(RequestSpec{0, &model, 0.0});  // busy until t=1
  RequestSpec hopeless{1, &model, 0.1};
  hopeless.deadline_s = 0.3;  // expires while queued behind request 0
  victim.submit(hopeless);
  // Advance the clock to t=0.5 (past the deadline) before stealing — in a
  // fleet, rebalance always runs inside an event, so now() is current.
  cluster.simulator().schedule_at(0.5, [] {});
  cluster.simulator().run_until(0.5);
  const auto stolen = victim.steal_pending();
  ASSERT_TRUE(stolen.has_value());
  thief.adopt(*stolen);
  cluster.simulator().run();
  const auto thief_records = thief.run();
  ASSERT_EQ(thief_records.size(), 1u);
  EXPECT_EQ(thief_records[0].outcome, RequestOutcome::kDropped);
  EXPECT_DOUBLE_EQ(thief_records[0].flops, 0.0);  // never executed
  EXPECT_EQ(thief.stats().stolen_in, 1u);
  EXPECT_EQ(thief.stats().dropped, 1u);
  EXPECT_EQ(victim.stats().stolen_away, 1u);
  // Per-class slices balance on both sides of the migration:
  // submitted - stolen_away + stolen_in = terminal outcomes.
  const QosClassStats& victim_std = victim.stats().of(QosClass::kStandard);
  EXPECT_EQ(victim_std.submitted, 2u);
  EXPECT_EQ(victim_std.stolen_away, 1u);
  EXPECT_EQ(victim_std.completed + victim_std.deadline_misses, 1u);
  const QosClassStats& thief_std = thief.stats().of(QosClass::kStandard);
  EXPECT_EQ(thief_std.submitted, 0u);
  EXPECT_EQ(thief_std.stolen_in, 1u);
  EXPECT_EQ(thief_std.dropped, 1u);
}

TEST(FleetArrivals, PoissonThroughFleetIsDeterministic) {
  ModelSet models;
  const auto run_once = [&]() {
    Cluster cluster(uniform_cluster(4));
    LeaderLocalStrategy a(0.05), b(0.05);
    LeastLoadedRouting routing;
    FleetShard shard_a{&a, {0, 1}, FleetShard::kAutoLeader, {}};
    FleetShard shard_b{&b, {2, 3}, FleetShard::kAutoLeader, {}};
    shard_a.service.max_in_flight = 1;
    shard_b.service.max_in_flight = 1;
    FleetOptions options;
    options.work_stealing = true;
    ServiceFleet fleet(cluster, {shard_a, shard_b}, routing, options);
    PoissonArrivals::Options poisson;
    poisson.rate_hz = 40.0;
    poisson.count = 60;
    poisson.seed = 7;
    PoissonArrivals arrivals(models, {ModelId::kEfficientNetB0, ModelId::kVgg19}, poisson);
    fleet.attach(&arrivals);
    return fleet.run();
  };
  const auto first = run_once();
  const auto second = run_once();
  ASSERT_EQ(first.size(), 60u);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].id, second[i].id);
    EXPECT_EQ(first[i].model, second[i].model);
    EXPECT_EQ(first[i].outcome, second[i].outcome);
    EXPECT_EQ(first[i].arrival_s, second[i].arrival_s);
    EXPECT_EQ(first[i].finish_s, second[i].finish_s);
  }
}

TEST(FleetArrivals, ClosedLoopClientsAcrossShardsNeverDeadlock) {
  // Completions reach the pool from different shards (including rejections
  // under tight admission); every client must keep making progress.
  ModelSet models;
  Cluster cluster(uniform_cluster(4));
  LeaderLocalStrategy a(0.5), b(0.5);
  LeastLoadedRouting routing;
  FleetShard shard_a{&a, {0, 1}, FleetShard::kAutoLeader, {}};
  FleetShard shard_b{&b, {2, 3}, FleetShard::kAutoLeader, {}};
  shard_a.service.max_in_flight = 1;
  shard_a.service.max_pending = 1;
  shard_b.service.max_in_flight = 1;
  shard_b.service.max_pending = 1;
  FleetOptions options;
  options.work_stealing = true;
  ServiceFleet fleet(cluster, {shard_a, shard_b}, routing, options);
  ClosedLoopClients::Options pool;
  pool.clients = 5;
  pool.requests_per_client = 4;
  ClosedLoopClients clients(models, {ModelId::kEfficientNetB0}, pool);
  fleet.attach(&clients);
  const auto records = fleet.run();
  EXPECT_EQ(records.size(), 20u);
  EXPECT_EQ(clients.issued(), 20);
  const ServiceStats stats = fleet.stats();
  EXPECT_EQ(stats.completed + stats.rejected + stats.dropped + stats.deadline_misses, 20u);
  EXPECT_GT(stats.completed, 0u);
  std::set<int> ids;
  for (const auto& record : records) ids.insert(record.id);
  EXPECT_EQ(ids.size(), 20u);
  EXPECT_EQ(fleet.shard(0).pending() + fleet.shard(1).pending(), 0u);
}

TEST(FleetFailover, DeadShardEvacuatesPendingAndInFlightToSibling) {
  ModelSet models;
  const dnn::DnnGraph& model = models.graph(ModelId::kEfficientNetB0);
  Cluster cluster(uniform_cluster(4));
  LeaderLocalStrategy a(0.2), b(0.2);
  AllToZeroRouting routing;  // everything lands on shard 0
  FleetShard shard_a{&a, {0, 1}, FleetShard::kAutoLeader, {}};
  FleetShard shard_b{&b, {2, 3}, FleetShard::kAutoLeader, {}};
  shard_a.service.max_in_flight = 1;
  shard_b.service.max_in_flight = 1;
  FleetOptions options;
  options.failover.enabled = true;
  ServiceFleet fleet(cluster, {shard_a, shard_b}, routing, options);
  // 6 requests pile onto shard 0; its nodes die at t=0.3 with one request
  // mid-task and the rest pending.
  const auto stream = periodic_stream(model, 6, 0.05);
  for (const auto& spec : stream) fleet.submit(spec);
  ScriptedChurn trace({
      {0.3, 0, ChurnEvent::Action::kFail, 1.0},
      {0.3, 1, ChurnEvent::Action::kFail, 1.0},
  });
  ChurnInjector injector(cluster, trace);
  injector.start();
  const auto records = fleet.run();
  ASSERT_EQ(records.size(), 6u);
  for (const auto& record : records) {
    EXPECT_EQ(record.outcome, RequestOutcome::kCompleted) << "request " << record.id;
  }
  EXPECT_GT(fleet.evacuations(), 0u);
  // Post-churn work ran on shard 1's nodes only.
  for (const auto& trace_entry : fleet.shard(1).traces()) {
    EXPECT_GE(trace_entry.node, 2u);
  }
  // Migration accounting balances on both sides.
  const ServiceStats& victim = fleet.shard(0).stats();
  const ServiceStats& thief = fleet.shard(1).stats();
  EXPECT_EQ(victim.submitted - victim.stolen_away,
            victim.completed + victim.rejected + victim.dropped + victim.deadline_misses +
                victim.failed);
  EXPECT_EQ(thief.stolen_in, victim.stolen_away);
  EXPECT_EQ(thief.stolen_in + thief.submitted,
            thief.completed + thief.rejected + thief.dropped + thief.deadline_misses +
                thief.failed);
}

TEST(FleetFailover, DisabledFleetStrandsDeadShardRequestsAsFailed) {
  ModelSet models;
  const dnn::DnnGraph& model = models.graph(ModelId::kEfficientNetB0);
  Cluster cluster(uniform_cluster(4));
  LeaderLocalStrategy a(0.2), b(0.2);
  AllToZeroRouting routing;
  FleetShard shard_a{&a, {0, 1}, FleetShard::kAutoLeader, {}};
  FleetShard shard_b{&b, {2, 3}, FleetShard::kAutoLeader, {}};
  shard_a.service.max_in_flight = 1;
  shard_b.service.max_in_flight = 1;
  ServiceFleet fleet(cluster, {shard_a, shard_b}, routing);  // failover off
  const auto stream = periodic_stream(model, 6, 0.05);
  for (const auto& spec : stream) fleet.submit(spec);
  ScriptedChurn trace({
      {0.3, 0, ChurnEvent::Action::kFail, 1.0},
      {0.3, 1, ChurnEvent::Action::kFail, 1.0},
  });
  ChurnInjector injector(cluster, trace);
  injector.start();
  const auto records = fleet.run();
  ASSERT_EQ(records.size(), 6u);
  const ServiceStats stats = fleet.stats();
  EXPECT_EQ(fleet.evacuations(), 0u);
  EXPECT_GT(stats.failed, 0u);
  EXPECT_LT(stats.completed, 6u);
  EXPECT_EQ(stats.completed + stats.failed, 6u);
}

TEST(FleetFailover, BelowFloorShardParksAndEvacuatesEvenWithLiveLeader) {
  // min_live_nodes = 2 on a 2-node shard: losing the non-leader worker
  // makes the shard dead by the fleet's floor even though its leader is
  // up. The shard must park (its liveness hook mirrors the fleet's death
  // predicate) and let the fleet evacuate — not race it for the queue.
  ModelSet models;
  const dnn::DnnGraph& model = models.graph(ModelId::kEfficientNetB0);
  Cluster cluster(uniform_cluster(4));
  LeaderLocalStrategy a(0.2), b(0.2);
  AllToZeroRouting routing;
  FleetShard shard_a{&a, {0, 1}, FleetShard::kAutoLeader, {}};
  FleetShard shard_b{&b, {2, 3}, FleetShard::kAutoLeader, {}};
  shard_a.service.max_in_flight = 1;
  shard_b.service.max_in_flight = 1;
  FleetOptions options;
  options.failover.enabled = true;
  options.failover.min_live_nodes = 2;
  ServiceFleet fleet(cluster, {shard_a, shard_b}, routing, options);
  const auto stream = periodic_stream(model, 5, 0.05);
  for (const auto& spec : stream) fleet.submit(spec);
  // Kill the non-leader worker of shard 0 at t=0.1: leader 0 stays up.
  ScriptedChurn trace({{0.1, 1, ChurnEvent::Action::kFail, 1.0}});
  ChurnInjector injector(cluster, trace);
  injector.start();
  const auto records = fleet.run();
  ASSERT_EQ(records.size(), 5u);
  for (const auto& record : records) {
    EXPECT_EQ(record.outcome, RequestOutcome::kCompleted) << "request " << record.id;
  }
  EXPECT_GT(fleet.evacuations(), 0u);
  // Nothing dispatched on shard 0 after the floor violation.
  for (const auto& trace_entry : fleet.shard(0).traces()) {
    EXPECT_LT(trace_entry.end_s, 0.1 + 0.2 + 1e-9);
  }
}

TEST(FleetFailover, RoutesAroundDeadShardAtArrival) {
  ModelSet models;
  const dnn::DnnGraph& model = models.graph(ModelId::kEfficientNetB0);
  Cluster cluster(uniform_cluster(4));
  LeaderLocalStrategy a(0.05), b(0.05);
  LeastLoadedRouting routing;
  FleetShard shard_a{&a, {0, 1}, FleetShard::kAutoLeader, {}};
  FleetShard shard_b{&b, {2, 3}, FleetShard::kAutoLeader, {}};
  FleetOptions options;
  options.failover.enabled = true;
  ServiceFleet fleet(cluster, {shard_a, shard_b}, routing, options);
  // Shard 0 dead from the start; all arrivals must route to shard 1.
  ScriptedChurn trace({{0.0, 0, ChurnEvent::Action::kFail, 1.0}});
  ChurnInjector injector(cluster, trace);
  injector.start();
  const auto stream = periodic_stream(model, 4, 0.1, /*start_s=*/0.05);
  for (const auto& spec : stream) fleet.submit(spec);
  const auto records = fleet.run();
  ASSERT_EQ(records.size(), 4u);
  for (const auto& record : records) EXPECT_EQ(record.outcome, RequestOutcome::kCompleted);
  EXPECT_EQ(fleet.shard(0).stats().submitted, 0u);
  EXPECT_EQ(fleet.shard(1).stats().submitted, 4u);
}

TEST(FleetFailover, MergeOrphansReassignsSurvivorsOfDeadShard) {
  ModelSet models;
  const dnn::DnnGraph& model = models.graph(ModelId::kEfficientNetB0);
  Cluster cluster(uniform_cluster(4));
  LeaderLocalStrategy a(0.05), b(0.05);
  RoundRobinRouting routing;
  FleetShard shard_a{&a, {0, 1}, FleetShard::kAutoLeader, {}};
  FleetShard shard_b{&b, {2, 3}, FleetShard::kAutoLeader, {}};
  FleetOptions options;
  options.failover.enabled = true;
  options.failover.merge_orphans = true;
  ServiceFleet fleet(cluster, {shard_a, shard_b}, routing, options);
  EXPECT_EQ(fleet.shard_of(1), 0u);
  const std::uint64_t epoch_before = fleet.membership_epoch();
  // Shard 0's leader (node 0) dies; its surviving worker node 1 merges
  // into shard 1.
  cluster.set_node_available(0, false);
  EXPECT_EQ(fleet.shard_of(1), 1u);
  EXPECT_GT(fleet.membership_epoch(), epoch_before);
  EXPECT_TRUE(fleet.shard(1).engine().scope().contains(1));
  EXPECT_FALSE(fleet.shard(0).engine().scope().contains(1));
  // The merged shard serves requests over its enlarged membership.
  fleet.submit(RequestSpec{0, &model, 0.1});
  fleet.submit(RequestSpec{1, &model, 0.1});
  const auto records = fleet.run();
  ASSERT_EQ(records.size(), 2u);
  for (const auto& record : records) EXPECT_EQ(record.outcome, RequestOutcome::kCompleted);
}

TEST(FleetFailover, ReassignValidatesAndMovesMembership) {
  Cluster cluster(uniform_cluster(4));
  LeaderLocalStrategy a(0.05), b(0.05);
  RoundRobinRouting routing;
  ServiceFleet fleet(cluster, {shard_spec(&a, {0, 1}), shard_spec(&b, {2, 3})}, routing);
  EXPECT_THROW(fleet.reassign(0, 1), std::invalid_argument);  // shard 0's leader
  EXPECT_THROW(fleet.reassign(1, 5), std::invalid_argument);  // shard out of range
  EXPECT_THROW(fleet.reassign(9, 1), std::invalid_argument);  // node out of range
  fleet.reassign(1, 1);
  EXPECT_EQ(fleet.shard_of(1), 1u);
  EXPECT_EQ(fleet.membership_epoch(), 1u);
  fleet.reassign(1, 1);  // already there: no-op
  EXPECT_EQ(fleet.membership_epoch(), 1u);
  fleet.reassign(1, 0);  // and back
  EXPECT_EQ(fleet.shard_of(1), 0u);
  EXPECT_EQ(fleet.membership_epoch(), 2u);
}

TEST(FleetFailover, ZeroChurnRunBitIdenticalWithFailoverEnabled) {
  // The failover machinery (observers, hooks, route-around checks) must be
  // inert without churn: records, traces and stats match a fleet that
  // never heard of failover, field for field.
  ModelSet models;
  const auto stream = [&] {
    util::Rng rng(17);
    return mixed_stream(models, {ModelId::kEfficientNetB0}, 30, 0.02, rng);
  }();
  const auto run_fleet = [&](bool failover) {
    Cluster cluster(uniform_cluster(4));
    LeaderLocalStrategy a(0.1), b(0.1);
    LeastLoadedRouting routing;
    FleetShard shard_a{&a, {0, 1}, FleetShard::kAutoLeader, {}};
    FleetShard shard_b{&b, {2, 3}, FleetShard::kAutoLeader, {}};
    shard_a.service.max_in_flight = 1;
    shard_a.service.max_pending = 4;
    shard_b.service.max_in_flight = 1;
    shard_b.service.max_pending = 4;
    FleetOptions options;
    options.work_stealing = true;
    options.failover.enabled = failover;
    options.failover.merge_orphans = failover;
    ServiceFleet fleet(cluster, {shard_a, shard_b}, routing, options);
    ReplayArrivals arrivals(stream);
    fleet.attach(&arrivals);
    auto records = fleet.run();
    std::vector<TaskTrace> traces;
    for (std::size_t s = 0; s < fleet.shard_count(); ++s) {
      const auto& shard_traces = fleet.shard(s).traces();
      traces.insert(traces.end(), shard_traces.begin(), shard_traces.end());
    }
    return std::make_tuple(std::move(records), std::move(traces), fleet.stats());
  };
  const auto [plain_records, plain_traces, plain_stats] = run_fleet(false);
  const auto [failover_records, failover_traces, failover_stats] = run_fleet(true);
  ASSERT_EQ(plain_records.size(), failover_records.size());
  for (std::size_t i = 0; i < plain_records.size(); ++i) {
    const RequestRecord& p = plain_records[i];
    const RequestRecord& f = failover_records[i];
    EXPECT_EQ(p.id, f.id);
    EXPECT_EQ(p.outcome, f.outcome);
    EXPECT_DOUBLE_EQ(p.arrival_s, f.arrival_s);
    EXPECT_DOUBLE_EQ(p.dispatch_s, f.dispatch_s);
    EXPECT_DOUBLE_EQ(p.finish_s, f.finish_s);
    EXPECT_DOUBLE_EQ(p.flops, f.flops);
  }
  ASSERT_EQ(plain_traces.size(), failover_traces.size());
  for (std::size_t i = 0; i < plain_traces.size(); ++i) {
    EXPECT_EQ(plain_traces[i].request, failover_traces[i].request);
    EXPECT_EQ(plain_traces[i].node, failover_traces[i].node);
    EXPECT_DOUBLE_EQ(plain_traces[i].start_s, failover_traces[i].start_s);
    EXPECT_DOUBLE_EQ(plain_traces[i].end_s, failover_traces[i].end_s);
  }
  EXPECT_EQ(plain_stats.completed, failover_stats.completed);
  EXPECT_EQ(plain_stats.rejected, failover_stats.rejected);
  EXPECT_EQ(plain_stats.dropped, failover_stats.dropped);
  EXPECT_EQ(plain_stats.failed, failover_stats.failed);
  EXPECT_EQ(plain_stats.stolen_in, failover_stats.stolen_in);
  EXPECT_EQ(plain_stats.peak_pending, failover_stats.peak_pending);
}

TEST(FleetWorkStealing, CostAwareStealingForUnlimitedAdmissionShards) {
  // Shard 0: bounded admission, saturated by the skewed stream. Shard 1:
  // unlimited admission. Seed behaviour (steal_backlog_s = 0) never
  // steals into shard 1; the cost-aware knob lets it absorb backlog up to
  // its backlog-cost budget.
  ModelSet models;
  const dnn::DnnGraph& model = models.graph(ModelId::kEfficientNetB0);
  const auto stream = periodic_stream(model, 40, 0.05);
  const auto run_fleet = [&](double steal_backlog_s) {
    Cluster cluster(uniform_cluster(4));
    LeaderLocalStrategy a(0.2), b(0.2);
    AllToZeroRouting routing;
    FleetShard shard_a{&a, {0, 1}, FleetShard::kAutoLeader, {}};
    FleetShard shard_b{&b, {2, 3}, FleetShard::kAutoLeader, {}};
    shard_a.service.max_in_flight = 1;
    shard_b.service.max_in_flight = 0;  // unlimited admission
    shard_b.service.steal_backlog_s = steal_backlog_s;
    FleetOptions options;
    options.work_stealing = true;
    ServiceFleet fleet(cluster, {shard_a, shard_b}, routing, options);
    ReplayArrivals arrivals(stream);
    fleet.attach(&arrivals);
    const auto records = fleet.run();
    StreamMetrics metrics = summarize_run(records, cluster);
    return std::make_pair(metrics, fleet.steals());
  };
  const auto [seed_metrics, seed_steals] = run_fleet(0.0);
  const auto [cost_metrics, cost_steals] = run_fleet(0.6);
  // Regression: the default stays the seed behaviour — no stealing into
  // unlimited-admission shards.
  EXPECT_EQ(seed_steals, 0u);
  EXPECT_GT(cost_steals, 0u);
  EXPECT_LT(cost_metrics.p99_latency_s, seed_metrics.p99_latency_s);
  EXPECT_LE(cost_metrics.makespan_s, seed_metrics.makespan_s);
}

TEST(FleetScaling, ThroughputGrowsWithShardCount) {
  // The PR 3 overload shape (service demand far above arrival spacing) on
  // the same 8 nodes, carved into 1, 2 and 4 shards: aggregate completed
  // throughput must grow monotonically with shard count.
  ModelSet models;
  const dnn::DnnGraph& model = models.graph(ModelId::kEfficientNetB0);
  const auto stream = periodic_stream(model, 120, 0.01);

  const auto completed_per_second = [&](std::size_t shard_count) {
    Cluster cluster(uniform_cluster(8));
    std::vector<LeaderLocalStrategy> strategies(shard_count, LeaderLocalStrategy(0.2));
    std::vector<FleetShard> shards;
    const std::size_t span = 8 / shard_count;
    for (std::size_t s = 0; s < shard_count; ++s) {
      FleetShard shard;
      shard.strategy = &strategies[s];
      for (std::size_t n = 0; n < span; ++n) shard.nodes.push_back(s * span + n);
      shard.service.max_in_flight = 1;
      shard.service.max_pending = 4;
      shards.push_back(shard);
    }
    LeastLoadedRouting routing;
    FleetOptions options;
    options.work_stealing = true;
    ServiceFleet fleet(cluster, shards, routing, options);
    ReplayArrivals arrivals(stream);
    fleet.attach(&arrivals);
    const auto records = fleet.run();
    const StreamMetrics metrics = summarize_run(records, cluster);
    return static_cast<double>(fleet.stats().completed) / metrics.makespan_s;
  };

  const double one = completed_per_second(1);
  const double two = completed_per_second(2);
  const double four = completed_per_second(4);
  EXPECT_GT(two, 1.5 * one);
  EXPECT_GT(four, 1.5 * two);
}

}  // namespace
}  // namespace hidp::runtime
