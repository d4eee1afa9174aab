// InferenceService lifecycle: batch equivalence, admission control, load
// shedding under overload, QoS deadlines, and the pluggable arrival
// sources (replay, Poisson, closed-loop clients).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/hidp_strategy.hpp"
#include "runtime/fleet.hpp"
#include "runtime/metrics.hpp"
#include "runtime/service.hpp"
#include "runtime/workload.hpp"

namespace hidp::runtime {
namespace {

using dnn::zoo::ModelId;

/// Deterministic strategy: one compute task of `seconds` on (node 0, proc 0).
class FixedStrategy : public IStrategy {
 public:
  explicit FixedStrategy(double seconds) : seconds_(seconds) {}
  std::string name() const override { return "Fixed"; }
  PlanResult plan(const PlanRequest& request) override {
    Plan p;
    p.strategy = name();
    p.leader = request.snapshot.leader;
    PlanTask t;
    t.kind = PlanTask::Kind::kCompute;
    t.node = 0;
    t.proc = 0;
    t.seconds = seconds_;
    t.flops = 1e9;
    p.tasks.push_back(t);
    p.nodes_used = 1;
    return PlanResult{std::move(p), false};
  }

 private:
  double seconds_;
};

void expect_bit_identical(const std::vector<RequestRecord>& a,
                          const std::vector<RequestRecord>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_EQ(a[i].model, b[i].model);
    EXPECT_EQ(a[i].strategy, b[i].strategy);
    EXPECT_EQ(a[i].mode, b[i].mode);
    EXPECT_EQ(a[i].outcome, b[i].outcome);
    EXPECT_EQ(a[i].nodes_used, b[i].nodes_used);
    // Bit-identical timing, not "close": the service with unlimited
    // admission must be the same computation as the batch path.
    EXPECT_EQ(a[i].arrival_s, b[i].arrival_s) << "request " << a[i].id;
    EXPECT_EQ(a[i].dispatch_s, b[i].dispatch_s) << "request " << a[i].id;
    EXPECT_EQ(a[i].finish_s, b[i].finish_s) << "request " << a[i].id;
    EXPECT_EQ(a[i].flops, b[i].flops) << "request " << a[i].id;
  }
}

/// Paper workloads replayed through both serving surfaces under HiDP with
/// identical seeds: records must match bit for bit.
TEST(ServiceEquivalence, ReproducesBatchRunOnPaperWorkloads) {
  ModelSet models;
  util::Rng mix_rng_a(21), mix_rng_b(21);
  const std::vector<ModelId> mix{ModelId::kEfficientNetB0, ModelId::kVgg19};
  const std::vector<std::vector<RequestSpec>> workloads_a{
      periodic_stream(models.graph(ModelId::kResNet152), 8, 0.2),
      staggered_streams(models, dnn::zoo::all_models(), 0.5, 3, 0.25),
      mixed_stream(models, mix, 10, 0.05, mix_rng_a),
  };
  const std::vector<std::vector<RequestSpec>> workloads_b{
      periodic_stream(models.graph(ModelId::kResNet152), 8, 0.2),
      staggered_streams(models, dnn::zoo::all_models(), 0.5, 3, 0.25),
      mixed_stream(models, mix, 10, 0.05, mix_rng_b),
  };
  for (std::size_t w = 0; w < workloads_a.size(); ++w) {
    Cluster batch_cluster(platform::paper_cluster());
    core::HidpStrategy batch_strategy;
    ExecutionEngine engine(batch_cluster, batch_strategy, 1);
    const auto batch_records = engine.run(workloads_a[w]);

    Cluster service_cluster(platform::paper_cluster());
    core::HidpStrategy service_strategy;
    InferenceService service(service_cluster, service_strategy, 1);  // unlimited admission
    ReplayArrivals arrivals(workloads_b[w]);
    service.attach(&arrivals);
    const auto service_records = service.run();

    expect_bit_identical(batch_records, service_records);
    EXPECT_EQ(service.makespan_s(), engine.makespan_s()) << "workload " << w;
    EXPECT_EQ(service.stats().completed, workloads_a[w].size());
    EXPECT_EQ(service.stats().rejected, 0u);
    EXPECT_EQ(service.stats().dropped, 0u);
  }
}

/// A 1-shard fleet with pass-through routing is the same computation as a
/// bare InferenceService: records, traces and stats must match bit for bit
/// on the paper workloads.
TEST(ServiceEquivalence, OneShardFleetIsBitIdenticalToBareService) {
  ModelSet models;
  util::Rng mix_rng_a(21), mix_rng_b(21);
  const std::vector<ModelId> mix{ModelId::kEfficientNetB0, ModelId::kVgg19};
  const std::vector<std::vector<RequestSpec>> workloads_a{
      periodic_stream(models.graph(ModelId::kResNet152), 8, 0.2),
      staggered_streams(models, dnn::zoo::all_models(), 0.5, 3, 0.25),
      mixed_stream(models, mix, 10, 0.05, mix_rng_a),
  };
  const std::vector<std::vector<RequestSpec>> workloads_b{
      periodic_stream(models.graph(ModelId::kResNet152), 8, 0.2),
      staggered_streams(models, dnn::zoo::all_models(), 0.5, 3, 0.25),
      mixed_stream(models, mix, 10, 0.05, mix_rng_b),
  };
  for (std::size_t w = 0; w < workloads_a.size(); ++w) {
    Cluster bare_cluster(platform::paper_cluster());
    core::HidpStrategy bare_strategy;
    InferenceService bare(bare_cluster, bare_strategy, 1);
    ReplayArrivals bare_arrivals(workloads_a[w]);
    bare.attach(&bare_arrivals);
    const auto bare_records = bare.run();

    Cluster fleet_cluster(platform::paper_cluster());
    core::HidpStrategy fleet_strategy;
    RoundRobinRouting routing;
    ServiceFleet fleet(fleet_cluster, {{&fleet_strategy, {}, 1, ServiceOptions{}}}, routing);
    ReplayArrivals fleet_arrivals(workloads_b[w]);
    fleet.attach(&fleet_arrivals);
    const auto fleet_records = fleet.run();

    expect_bit_identical(bare_records, fleet_records);
    EXPECT_EQ(fleet.makespan_s(), bare.makespan_s()) << "workload " << w;

    // Traces too: the scoped engine must schedule the same tasks at the
    // same instants.
    const auto& bare_traces = bare.traces();
    const auto& fleet_traces = fleet.shard(0).traces();
    ASSERT_EQ(bare_traces.size(), fleet_traces.size()) << "workload " << w;
    for (std::size_t i = 0; i < bare_traces.size(); ++i) {
      EXPECT_EQ(bare_traces[i].request, fleet_traces[i].request);
      EXPECT_EQ(bare_traces[i].node, fleet_traces[i].node);
      EXPECT_EQ(bare_traces[i].proc, fleet_traces[i].proc);
      EXPECT_EQ(bare_traces[i].start_s, fleet_traces[i].start_s);
      EXPECT_EQ(bare_traces[i].end_s, fleet_traces[i].end_s);
    }

    const ServiceStats fleet_stats = fleet.stats();
    EXPECT_EQ(fleet_stats.submitted, bare.stats().submitted);
    EXPECT_EQ(fleet_stats.completed, bare.stats().completed);
    EXPECT_EQ(fleet_stats.rejected, 0u);
    EXPECT_EQ(fleet_stats.dropped, 0u);
    EXPECT_EQ(fleet_stats.stolen_in, 0u);
  }
}

TEST(ServiceEquivalence, SubmitMatchesAttachedReplay) {
  ModelSet models;
  const auto requests = periodic_stream(models.graph(ModelId::kInceptionV3), 6, 0.3);
  Cluster cluster_a(platform::paper_cluster());
  core::HidpStrategy strategy_a;
  InferenceService direct(cluster_a, strategy_a, 1);
  for (const auto& request : requests) {
    const RequestHandle handle = direct.submit(request);
    EXPECT_TRUE(handle.valid());
    EXPECT_EQ(handle.id, request.id);
  }
  Cluster cluster_b(platform::paper_cluster());
  core::HidpStrategy strategy_b;
  InferenceService attached(cluster_b, strategy_b, 1);
  ReplayArrivals arrivals(requests);
  attached.attach(&arrivals);
  expect_bit_identical(direct.run(), attached.run());
}

TEST(Service, BoundedQueueSustainsThroughputWhereBatchDiverges) {
  // Open-loop overload: 0.2 s of service demand arriving every 0.02 s on
  // one processor — 10x oversubscribed.
  ModelSet models;
  const auto overload = periodic_stream(models.graph(ModelId::kEfficientNetB0), 100, 0.02);

  // Batch path (and equivalently an unlimited service): every request is
  // dispatched on arrival, so waiting time grows linearly — latency
  // diverges with position in the stream.
  Cluster batch_cluster(platform::paper_cluster(2));
  FixedStrategy batch_strategy(0.2);
  ExecutionEngine engine(batch_cluster, batch_strategy, 0);
  const auto batch_metrics = summarize_run(engine.run(overload), batch_cluster);
  EXPECT_GT(batch_metrics.max_latency_s, 15.0);  // ~100 * 0.2 s of backlog

  // Bounded service: one request in flight, at most 4 pending, shed the
  // rest. Queue depth stays bounded, so does completed-request latency,
  // and throughput still saturates the processor.
  Cluster cluster(platform::paper_cluster(2));
  FixedStrategy strategy(0.2);
  ServiceOptions options;
  options.max_in_flight = 1;
  options.max_pending = 4;
  options.shed_policy = LoadShedPolicy::kRejectNewest;
  InferenceService service(cluster, strategy, 0, options);
  ReplayArrivals arrivals(overload);
  service.attach(&arrivals);
  const auto records = service.run();
  const auto metrics = summarize_run(records, cluster);

  EXPECT_EQ(service.stats().peak_pending, 4u);
  EXPECT_EQ(service.stats().peak_in_flight, 1u);
  EXPECT_GT(service.stats().rejected, 0u);
  EXPECT_EQ(service.stats().completed + service.stats().rejected + service.stats().dropped,
            100u);
  // Completed-request latency is bounded by the queue: at most
  // (pending cap + 1) service times of waiting + 1 of service.
  EXPECT_LE(metrics.max_latency_s, 6.0 * 0.2 + 1e-9);
  EXPECT_LT(metrics.max_latency_s, batch_metrics.max_latency_s / 10.0);
  // Throughput is sustained: the processor never idles while work is
  // pending, so completed ~= makespan / service time.
  EXPECT_GT(static_cast<double>(service.stats().completed),
            0.95 * metrics.makespan_s / 0.2);
  // The diverging batch path completes no more inferences per unit time.
  EXPECT_GE(metrics.throughput_per_100s, 0.95 * batch_metrics.throughput_per_100s);
}

TEST(Service, RejectNewestPrefersHigherQos) {
  ModelSet models;
  const dnn::DnnGraph& model = models.graph(ModelId::kEfficientNetB0);
  Cluster cluster(platform::paper_cluster(2));
  FixedStrategy strategy(1.0);
  ServiceOptions options;
  options.max_in_flight = 1;
  options.max_pending = 1;
  InferenceService service(cluster, strategy, 0, options);
  RequestSpec running{0, &model, 0.0};
  RequestSpec queued{1, &model, 0.1, QosClass::kBestEffort};
  RequestSpec standard_late{2, &model, 0.2};  // queue full, same-or-lower rank below it? no: higher
  RequestSpec interactive{3, &model, 0.3, QosClass::kInteractive};
  service.submit(running);
  service.submit(queued);
  service.submit(standard_late);   // displaces the best-effort request
  service.submit(interactive);     // displaces the standard request
  const auto records = service.run();
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(records[0].outcome, RequestOutcome::kCompleted);
  EXPECT_EQ(records[1].outcome, RequestOutcome::kDropped);   // bumped by #2
  EXPECT_EQ(records[2].outcome, RequestOutcome::kDropped);   // bumped by #3
  EXPECT_EQ(records[3].outcome, RequestOutcome::kCompleted);
  EXPECT_EQ(service.stats().dropped, 2u);
  EXPECT_EQ(service.stats().rejected, 0u);
  // Per-class slices attribute each outcome to its request's QoS class.
  EXPECT_EQ(service.stats().of(QosClass::kBestEffort).submitted, 1u);
  EXPECT_EQ(service.stats().of(QosClass::kBestEffort).dropped, 1u);
  EXPECT_EQ(service.stats().of(QosClass::kStandard).submitted, 2u);
  EXPECT_EQ(service.stats().of(QosClass::kStandard).completed, 1u);
  EXPECT_EQ(service.stats().of(QosClass::kStandard).dropped, 1u);
  EXPECT_EQ(service.stats().of(QosClass::kInteractive).completed, 1u);
}

TEST(Service, RejectNewestRefusesEqualQos) {
  ModelSet models;
  const dnn::DnnGraph& model = models.graph(ModelId::kEfficientNetB0);
  Cluster cluster(platform::paper_cluster(2));
  FixedStrategy strategy(1.0);
  ServiceOptions options;
  options.max_in_flight = 1;
  options.max_pending = 1;
  InferenceService service(cluster, strategy, 0, options);
  service.submit(RequestSpec{0, &model, 0.0});
  service.submit(RequestSpec{1, &model, 0.1});
  service.submit(RequestSpec{2, &model, 0.2});  // equal class: rejected
  const auto records = service.run();
  EXPECT_EQ(records[2].outcome, RequestOutcome::kRejected);
  EXPECT_EQ(records[2].finish_s, 0.2);  // terminal at arrival, never ran
  EXPECT_DOUBLE_EQ(records[2].flops, 0.0);
  EXPECT_EQ(records[1].outcome, RequestOutcome::kCompleted);
}

TEST(Service, DropOldestKeepsFreshRequests) {
  ModelSet models;
  const dnn::DnnGraph& model = models.graph(ModelId::kEfficientNetB0);
  Cluster cluster(platform::paper_cluster(2));
  FixedStrategy strategy(1.0);
  ServiceOptions options;
  options.max_in_flight = 1;
  options.max_pending = 1;
  options.shed_policy = LoadShedPolicy::kDropOldest;
  InferenceService service(cluster, strategy, 0, options);
  service.submit(RequestSpec{0, &model, 0.0});
  service.submit(RequestSpec{1, &model, 0.1});
  service.submit(RequestSpec{2, &model, 0.2});  // bumps #1 (same class, older)
  const auto records = service.run();
  EXPECT_EQ(records[1].outcome, RequestOutcome::kDropped);
  EXPECT_EQ(records[2].outcome, RequestOutcome::kCompleted);
  EXPECT_EQ(service.stats().dropped, 1u);
}

TEST(Service, ExpiredPendingDroppedInsteadOfDispatched) {
  ModelSet models;
  const dnn::DnnGraph& model = models.graph(ModelId::kEfficientNetB0);
  Cluster cluster(platform::paper_cluster(2));
  FixedStrategy strategy(1.0);
  ServiceOptions options;
  options.max_in_flight = 1;
  options.drop_expired_pending = true;
  InferenceService service(cluster, strategy, 0, options);
  service.submit(RequestSpec{0, &model, 0.0});
  RequestSpec hopeless{1, &model, 0.1};
  hopeless.deadline_s = 0.5;  // expires while request 0 runs until t=1
  service.submit(hopeless);
  const auto records = service.run();
  EXPECT_EQ(records[1].outcome, RequestOutcome::kDropped);
  EXPECT_DOUBLE_EQ(records[1].flops, 0.0);   // never executed
  EXPECT_DOUBLE_EQ(records[1].finish_s, 1.0);  // dropped when capacity freed
  EXPECT_EQ(service.stats().dropped, 1u);
}

TEST(Service, DeadlineMissRecordedForLateCompletion) {
  ModelSet models;
  const dnn::DnnGraph& model = models.graph(ModelId::kEfficientNetB0);
  Cluster cluster(platform::paper_cluster(2));
  FixedStrategy strategy(1.0);
  InferenceService service(cluster, strategy, 0);
  RequestSpec late{0, &model, 0.0, QosClass::kStandard, 0.25};
  service.submit(late);
  const auto records = service.run();
  EXPECT_EQ(records[0].outcome, RequestOutcome::kDeadlineMiss);
  EXPECT_DOUBLE_EQ(records[0].finish_s, 1.0);  // still ran to completion
  EXPECT_EQ(service.stats().deadline_misses, 1u);
  EXPECT_EQ(service.stats().completed, 0u);
}

TEST(PoissonArrivalsSource, DeterministicSortedAndBounded) {
  ModelSet models;
  PoissonArrivals::Options options;
  options.rate_hz = 20.0;
  options.count = 50;
  options.seed = 9;
  options.relative_deadline_s = 0.5;
  PoissonArrivals a(models, {ModelId::kEfficientNetB0, ModelId::kVgg19}, options);
  PoissonArrivals b(models, {ModelId::kEfficientNetB0, ModelId::kVgg19}, options);
  std::vector<RequestSpec> stream;
  while (auto spec = a.next(0.0)) stream.push_back(*spec);
  EXPECT_EQ(stream.size(), 50u);
  EXPECT_FALSE(a.next(0.0).has_value());
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const auto twin = b.next(0.0);
    ASSERT_TRUE(twin.has_value());
    EXPECT_EQ(stream[i].arrival_s, twin->arrival_s);
    EXPECT_EQ(stream[i].id, static_cast<int>(i));
    EXPECT_DOUBLE_EQ(stream[i].deadline_s, stream[i].arrival_s + 0.5);
    if (i > 0) {
      EXPECT_GE(stream[i].arrival_s, stream[i - 1].arrival_s);
    }
  }
  // Mean inter-arrival ~ 1/rate.
  const double horizon = stream.back().arrival_s - stream.front().arrival_s;
  EXPECT_NEAR(horizon / 49.0, 1.0 / 20.0, 0.03);
}

TEST(PoissonArrivalsSource, DrivesServiceEndToEnd) {
  ModelSet models;
  Cluster cluster(platform::paper_cluster(2));
  FixedStrategy strategy(0.01);
  InferenceService service(cluster, strategy, 0);
  PoissonArrivals::Options options;
  options.rate_hz = 50.0;
  options.count = 30;
  PoissonArrivals arrivals(models, {ModelId::kEfficientNetB0}, options);
  service.attach(&arrivals);
  const auto records = service.run();
  ASSERT_EQ(records.size(), 30u);
  for (const auto& r : records) EXPECT_EQ(r.outcome, RequestOutcome::kCompleted);
}

TEST(ClosedLoopClientsSource, ConcurrencyNeverExceedsClientPool) {
  ModelSet models;
  Cluster cluster(platform::paper_cluster(2));
  FixedStrategy strategy(0.1);
  InferenceService service(cluster, strategy, 0);
  ClosedLoopClients::Options options;
  options.clients = 3;
  options.requests_per_client = 5;
  options.think_s = 0.05;
  ClosedLoopClients clients(models, {ModelId::kEfficientNetB0}, options);
  service.attach(&clients);
  const auto records = service.run();
  ASSERT_EQ(records.size(), 15u);
  EXPECT_EQ(clients.issued(), 15);
  EXPECT_LE(service.stats().peak_in_flight, 3u);
  std::set<int> ids;
  for (const auto& r : records) {
    EXPECT_EQ(r.outcome, RequestOutcome::kCompleted);
    ids.insert(r.id);
  }
  EXPECT_EQ(ids.size(), 15u);
  // Closed loop: a client's next request arrives only after its previous
  // one finished plus think time.
  std::vector<RequestRecord> by_arrival = records;
  std::sort(by_arrival.begin(), by_arrival.end(),
            [](const RequestRecord& a, const RequestRecord& b) {
              return a.arrival_s < b.arrival_s;
            });
  // With 3 clients and 0.1 s service on one FIFO processor + 0.05 s think,
  // offered load tracks completions instead of piling up: the queue the
  // strategy sees stays below the pool size.
  EXPECT_LE(service.stats().peak_pending, 0u);
}

TEST(ClosedLoopClientsSource, TerminalOutcomesReleaseClients) {
  // Shed requests must free their client too, or the pool deadlocks: three
  // clients race for one execution slot and one pending seat, so one
  // client's stream is rejected wholesale while the other two make
  // progress.
  ModelSet models;
  Cluster cluster(platform::paper_cluster(2));
  FixedStrategy strategy(1.0);
  ServiceOptions options;
  options.max_in_flight = 1;
  options.max_pending = 1;
  InferenceService service(cluster, strategy, 0, options);
  ClosedLoopClients::Options pool;
  pool.clients = 3;
  pool.requests_per_client = 3;
  ClosedLoopClients clients(models, {ModelId::kEfficientNetB0}, pool);
  service.attach(&clients);
  const auto records = service.run();
  // All 9 requests reach a terminal state; none is stuck pending.
  EXPECT_EQ(records.size(), 9u);
  EXPECT_EQ(service.stats().completed + service.stats().rejected + service.stats().dropped +
                service.stats().deadline_misses,
            9u);
  EXPECT_GT(service.stats().rejected, 0u);
  EXPECT_GT(service.stats().completed, 0u);
  EXPECT_EQ(service.pending(), 0u);
  EXPECT_EQ(clients.issued(), 9);
}

TEST(Service, SubmitRejectsNullModel) {
  Cluster cluster(platform::paper_cluster(2));
  FixedStrategy strategy(0.1);
  InferenceService service(cluster, strategy, 0);
  EXPECT_THROW(service.submit(RequestSpec{0, nullptr, 0.0}), std::invalid_argument);
}

TEST(Service, SharedEngineAccumulatesTraces) {
  ModelSet models;
  Cluster cluster(platform::paper_cluster(2));
  FixedStrategy strategy(0.1);
  ExecutionEngine engine(cluster, strategy, 0);
  engine.set_trace_capacity(1);
  InferenceService service(engine);
  service.submit(RequestSpec{0, &models.graph(ModelId::kEfficientNetB0), 0.0});
  service.submit(RequestSpec{1, &models.graph(ModelId::kEfficientNetB0), 0.0});
  service.run();
  EXPECT_EQ(service.traces().size(), 1u);  // capacity respected via the engine
  EXPECT_EQ(&service.engine(), &engine);
}

}  // namespace
}  // namespace hidp::runtime
