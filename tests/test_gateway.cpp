// Wall-clock serving runtime: the clock abstraction (VirtualClock DES
// identity, WallClock pacing, wakes and poll set), the MPSC submission
// queue, the planner pool (inline bit-identity, epoch staleness, dead-shard
// delivery), and the TCP gateway end to end under real concurrency: line
// splitting and the line cap, connection reaping, and the socket stall.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/hidp_strategy.hpp"
#include "runtime/fleet.hpp"
#include "runtime/gateway.hpp"
#include "runtime/planner_pool.hpp"
#include "runtime/workload.hpp"
#include "sim/clock.hpp"
#include "util/mpsc.hpp"

namespace hidp::runtime {
namespace {

using dnn::zoo::ModelId;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

// ---- Clock -----------------------------------------------------------------

TEST(VirtualClock, JumpsWithoutBlockingAndNeverRewinds) {
  sim::VirtualClock clock;
  EXPECT_TRUE(clock.is_virtual());
  EXPECT_DOUBLE_EQ(clock.now(), 0.0);
  EXPECT_DOUBLE_EQ(clock.advance_to(2.5), 2.5);
  EXPECT_DOUBLE_EQ(clock.now(), 2.5);
  // A past target returns the target (the simulator clamps event times to
  // now itself) but never moves the clock backwards.
  EXPECT_DOUBLE_EQ(clock.advance_to(1.0), 1.0);
  EXPECT_DOUBLE_EQ(clock.now(), 2.5);
  // A drained DES has nothing to wait for; wake is a no-op.
  clock.wake();
  EXPECT_FALSE(clock.wait(10.0));
}

TEST(WallClock, AdvanceBlocksUntilTheTargetPasses) {
  sim::WallClock clock;
  EXPECT_FALSE(clock.is_virtual());
  const auto start = std::chrono::steady_clock::now();
  const double target = clock.now() + 0.05;
  const double reached = clock.advance_to(target);
  EXPECT_GE(reached, target);
  EXPECT_GE(seconds_since(start), 0.04);
}

TEST(WallClock, WakeInterruptsAdvanceEarly) {
  sim::WallClock clock;
  const double target = clock.now() + 30.0;  // far future: must not sleep it out
  std::thread waker([&clock] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    clock.wake();
  });
  const auto start = std::chrono::steady_clock::now();
  const double reached = clock.advance_to(target);
  waker.join();
  EXPECT_LT(reached, target);
  EXPECT_LT(seconds_since(start), 10.0);
}

TEST(WallClock, WakeIsLatchedForTheNextWait) {
  sim::WallClock clock;
  // A wake with no waiter must not be lost: the next wait consumes it.
  clock.wake();
  const auto start = std::chrono::steady_clock::now();
  EXPECT_TRUE(clock.wait(30.0));
  EXPECT_LT(seconds_since(start), 10.0);
  // Consumed: a short second wait times out instead.
  EXPECT_FALSE(clock.wait(0.01));
}

TEST(WallClock, ReadyPollSetDescriptorEndsTheWait) {
  sim::WallClock clock;
  int pipe_fds[2];
  ASSERT_EQ(::pipe(pipe_fds), 0);
  std::vector<pollfd> poll_set{pollfd{pipe_fds[0], POLLIN, 0}};
  clock.set_poll_set(&poll_set);
  std::thread writer([&pipe_fds] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const char byte = 'x';
    EXPECT_EQ(::write(pipe_fds[1], &byte, 1), 1);
  });
  const auto start = std::chrono::steady_clock::now();
  const double target = clock.now() + 30.0;
  EXPECT_LT(clock.advance_to(target), target);
  writer.join();
  EXPECT_LT(seconds_since(start), 10.0);
  // The poll's revents land in the caller's set for it to service.
  EXPECT_NE(poll_set[0].revents & POLLIN, 0);
  clock.set_poll_set(nullptr);
  ::close(pipe_fds[0]);
  ::close(pipe_fds[1]);
}

TEST(WallClock, OverdueAdvancePollsTheSetButKeepsTheWakeLatched) {
  sim::WallClock clock;
  int pipe_fds[2];
  ASSERT_EQ(::pipe(pipe_fds), 0);
  const char byte = 'x';
  ASSERT_EQ(::write(pipe_fds[1], &byte, 1), 1);
  std::vector<pollfd> poll_set{pollfd{pipe_fds[0], POLLIN, 0}};
  clock.set_poll_set(&poll_set);
  clock.wake();
  // A target already passed does not sleep, but once kPollGap has elapsed
  // it looks at the poll set so overdue events cannot starve it.
  std::this_thread::sleep_for(std::chrono::duration<double>(2 * sim::WallClock::kPollGap));
  EXPECT_DOUBLE_EQ(clock.advance_to(0.0), 0.0);
  EXPECT_NE(poll_set[0].revents & POLLIN, 0);
  // ... and leaves the wake for the next wait.
  poll_set[0].fd = -1;
  EXPECT_TRUE(clock.wait(30.0));
  EXPECT_FALSE(clock.wait(0.01));
  clock.set_poll_set(nullptr);
  ::close(pipe_fds[0]);
  ::close(pipe_fds[1]);
}

// ---- MpscQueue -------------------------------------------------------------

TEST(MpscQueue, CollectsConcurrentProducersFifoPerProducer) {
  util::MpscQueue<int> queue;
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 250;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&queue, p] {
      for (int i = 0; i < kPerProducer; ++i) queue.push(p * kPerProducer + i);
    });
  }
  for (auto& producer : producers) producer.join();
  EXPECT_EQ(queue.size(), static_cast<std::size_t>(kProducers * kPerProducer));

  const auto batch = queue.drain();
  EXPECT_TRUE(queue.empty());
  ASSERT_EQ(batch.size(), static_cast<std::size_t>(kProducers * kPerProducer));
  // Per-producer FIFO: each producer's items appear in its push order.
  std::vector<int> last(kProducers, -1);
  for (const int value : batch) {
    const int producer = value / kPerProducer;
    EXPECT_LT(last[producer], value % kPerProducer);
    last[producer] = value % kPerProducer;
  }
}

// ---- Simulator under an explicit clock -------------------------------------

std::vector<RequestRecord> run_paper_service(const std::vector<RequestSpec>& workload,
                                             sim::Clock* clock) {
  Cluster cluster(platform::paper_cluster());
  if (clock != nullptr) cluster.simulator().set_clock(clock);
  core::HidpStrategy strategy;
  InferenceService service(cluster, strategy, 1);
  ReplayArrivals arrivals(workload);
  service.attach(&arrivals);
  auto records = service.run();
  cluster.simulator().set_clock(nullptr);
  return records;
}

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
    EXPECT_EQ(a[i].arrival_s, b[i].arrival_s) << "request " << a[i].id;
    EXPECT_EQ(a[i].dispatch_s, b[i].dispatch_s) << "request " << a[i].id;
    EXPECT_EQ(a[i].finish_s, b[i].finish_s) << "request " << a[i].id;
    EXPECT_EQ(a[i].flops, b[i].flops) << "request " << a[i].id;
  }
}

/// The clock abstraction must not perturb the DES: a simulator with an
/// explicitly installed VirtualClock reproduces the default-clock run bit
/// for bit on the paper workloads.
TEST(SimulatorClock, ExplicitVirtualClockIsBitIdenticalToDefault) {
  ModelSet models;
  const std::vector<RequestSpec> workload =
      periodic_stream(models.graph(ModelId::kResNet152), 8, 0.2);
  const auto default_records = run_paper_service(workload, nullptr);
  sim::VirtualClock explicit_clock;
  const auto explicit_records = run_paper_service(workload, &explicit_clock);
  expect_bit_identical(default_records, explicit_records);
}

// ---- PlannerPool -----------------------------------------------------------

PlannerPool::StrategyFactory hidp_factory() {
  return [] { return std::make_unique<core::HidpStrategy>(); };
}

std::size_t terminal_count(const ServiceStats& stats) {
  return stats.completed + stats.rejected + stats.dropped + stats.deadline_misses +
         stats.failed;
}

/// Drives a service whose plans come from a PlannerPool to completion under
/// the VirtualClock: the simulator pump waits for the pool between events,
/// so every plan is delivered at the sim time it was requested.
std::vector<RequestRecord> run_pooled_service(const std::vector<RequestSpec>& workload,
                                              std::size_t workers, ServiceStats* stats) {
  Cluster cluster(platform::paper_cluster());
  core::HidpStrategy strategy;
  InferenceService service(cluster, strategy, 1);
  PlannerPool pool(workers, hidp_factory());
  service.set_plan_provider(&pool);
  ReplayArrivals arrivals(workload);
  service.attach(&arrivals);
  cluster.simulator().set_pump([&] {
    pool.wait_idle();
    pool.pump();
    // Keep running until the engine's deferred run releases have fired too.
    return terminal_count(service.stats()) < workload.size() ||
           cluster.simulator().pending() > 0;
  });
  auto records = service.run();
  cluster.simulator().set_pump(nullptr);
  service.set_plan_provider(nullptr);
  if (stats != nullptr) *stats = service.stats();
  return records;
}

/// A single-worker pool preserves delivery order, so off-thread planning is
/// the same computation as inline planning — records match bit for bit.
TEST(PlannerPool, SingleWorkerIsBitIdenticalToInlinePlanning) {
  ModelSet models;
  const std::vector<RequestSpec> workload =
      periodic_stream(models.graph(ModelId::kEfficientNetB0), 8, 0.15);
  const auto inline_records = run_paper_service(workload, nullptr);
  ServiceStats pooled_stats;
  const auto pooled_records = run_pooled_service(workload, 1, &pooled_stats);
  expect_bit_identical(inline_records, pooled_records);
  EXPECT_EQ(pooled_stats.async_plans, workload.size());
  EXPECT_EQ(pooled_stats.stale_plans, 0u);
}

/// Multiple workers may reorder deliveries, but every request still reaches
/// its terminal outcome with one async plan each and no stale discards.
TEST(PlannerPool, MultiWorkerCompletesEveryRequest) {
  ModelSet models;
  const std::vector<RequestSpec> workload =
      periodic_stream(models.graph(ModelId::kResNet152), 10, 0.1);
  ServiceStats stats;
  const auto records = run_pooled_service(workload, 3, &stats);
  ASSERT_EQ(records.size(), workload.size());
  for (const RequestRecord& record : records) {
    EXPECT_EQ(record.outcome, RequestOutcome::kCompleted) << "request " << record.id;
  }
  EXPECT_EQ(stats.completed, workload.size());
  EXPECT_EQ(stats.async_plans, workload.size());
  EXPECT_EQ(stats.stale_plans, 0u);
}

/// A plan computed across a cluster mutation is stale: the epoch check at
/// delivery discards it and replans against the current cluster. Driven
/// deterministically — the sim drains with the job queued, the epoch bumps,
/// then the pool pumps.
TEST(PlannerPool, StalePlanIsDiscardedAndReplanned) {
  ModelSet models;
  Cluster cluster(platform::paper_cluster());
  core::HidpStrategy strategy;
  InferenceService service(cluster, strategy, 1);
  PlannerPool pool(1, hidp_factory());
  service.set_plan_provider(&pool);
  service.submit(RequestSpec{0, &models.graph(ModelId::kEfficientNetB0), 0.0});

  // The arrival fires and requests a plan; the sim drains with it in flight.
  cluster.simulator().run();
  pool.wait_idle();
  EXPECT_EQ(service.stats().async_plans, 1u);
  EXPECT_EQ(pool.planned(), 1u);

  // A DVFS event on a non-leader node bumps the epoch (shard stays live).
  const std::uint64_t before = cluster.membership_epoch();
  cluster.set_dvfs_scale(0, 0.5);
  ASSERT_GT(cluster.membership_epoch(), before);

  // Delivery detects the mismatch, discards and re-requests.
  pool.pump();
  EXPECT_EQ(service.stats().stale_plans, 1u);
  EXPECT_EQ(service.stats().async_plans, 2u);
  EXPECT_EQ(service.stats().completed, 0u);

  // The replacement plan is fresh: delivery dispatches and the run ends.
  pool.wait_idle();
  pool.pump();
  cluster.simulator().run();
  const auto records = service.run();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].outcome, RequestOutcome::kCompleted);
  EXPECT_EQ(service.stats().completed, 1u);
  EXPECT_EQ(service.stats().stale_plans, 1u);
  service.set_plan_provider(nullptr);
}

/// When the event that staled the plan also killed the shard, the request
/// routes through the standard churn machinery to a terminal failure
/// instead of replanning forever against a dead shard.
TEST(PlannerPool, StalePlanOnDeadShardFailsTerminally) {
  ModelSet models;
  std::vector<platform::NodeModel> nodes;
  nodes.push_back(platform::make_device("Jetson TX2"));
  nodes.push_back(platform::make_device("Jetson TX2"));
  Cluster cluster(std::move(nodes));
  core::HidpStrategy strategy;
  InferenceService service(cluster, strategy, 0);
  PlannerPool pool(1, hidp_factory());
  service.set_plan_provider(&pool);
  service.submit(RequestSpec{0, &models.graph(ModelId::kEfficientNetB0), 0.0});

  cluster.simulator().run();
  pool.wait_idle();
  // Leader death: bumps the epoch AND takes the shard down.
  cluster.set_node_available(0, false);
  pool.pump();
  cluster.simulator().run();

  EXPECT_EQ(service.stats().stale_plans, 1u);
  EXPECT_EQ(service.stats().async_plans, 1u);  // no replan against a dead shard
  EXPECT_EQ(service.stats().failed, 1u);
  const auto records = service.run();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].outcome, RequestOutcome::kFailed);
  service.set_plan_provider(nullptr);
}

// ---- Gateway ---------------------------------------------------------------

/// Two (Orin NX, TX2) shards behind HiDP planning, as in the examples.
struct GatewayFixture {
  GatewayFixture()
      : cluster(make_nodes()), routing(), fleet(cluster, make_shards(), routing) {}

  static std::vector<platform::NodeModel> make_nodes() {
    std::vector<platform::NodeModel> nodes;
    for (int i = 0; i < 2; ++i) {
      nodes.push_back(platform::make_device("Jetson Orin NX"));
      nodes.push_back(platform::make_device("Jetson TX2"));
    }
    return nodes;
  }
  std::vector<FleetShard> make_shards() {
    shard_strategies.clear();
    std::vector<FleetShard> shards;
    for (std::size_t s = 0; s < 2; ++s) {
      shard_strategies.push_back(std::make_unique<core::HidpStrategy>());
      FleetShard shard;
      shard.strategy = shard_strategies.back().get();
      shard.nodes = {2 * s, 2 * s + 1};
      shard.leader = 2 * s;
      shards.push_back(std::move(shard));
    }
    return shards;
  }
  Gateway::ModelRegistry registry() {
    Gateway::ModelRegistry models_by_name;
    for (const ModelId id : {ModelId::kEfficientNetB0, ModelId::kResNet152}) {
      models_by_name[dnn::zoo::model_name(id)] = &models.graph(id);
    }
    return models_by_name;
  }

  ModelSet models;
  std::vector<std::unique_ptr<core::HidpStrategy>> shard_strategies;
  Cluster cluster;
  LeastLoadedRouting routing;
  ServiceFleet fleet;
};

/// The acceptance scenario: >= 4 concurrent TCP clients against the
/// WallClock-driven fleet, each receiving its streamed terminal outcome,
/// with balanced gateway and fleet counters afterwards.
TEST(Gateway, ServesConcurrentTcpClientsToTerminalOutcomes) {
  GatewayFixture fixture;
  Gateway::Options options;
  options.planner_workers = 2;
  Gateway gateway(fixture.fleet, fixture.registry(), options,
                  [] { return std::make_unique<core::HidpStrategy>(); });
  gateway.start();
  ASSERT_TRUE(gateway.running());
  ASSERT_GT(gateway.port(), 0);

  constexpr int kClients = 4;
  constexpr int kPerClient = 3;
  std::vector<int> done(kClients, 0);
  std::atomic<int> accepted{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      LineClient client;
      ASSERT_TRUE(client.connect(gateway.port()));
      const char* model = c % 2 == 0 ? "EfficientNetB0" : "ResNet152";
      for (int r = 0; r < kPerClient; ++r) {
        const int id = c * kPerClient + r;
        const std::string line = "{\"id\":" + std::to_string(id) + ",\"model\":\"" +
                                 model + "\",\"qos\":\"standard\"}";
        ASSERT_TRUE(client.send_line(line));
        bool terminal = false;
        while (!terminal) {
          const auto response = client.read_line(30.0);
          ASSERT_TRUE(response.has_value()) << "client " << c << " request " << id;
          const auto event = jsonl::string_field(*response, "event");
          ASSERT_TRUE(event.has_value()) << *response;
          ASSERT_NE(*event, "error") << *response;
          const auto echoed = jsonl::number_field(*response, "id");
          ASSERT_TRUE(echoed.has_value()) << *response;
          EXPECT_EQ(static_cast<int>(*echoed), id) << *response;
          if (*event == "accepted") {
            ++accepted;
          } else if (*event == "done") {
            const auto outcome = jsonl::string_field(*response, "outcome");
            ASSERT_TRUE(outcome.has_value()) << *response;
            EXPECT_FALSE(outcome->empty());
            const auto latency = jsonl::number_field(*response, "latency_ms");
            ASSERT_TRUE(latency.has_value()) << *response;
            EXPECT_GE(*latency, 0.0);
            terminal = true;
          }
        }
        ++done[c];
      }
    });
  }
  for (auto& client : clients) client.join();
  gateway.stop();
  EXPECT_FALSE(gateway.running());

  constexpr std::size_t kTotal = kClients * kPerClient;
  for (int c = 0; c < kClients; ++c) EXPECT_EQ(done[c], kPerClient) << "client " << c;
  EXPECT_EQ(accepted.load(), static_cast<int>(kTotal));
  const GatewayStats stats = gateway.stats();
  EXPECT_EQ(stats.received, kTotal);
  EXPECT_EQ(stats.submitted, kTotal);
  EXPECT_EQ(stats.responded, kTotal);
  EXPECT_EQ(stats.bad_lines, 0u);
  // Fleet accounting balances: every admitted request reached exactly one
  // terminal outcome.
  const ServiceStats fleet_stats = fixture.fleet.stats();
  EXPECT_EQ(fleet_stats.submitted, kTotal);
  EXPECT_EQ(terminal_count(fleet_stats), kTotal);
  // All plans came off the driver thread.
  ASSERT_NE(gateway.planner_pool(), nullptr);
  EXPECT_GE(gateway.planner_pool()->planned(), kTotal);
}

/// Malformed lines and unknown models get streamed "error" events (and a
/// bad_lines count) without poisoning the connection for later requests.
TEST(Gateway, RejectsBadLinesAndKeepsTheConnectionUsable) {
  GatewayFixture fixture;
  Gateway gateway(fixture.fleet, fixture.registry());
  gateway.start();

  LineClient client;
  ASSERT_TRUE(client.connect(gateway.port()));

  ASSERT_TRUE(client.send_line("this is not json"));
  auto response = client.read_line(10.0);
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(jsonl::string_field(*response, "event").value_or(""), "error");

  ASSERT_TRUE(client.send_line("{\"id\":7,\"model\":\"NoSuchNet\"}"));
  response = client.read_line(10.0);
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(jsonl::string_field(*response, "event").value_or(""), "error");
  EXPECT_EQ(static_cast<int>(jsonl::number_field(*response, "id").value_or(-1)), 7);

  // The same connection still serves a valid request afterwards.
  ASSERT_TRUE(client.send_line("{\"id\":8,\"model\":\"EfficientNetB0\"}"));
  bool terminal = false;
  while (!terminal) {
    response = client.read_line(30.0);
    ASSERT_TRUE(response.has_value());
    const auto event = jsonl::string_field(*response, "event").value_or("");
    ASSERT_NE(event, "error") << *response;
    terminal = event == "done";
  }
  gateway.stop();
  EXPECT_EQ(gateway.stats().bad_lines, 2u);
  EXPECT_EQ(gateway.stats().responded, 1u);
}

/// The {"cmd":"stats"} protocol line answers with the lifecycle counters
/// plus the planner delta counters, readable mid-run from a client thread
/// (the driver mirrors the fleet's driver-thread-only stats into atomics).
TEST(Gateway, StatsLineReportsPlannerCountersOverTcp) {
  GatewayFixture fixture;
  Gateway gateway(fixture.fleet, fixture.registry());
  gateway.start();

  LineClient client;
  ASSERT_TRUE(client.connect(gateway.port()));

  // Drive one request to its terminal first: planning has then built at
  // least one cost model, and the driver has pumped the planner counters
  // into the cross-thread mirror.
  ASSERT_TRUE(client.send_line("{\"id\":1,\"model\":\"EfficientNetB0\"}"));
  bool terminal = false;
  while (!terminal) {
    const auto response = client.read_line(30.0);
    ASSERT_TRUE(response.has_value());
    terminal = jsonl::string_field(*response, "event").value_or("") == "done";
  }

  ASSERT_TRUE(client.send_line("{\"id\":2,\"cmd\":\"stats\"}"));
  auto response = client.read_line(10.0);
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(jsonl::string_field(*response, "event").value_or(""), "stats");
  EXPECT_EQ(static_cast<int>(jsonl::number_field(*response, "id").value_or(-1)), 2);
  EXPECT_GE(jsonl::number_field(*response, "received").value_or(0.0), 1.0);
  EXPECT_GE(jsonl::number_field(*response, "responded").value_or(0.0), 1.0);
  EXPECT_GE(jsonl::number_field(*response, "cold_replans").value_or(0.0), 1.0);
  ASSERT_TRUE(jsonl::number_field(*response, "repaired_plans").has_value());
  ASSERT_TRUE(jsonl::number_field(*response, "partial_repriced_rows").has_value());

  // Unknown commands are rejected without poisoning the connection.
  ASSERT_TRUE(client.send_line("{\"cmd\":\"bogus\"}"));
  response = client.read_line(10.0);
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(jsonl::string_field(*response, "event").value_or(""), "error");

  gateway.stop();
  const GatewayStats stats = gateway.stats();
  EXPECT_EQ(stats.responded, 1u);
  EXPECT_GE(stats.cold_replans, 1u);
  EXPECT_EQ(stats.bad_lines, 1u);
}

/// Programmatic submission from multiple threads: every on_done callback
/// fires exactly once with a terminal record.
TEST(Gateway, ProgrammaticSubmitFromConcurrentThreads) {
  GatewayFixture fixture;
  Gateway gateway(fixture.fleet, fixture.registry());
  gateway.start();

  constexpr int kThreads = 4;
  constexpr int kPerThread = 2;
  std::vector<std::future<RequestOutcome>> outcomes;
  std::vector<std::thread> submitters;
  std::vector<std::promise<RequestOutcome>> promises(kThreads * kPerThread);
  for (auto& promise : promises) outcomes.push_back(promise.get_future());
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        GatewayRequest request;
        request.model = &fixture.models.graph(ModelId::kEfficientNetB0);
        request.qos = QosClass::kInteractive;
        std::promise<RequestOutcome>& promise = promises[t * kPerThread + i];
        gateway.submit(request, [&promise](const RequestRecord& record) {
          promise.set_value(record.outcome);
        });
      }
    });
  }
  for (auto& submitter : submitters) submitter.join();
  for (auto& outcome : outcomes) {
    ASSERT_EQ(outcome.wait_for(std::chrono::seconds(30)), std::future_status::ready);
    EXPECT_EQ(outcome.get(), RequestOutcome::kCompleted);
  }
  gateway.stop();
  EXPECT_EQ(gateway.stats().responded, static_cast<std::uint64_t>(kThreads * kPerThread));
  // A null model is rejected at the submission boundary, not in the driver.
  EXPECT_THROW(gateway.submit(GatewayRequest{}, [](const RequestRecord&) {}),
               std::invalid_argument);
}

/// stop() drains: requests in flight when shutdown begins still reach their
/// terminal outcome and their callbacks fire before stop() returns.
TEST(Gateway, StopDrainsInFlightRequests) {
  GatewayFixture fixture;
  Gateway gateway(fixture.fleet, fixture.registry());
  gateway.start();
  std::atomic<int> delivered{0};
  for (int i = 0; i < 3; ++i) {
    GatewayRequest request;
    request.model = &fixture.models.graph(ModelId::kResNet152);
    gateway.submit(request, [&delivered](const RequestRecord&) { ++delivered; });
  }
  gateway.stop();  // immediate: no waiting for completion first
  EXPECT_EQ(delivered.load(), 3);
  EXPECT_EQ(gateway.stats().responded, 3u);
}

std::size_t count_entries(const char* directory) {
  std::size_t count = 0;
  for ([[maybe_unused]] const auto& entry : std::filesystem::directory_iterator(directory)) {
    ++count;
  }
  return count;
}

/// Reads events until the "done" for the request in flight; returns its
/// latency_ms, or -1 on an error event, timeout or EOF.
double read_until_done(LineClient& client) {
  for (;;) {
    const auto response = client.read_line(30.0);
    if (!response) return -1.0;
    const std::string event = jsonl::string_field(*response, "event").value_or("");
    if (event == "error") return -1.0;
    if (event == "done") return jsonl::number_field(*response, "latency_ms").value_or(-1.0);
  }
}

/// One request at a time on one connection: the wall time from sending the
/// line to reading its "done", minus the latency the fleet reports, is the
/// gateway's own overhead. A response written while the previous one is
/// still unacknowledged must not wait out the client's delayed ACK
/// (~40 ms): both ends set TCP_NODELAY.
TEST(Gateway, PingPongAddsNoSocketStall) {
  GatewayFixture fixture;
  Gateway gateway(fixture.fleet, fixture.registry());
  gateway.start();
  LineClient client;
  ASSERT_TRUE(client.connect(gateway.port()));

  constexpr int kRequests = 20;
  constexpr int kWarmup = 5;  // cold plans, slow under the sanitizers
  std::vector<double> overhead_ms;
  for (int id = 0; id < kRequests; ++id) {
    const auto sent = std::chrono::steady_clock::now();
    ASSERT_TRUE(
        client.send_line("{\"id\":" + std::to_string(id) + ",\"model\":\"EfficientNetB0\"}"));
    const double latency_ms = read_until_done(client);
    ASSERT_GE(latency_ms, 0.0) << "request " << id;
    if (id >= kWarmup) overhead_ms.push_back(seconds_since(sent) * 1e3 - latency_ms);
  }
  gateway.stop();
  std::nth_element(overhead_ms.begin(), overhead_ms.begin() + overhead_ms.size() / 2,
                   overhead_ms.end());
  EXPECT_LT(overhead_ms[overhead_ms.size() / 2], 10.0);
}

/// Ten thousand lines in one send are each answered, in order: lines are
/// split from an offset, so pipelined input costs linear time.
TEST(Gateway, AnswersTenThousandPipelinedLines) {
  GatewayFixture fixture;
  Gateway gateway(fixture.fleet, fixture.registry());
  gateway.start();
  LineClient client;
  ASSERT_TRUE(client.connect(gateway.port()));

  constexpr int kLines = 10000;
  std::string batch;
  for (int id = 0; id < kLines; ++id) {
    if (id > 0) batch.push_back('\n');
    batch += "{\"cmd\":\"stats\",\"id\":" + std::to_string(id) + "}";
  }
  // The answers stream back while the batch is still being sent, so send
  // from a second thread; send_line only reads the client's descriptor.
  std::thread sender([&client, &batch] { EXPECT_TRUE(client.send_line(batch)); });
  int answered = 0;
  for (; answered < kLines; ++answered) {
    const auto response = client.read_line(30.0);
    if (!response) break;
    ASSERT_EQ(jsonl::string_field(*response, "event").value_or(""), "stats") << *response;
    ASSERT_EQ(static_cast<int>(jsonl::number_field(*response, "id").value_or(-1)), answered);
  }
  sender.join();
  gateway.stop();
  EXPECT_EQ(answered, kLines);
  EXPECT_EQ(gateway.stats().bad_lines, 0u);
}

/// A raw client socket, for input LineClient cannot send (no newline).
int connect_raw(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (fd >= 0 && ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool send_all(int fd, const std::string& data) {
  std::size_t offset = 0;
  while (offset < data.size()) {
    const ssize_t n = ::send(fd, data.data() + offset, data.size() - offset, MSG_NOSIGNAL);
    if (n <= 0) return false;
    offset += static_cast<std::size_t>(n);
  }
  return true;
}

/// A partial line may grow to Gateway::kMaxLineBytes; one byte more gets an
/// error event and closes that connection, while another connection is
/// served throughout.
TEST(Gateway, RejectsAnOverlongLineAndKeepsServingOthers) {
  GatewayFixture fixture;
  Gateway gateway(fixture.fleet, fixture.registry());
  gateway.start();
  LineClient other;
  ASSERT_TRUE(other.connect(gateway.port()));
  const int flooder = connect_raw(gateway.port());
  ASSERT_GE(flooder, 0);

  ASSERT_TRUE(send_all(flooder, std::string(Gateway::kMaxLineBytes, 'x')));
  // At the cap the partial line is kept; the other connection is served.
  ASSERT_TRUE(other.send_line("{\"id\":1,\"model\":\"EfficientNetB0\"}"));
  ASSERT_GE(read_until_done(other), 0.0);
  EXPECT_EQ(gateway.stats().bad_lines, 0u);

  ASSERT_TRUE(send_all(flooder, "x"));
  std::string received;
  char chunk[4096];
  for (;;) {
    pollfd pfd{flooder, POLLIN, 0};
    ASSERT_GT(::poll(&pfd, 1, 30000), 0) << "no EOF from the gateway";
    const ssize_t n = ::recv(flooder, chunk, sizeof(chunk), 0);
    if (n <= 0) break;  // the gateway closed the connection
    received.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(flooder);
  EXPECT_EQ(jsonl::string_field(received, "event").value_or(""), "error") << received;
  EXPECT_EQ(received.back(), '\n');

  ASSERT_TRUE(other.send_line("{\"id\":2,\"cmd\":\"stats\"}"));
  const auto response = other.read_line(10.0);
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(jsonl::string_field(*response, "event").value_or(""), "stats");
  EXPECT_EQ(jsonl::number_field(*response, "bad_lines").value_or(-1.0), 1.0);
  EXPECT_EQ(jsonl::number_field(*response, "open_connections").value_or(-1.0), 1.0);
  gateway.stop();
}

/// Connections closed by their clients are reaped at EOF: the count goes
/// back to zero and so does every descriptor the gateway accepted.
TEST(Gateway, ReapsClosedConnections) {
  GatewayFixture fixture;
  Gateway gateway(fixture.fleet, fixture.registry());
  gateway.start();
  const std::size_t fds_before = count_entries("/proc/self/fd");

  for (int i = 0; i < 100; ++i) {
    LineClient client;
    ASSERT_TRUE(client.connect(gateway.port()));
    // An answer proves the gateway accepted this connection.
    ASSERT_TRUE(client.send_line("{\"cmd\":\"stats\"}"));
    ASSERT_TRUE(client.read_line(10.0).has_value()) << "connection " << i;
  }
  const auto start = std::chrono::steady_clock::now();
  while (gateway.stats().open_connections > 0 && seconds_since(start) < 10.0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(gateway.stats().open_connections, 0u);
  EXPECT_EQ(count_entries("/proc/self/fd"), fds_before);
  gateway.stop();
}

/// The driver thread serves the sockets too: starting the gateway starts
/// exactly one thread (no planner pool here).
TEST(Gateway, StartsOnlyTheDriverThread) {
  GatewayFixture fixture;
  Gateway gateway(fixture.fleet, fixture.registry());
  const std::size_t threads_before = count_entries("/proc/self/task");
  gateway.start();
  LineClient client;
  ASSERT_TRUE(client.connect(gateway.port()));
  ASSERT_TRUE(client.send_line("{\"id\":1,\"model\":\"EfficientNetB0\"}"));
  ASSERT_GE(read_until_done(client), 0.0);
  EXPECT_EQ(count_entries("/proc/self/task"), threads_before + 1);
  gateway.stop();
  // A joined thread's /proc entry may outlive the join by a moment.
  const auto stopped = std::chrono::steady_clock::now();
  while (count_entries("/proc/self/task") != threads_before && seconds_since(stopped) < 1.0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(count_entries("/proc/self/task"), threads_before);
}

// ---- Line-protocol JSON helpers --------------------------------------------

TEST(JsonLine, ExtractsStringAndNumberFields) {
  const std::string line =
      "{\"id\":42,\"model\":\"ResNet152\",\"qos\":\"best-effort\",\"deadline_ms\":250.5}";
  EXPECT_EQ(jsonl::string_field(line, "model").value_or(""), "ResNet152");
  EXPECT_EQ(jsonl::string_field(line, "qos").value_or(""), "best-effort");
  EXPECT_DOUBLE_EQ(jsonl::number_field(line, "id").value_or(0), 42.0);
  EXPECT_DOUBLE_EQ(jsonl::number_field(line, "deadline_ms").value_or(0), 250.5);
  EXPECT_FALSE(jsonl::string_field(line, "missing").has_value());
  EXPECT_FALSE(jsonl::number_field(line, "model").has_value());
}

}  // namespace
}  // namespace hidp::runtime
