// Planner pool: IStrategy::plan() off the DES driver thread.
//
// Planning is the serving loop's CPU-heavy step — the hierarchical DP walks
// layer groups x nodes x modes per request — and under a WallClock it
// competes with dispatch for the driver thread. The pool moves that work to
// N worker threads, each owning its own strategy instance (strategies are
// stateful: plan caches, latency EWMA), while keeping every simulator and
// service structure strictly driver-thread-only:
//
//  - request_plan() (driver thread) deep-copies the cluster's node models
//    into the job — workers must never read the live vector, which DVFS
//    events mutate — and queues it.
//  - A worker copies the nodes into its own stable-address buffer, points
//    the snapshot there and plans. The stable buffer keeps the worker
//    strategy's cross-request plan cache warm across jobs (the cache keys
//    on the vector address plus a compute fingerprint that still catches
//    DVFS drift between jobs).
//  - Results land in an MPSC queue; pump() — driver thread again — hands
//    each plan to its requester's `deliver` callback. The completion signal
//    (typically sim::Clock::wake) tells the driver loop a result is ready.
//
// Staleness is the service's job: each job carries the membership epoch
// captured at request time and echoes it through delivery, so a plan that
// crossed a churn/link event is detected and re-requested (see
// InferenceService::deliver_plan).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "runtime/service.hpp"
#include "util/mpsc.hpp"

namespace hidp::runtime {

class PlannerPool final : public PlanProvider {
 public:
  /// Builds one strategy instance per worker (workers never share one —
  /// strategies carry mutable caches with no internal locking).
  using StrategyFactory = std::function<std::unique_ptr<IStrategy>()>;

  /// Starts `workers` threads (>= 1). The factory is invoked `workers`
  /// times on the constructing thread.
  PlannerPool(std::size_t workers, StrategyFactory factory);

  /// Finishes queued jobs, then joins the workers. Results still queued at
  /// destruction are dropped undelivered — drain with pump() first if the
  /// requests must reach their terminal states.
  ~PlannerPool() override;

  PlannerPool(const PlannerPool&) = delete;
  PlannerPool& operator=(const PlannerPool&) = delete;

  // PlanProvider (driver thread). Deep-copies the snapshot's node models
  // before the job crosses the thread boundary.
  void request_plan(PlanRequest request, std::uint64_t epoch,
                    std::function<void(Plan plan, std::uint64_t epoch)> deliver) override;

  // PlanProvider (driver thread). Records the event — with a deep copy of
  // its post-event node/network state, since the live pointers are only
  // valid during the synchronous fan-out — so each worker replays it into
  // its own strategy right before its next job. Worker strategies then
  // repair their caches in place (or invalidate eagerly when they have no
  // repair path). Events are sequenced against jobs: a worker applies
  // exactly the events its job's node copy already reflects. Shards sharing
  // the pool all relay the same event; duplicates dedupe on event.epoch.
  void on_node_event(const NodeEvent& event) override;

  /// Delta-repair counters summed over the worker strategies (folded after
  /// each job; thread-safe).
  PlannerDeltaStats planner_stats() const noexcept;

  /// Delivers every finished plan to its requester (driver thread; the
  /// gateway pumps between DES events, tests pump explicitly). Deliveries
  /// may re-request — those jobs queue normally. Returns plans delivered.
  std::size_t pump();

  /// Blocks until every submitted job has been planned (its result queued;
  /// not yet delivered — call pump() after). Test helper for deterministic
  /// VirtualClock runs; do not call from a worker.
  void wait_idle();

  /// Installs the result-ready signal, fired from a worker thread after
  /// each result is queued — the gateway wakes its WallClock here so the
  /// driver loop wakes and pumps. Install before the first request_plan().
  void set_completion_signal(std::function<void()> signal);

  std::size_t worker_count() const noexcept { return workers_.size(); }
  /// Jobs planned so far (includes results not yet delivered).
  std::uint64_t planned() const noexcept {
    return planned_.load(std::memory_order_relaxed);
  }

 private:
  struct Job {
    PlanRequest request;
    std::uint64_t epoch = 0;
    std::function<void(Plan, std::uint64_t)> deliver;
    /// Driver-side deep copy of the cluster's node models (the live vector
    /// belongs to the driver thread).
    std::vector<platform::NodeModel> nodes;
    /// Cluster-event sequence this job's node copy reflects: workers apply
    /// exactly the recorded events up to here before planning.
    std::uint64_t event_seq = 0;
  };
  struct Result {
    Plan plan;
    std::uint64_t epoch = 0;
    std::function<void(Plan, std::uint64_t)> deliver;
  };
  /// One recorded cluster event, with the post-event state deep-copied on
  /// the driver thread (the live pointers die with the fan-out).
  struct EventRecord {
    NodeEvent event;  ///< nodes/network nulled; workers re-point them
    std::vector<platform::NodeModel> nodes;
    net::NetworkSpec network;
    bool has_state = false;  ///< the original event carried live state
    std::uint64_t seq = 0;
  };
  struct Worker {
    std::thread thread;
    std::unique_ptr<IStrategy> strategy;
    /// Stable-address node buffer (see file comment).
    std::vector<platform::NodeModel> nodes;
    /// Last event sequence replayed into this worker's strategy.
    std::uint64_t applied_seq = 0;
    /// planner_stats() snapshot at the last fold into the pool atomics.
    PlannerDeltaStats folded;
  };

  void worker_loop(Worker& worker);

  std::mutex mu_;
  std::condition_variable cv_;       ///< job arrival / stop
  std::condition_variable idle_cv_;  ///< all jobs drained (wait_idle)
  std::deque<std::unique_ptr<Job>> jobs_;
  std::size_t in_progress_ = 0;  ///< jobs taken but not yet resulted
  bool stop_ = false;
  std::function<void()> signal_;  ///< guarded by mu_ (workers copy under lock)
  std::vector<std::unique_ptr<Worker>> workers_;
  util::MpscQueue<Result> results_;
  std::atomic<std::uint64_t> planned_{0};
  // Cluster-event replay state (guarded by mu_). The record window is
  // bounded; a worker idle long enough to miss pruned records simply falls
  // back to its strategy's drift detection at the next plan.
  std::deque<std::shared_ptr<const EventRecord>> events_;
  std::uint64_t event_seq_ = 0;
  std::uint64_t last_event_epoch_ = 0;  ///< dedupe across relaying shards
  // Delta-repair counters folded from worker strategies after each job.
  std::atomic<std::uint64_t> repaired_plans_{0};
  std::atomic<std::uint64_t> cold_replans_{0};
  std::atomic<std::uint64_t> partial_repriced_rows_{0};
  std::atomic<std::uint64_t> scoped_invalidations_{0};
  std::atomic<std::uint64_t> rekeyed_entries_{0};
};

}  // namespace hidp::runtime
