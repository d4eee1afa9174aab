#include "runtime/planner_pool.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "util/log.hpp"

namespace hidp::runtime {

PlannerPool::PlannerPool(std::size_t workers, StrategyFactory factory) {
  if (workers == 0) throw std::invalid_argument("PlannerPool: zero workers");
  if (!factory) throw std::invalid_argument("PlannerPool: null strategy factory");
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    auto worker = std::make_unique<Worker>();
    worker->strategy = factory();
    if (!worker->strategy) throw std::invalid_argument("PlannerPool: factory returned null");
    workers_.push_back(std::move(worker));
  }
  // Strategies first, threads second: a throwing factory must not leave
  // half the pool running.
  for (auto& worker : workers_) {
    worker->thread = std::thread([this, w = worker.get()] { worker_loop(*w); });
  }
}

PlannerPool::~PlannerPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& worker : workers_) {
    if (worker->thread.joinable()) worker->thread.join();
  }
}

void PlannerPool::request_plan(PlanRequest request, std::uint64_t epoch,
                               std::function<void(Plan, std::uint64_t)> deliver) {
  auto job = std::make_unique<Job>();
  // Deep-copy the node models on the requesting (driver) thread, while the
  // live vector is quiescent; the worker re-points the snapshot at its own
  // stable buffer before planning.
  job->nodes = *request.snapshot.nodes;
  job->request = std::move(request);
  job->epoch = epoch;
  job->deliver = std::move(deliver);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) throw std::runtime_error("PlannerPool: request_plan after shutdown");
    // The copy above was taken after every event recorded so far fanned
    // out, so its content reflects exactly the events up to event_seq_.
    job->event_seq = event_seq_;
    jobs_.push_back(std::move(job));
  }
  cv_.notify_one();
}

void PlannerPool::on_node_event(const NodeEvent& event) {
  auto record = std::make_shared<EventRecord>();
  record->event = event;
  record->event.nodes = nullptr;
  record->event.network = nullptr;
  if (event.nodes != nullptr && event.network != nullptr) {
    // Deep-copy on the driver thread: the live pointers are only valid for
    // the synchronous fan-out, but workers replay the event later.
    record->nodes = *event.nodes;
    record->network = *event.network;
    record->has_state = true;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (event.epoch != 0 && event.epoch <= last_event_epoch_) return;  // relayed duplicate
    if (event.epoch != 0) last_event_epoch_ = event.epoch;
    record->seq = ++event_seq_;
    events_.push_back(std::move(record));
    // Bounded window: a worker idle long enough to miss pruned records
    // falls back to drift detection (wholesale flush) at its next plan.
    while (events_.size() > 128) events_.pop_front();
  }
}

PlannerDeltaStats PlannerPool::planner_stats() const noexcept {
  PlannerDeltaStats out;
  out.repaired_plans = repaired_plans_.load(std::memory_order_relaxed);
  out.cold_replans = cold_replans_.load(std::memory_order_relaxed);
  out.partial_repriced_rows = partial_repriced_rows_.load(std::memory_order_relaxed);
  out.scoped_invalidations = scoped_invalidations_.load(std::memory_order_relaxed);
  out.rekeyed_entries = rekeyed_entries_.load(std::memory_order_relaxed);
  return out;
}

std::size_t PlannerPool::pump() {
  std::deque<Result> batch = results_.drain();
  for (Result& result : batch) {
    result.deliver(std::move(result.plan), result.epoch);
  }
  return batch.size();
}

void PlannerPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return jobs_.empty() && in_progress_ == 0; });
}

void PlannerPool::set_completion_signal(std::function<void()> signal) {
  std::lock_guard<std::mutex> lock(mu_);
  signal_ = std::move(signal);
}

void PlannerPool::worker_loop(Worker& worker) {
  for (;;) {
    std::unique_ptr<Job> job;
    std::function<void()> signal;
    std::vector<std::shared_ptr<const EventRecord>> replay;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !jobs_.empty(); });
      if (jobs_.empty()) return;  // stopping and drained
      job = std::move(jobs_.front());
      jobs_.pop_front();
      ++in_progress_;
      signal = signal_;
      // Events this worker has not replayed but the job's node copy
      // already reflects. Records beyond the job's sequence stay queued —
      // their state is newer than the copy the strategy will plan against.
      for (const auto& record : events_) {
        if (record->seq > worker.applied_seq && record->seq <= job->event_seq) {
          replay.push_back(record);
        }
      }
    }
    // Stable-address buffer: reusing worker.nodes keeps the strategy's
    // cross-request plan cache keyed to one pointer across jobs; the
    // cache's compute fingerprint still catches DVFS drift in the copied
    // contents.
    worker.nodes = std::move(job->nodes);
    job->request.snapshot.nodes = &worker.nodes;
    // Replay missed events into the worker's strategy before planning —
    // strategies repair their caches in place, or invalidate eagerly when
    // they have no repair path. The event's node pointer is re-anchored to the worker's
    // stable buffer (whose content includes every replayed event), so the
    // strategy's cache recognises it as its own cluster.
    for (const auto& record : replay) {
      NodeEvent event = record->event;
      if (record->has_state) {
        event.nodes = &worker.nodes;
        event.network = &record->network;
      }
      try {
        worker.strategy->on_node_event(event);
      } catch (const std::exception& e) {
        HIDP_LOG(kWarn, "planner_pool") << "worker event replay failed: " << e.what();
      }
    }
    worker.applied_seq = std::max(worker.applied_seq, job->event_seq);
    Plan plan;
    try {
      plan = worker.strategy->plan(job->request).plan;
      validate_plan(plan, worker.nodes);
    } catch (const std::exception& e) {
      // A throwing strategy must not take the worker down; an empty plan
      // flows back and the request completes without execution (the same
      // terminal the inline path gives an unplannable request).
      HIDP_LOG(kWarn, "planner_pool") << "worker plan failed: " << e.what();
      plan = Plan{};
    }
    // Fold this worker's delta-repair counters into the pool aggregates
    // (diff against the last fold — planner_stats() is cumulative).
    const PlannerDeltaStats stats = worker.strategy->planner_stats();
    repaired_plans_.fetch_add(stats.repaired_plans - worker.folded.repaired_plans,
                              std::memory_order_relaxed);
    cold_replans_.fetch_add(stats.cold_replans - worker.folded.cold_replans,
                            std::memory_order_relaxed);
    partial_repriced_rows_.fetch_add(
        stats.partial_repriced_rows - worker.folded.partial_repriced_rows,
        std::memory_order_relaxed);
    scoped_invalidations_.fetch_add(
        stats.scoped_invalidations - worker.folded.scoped_invalidations,
        std::memory_order_relaxed);
    rekeyed_entries_.fetch_add(stats.rekeyed_entries - worker.folded.rekeyed_entries,
                               std::memory_order_relaxed);
    worker.folded = stats;
    results_.push(Result{std::move(plan), job->epoch, std::move(job->deliver)});
    planned_.fetch_add(1, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(mu_);
      --in_progress_;
      if (jobs_.empty() && in_progress_ == 0) idle_cv_.notify_all();
    }
    // Signal after the result is visible in the queue: a woken driver
    // always finds the work that woke it.
    if (signal) signal();
  }
}

}  // namespace hidp::runtime
