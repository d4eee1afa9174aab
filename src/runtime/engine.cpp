#include "runtime/engine.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "util/log.hpp"

namespace hidp::runtime {

/// Per-request execution state. Every pending start, resource, transfer and
/// exchange callback of a run holds it by shared_ptr, and nothing it owns
/// refers back to it, so it is freed with the last of those callbacks.
struct ExecutionEngine::RequestRun {
  Plan plan;
  /// The NetworkSpec the plan was priced against — the expectation the
  /// per-transfer straggler watchdog compares live transfers to.
  net::NetworkSpec planned_network;
  std::vector<int> pending_deps;             ///< per task
  std::vector<std::vector<int>> dependents;  ///< reverse edges
  std::vector<char> finished;                ///< per task, set on completion
  int remaining = 0;
  RequestRecord* record = nullptr;
  int request_id = 0;
  /// Batched group run: member specs/records, aligned. Empty for single
  /// runs — the single-request paths are untouched by batching.
  std::vector<RequestSpec> member_specs;
  std::vector<RequestRecord*> member_records;
  std::uint64_t group = 0;   ///< groups_ key while joinable; 0 = single run
  /// A try_join replanned this group: the run was replaced before starting,
  /// so its pending start event must not fire.
  bool superseded = false;
  /// Compute reservations this run holds (preempted at failure so retries
  /// do not queue behind dead work).
  struct ComputeJob {
    std::size_t node = 0;
    std::size_t proc = 0;
    std::uint64_t job = 0;
  };
  std::vector<ComputeJob> compute_jobs;
  std::function<void()> done;
  std::function<void()> on_failed;

  int batch() const noexcept {
    return member_records.empty() ? 1 : static_cast<int>(member_records.size());
  }
  /// Node churn killed this run: late resource callbacks become no-ops.
  bool failed = false;

  /// True when task `i` has unfinished business on `node`.
  bool task_touches(std::size_t i, std::size_t node) const {
    if (finished[i]) return false;
    const PlanTask& task = plan.tasks[i];
    if (task.kind == PlanTask::Kind::kTransfer) return task.from == node || task.to == node;
    return task.node == node;
  }
  bool touches(std::size_t node) const {
    for (std::size_t i = 0; i < plan.tasks.size(); ++i) {
      if (task_touches(i, node)) return true;
    }
    return false;
  }
  /// True when any unfinished transfer of this run crosses the (a, b) link.
  bool touches_link(std::size_t a, std::size_t b) const {
    for (std::size_t i = 0; i < plan.tasks.size(); ++i) {
      if (finished[i]) continue;
      const PlanTask& task = plan.tasks[i];
      if (task.kind != PlanTask::Kind::kTransfer) continue;
      if ((task.from == a && task.to == b) || (task.from == b && task.to == a)) return true;
    }
    return false;
  }
};

std::string_view qos_class_name(QosClass qos) noexcept {
  switch (qos) {
    case QosClass::kBestEffort: return "best-effort";
    case QosClass::kStandard: return "standard";
    case QosClass::kInteractive: return "interactive";
  }
  return "?";
}

std::string_view request_outcome_name(RequestOutcome outcome) noexcept {
  switch (outcome) {
    case RequestOutcome::kCompleted: return "completed";
    case RequestOutcome::kRejected: return "rejected";
    case RequestOutcome::kDropped: return "dropped";
    case RequestOutcome::kDeadlineMiss: return "deadline-miss";
    case RequestOutcome::kFailed: return "failed";
  }
  return "?";
}

ExecutionEngine::ExecutionEngine(Cluster& cluster, IStrategy& strategy, std::size_t leader)
    : ExecutionEngine(ClusterView(cluster), strategy, leader) {}

ExecutionEngine::ExecutionEngine(const ClusterView& scope, IStrategy& strategy,
                                 std::size_t leader)
    : scope_(scope), strategy_(&strategy), leader_(leader) {
  if (!scope_.contains(leader_)) throw std::invalid_argument("leader outside engine scope");
  observer_id_ = this->cluster().add_observer([this](const NodeEvent& event) {
    if (event.kind == NodeEvent::Kind::kDown) fail_runs_on(event.node);
    if (event.kind == NodeEvent::Kind::kLink && !event.link_up &&
        event.peer != NodeEvent::kNoPeer) {
      fail_runs_on_link(event.node, event.peer);
    }
  });
}

ExecutionEngine::~ExecutionEngine() { cluster().remove_observer(observer_id_); }

void ExecutionEngine::rescope(const ClusterView& scope) {
  if (&scope.cluster() != &scope_.cluster()) {
    throw std::invalid_argument("rescope must stay on the engine's cluster");
  }
  if (!scope.contains(leader_)) throw std::invalid_argument("leader outside engine scope");
  scope_ = scope;
}

void ExecutionEngine::check_scope(const Plan& plan) const {
  if (scope_.whole_cluster()) return;
  for (const PlanTask& task : plan.tasks) {
    const bool inside = task.kind == PlanTask::Kind::kTransfer
                            ? scope_.contains(task.from) && scope_.contains(task.to)
                            : scope_.contains(task.node);
    if (!inside) {
      throw std::runtime_error("plan for strategy '" + plan.strategy +
                               "' escapes its shard's node set");
    }
  }
}

std::vector<RequestRecord> ExecutionEngine::run(const std::vector<RequestSpec>& requests) {
  auto records = std::make_shared<std::vector<RequestRecord>>(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const RequestSpec request = requests[i];
    if (request.model == nullptr) throw std::invalid_argument("request without model");
    (*records)[i].id = request.id;
    (*records)[i].model = request.model->name();
    (*records)[i].arrival_s = request.arrival_s;
    (*records)[i].qos = request.qos;
    (*records)[i].deadline_s = request.deadline_s;
    cluster().simulator().schedule_at(request.arrival_s, [this, request, records, i] {
      execute(request, (*records)[i], /*queued_behind=*/0, [] {});
    });
  }
  cluster().simulator().run();
  makespan_s_ = 0.0;
  for (const RequestRecord& r : *records) makespan_s_ = std::max(makespan_s_, r.finish_s);
  std::vector<RequestRecord> out = *records;
  std::sort(out.begin(), out.end(),
            [](const RequestRecord& a, const RequestRecord& b) { return a.id < b.id; });
  return out;
}

void ExecutionEngine::finalize_record(RequestRecord& record) {
  if (record.deadline_s > 0.0 && record.finish_s > record.deadline_s) {
    record.outcome = RequestOutcome::kDeadlineMiss;
  }
}

Plan ExecutionEngine::plan_batch(const dnn::DnnGraph& model, QosClass qos, double deadline_s,
                                 int batch, int queued_behind, net::NetworkSpec* network_out,
                                 PlanRequest::PlanKind kind) {
  PlanRequest plan_request;
  plan_request.model = &model;
  plan_request.qos = qos;
  plan_request.deadline_s = deadline_s;
  plan_request.batch = batch;
  plan_request.kind = kind;
  ClusterSnapshot& snapshot = plan_request.snapshot;
  snapshot.nodes = &cluster().nodes();
  snapshot.network = stale_network_planning_ ? cluster().network().base_spec()
                                             : cluster().network().spec();
  snapshot.available = scope_.visible_availability();
  snapshot.leader = leader_;
  snapshot.queue_depth = in_flight_ - batch + queued_behind;
  snapshot.now_s = cluster().simulator().now();

  Plan plan = strategy_->plan(plan_request).plan;
  validate_plan(plan, cluster().nodes());
  check_scope(plan);
  if (network_out != nullptr) *network_out = std::move(snapshot.network);
  return plan;
}

PlanRequest ExecutionEngine::make_plan_request(const dnn::DnnGraph& model, QosClass qos,
                                               double deadline_s, int queued_behind,
                                               PlanRequest::PlanKind kind) {
  PlanRequest plan_request;
  plan_request.model = &model;
  plan_request.qos = qos;
  plan_request.deadline_s = deadline_s;
  plan_request.batch = 1;
  plan_request.kind = kind;
  ClusterSnapshot& snapshot = plan_request.snapshot;
  snapshot.nodes = &cluster().nodes();
  snapshot.network = stale_network_planning_ ? cluster().network().base_spec()
                                             : cluster().network().spec();
  snapshot.available = scope_.visible_availability();
  snapshot.leader = leader_;
  // The request is not yet in in_flight_ (execute() increments before it
  // plans, then subtracts the batch): same pressure, different bookkeeping.
  snapshot.queue_depth = in_flight_ + queued_behind;
  snapshot.now_s = cluster().simulator().now();
  return plan_request;
}

void ExecutionEngine::set_leader(std::size_t leader) {
  if (!scope_.contains(leader)) {
    throw std::invalid_argument("set_leader: node outside engine scope");
  }
  leader_ = leader;
}

void ExecutionEngine::execute(const RequestSpec& request, RequestRecord& record,
                              int queued_behind, std::function<void()> done,
                              std::function<void()> on_failed) {
  if (request.model == nullptr) throw std::invalid_argument("request without model");
  ++in_flight_;
  net::NetworkSpec planned_network;
  Plan plan = plan_batch(*request.model, request.qos, request.deadline_s, /*batch=*/1,
                         queued_behind, &planned_network);
  record.strategy = plan.strategy;
  record.mode = plan.global_mode;
  record.nodes_used = plan.nodes_used;
  const double start = cluster().simulator().now() + plan.phases.total();
  record.dispatch_s = start;
  if (plan.empty()) {
    HIDP_LOG(kWarn, "engine") << "empty plan for request " << request.id;
    record.finish_s = start;
    finalize_record(record);
    --in_flight_;
    done();
    return;
  }
  dispatch_plan(request.id, std::move(plan), std::move(planned_network), start, record,
                std::move(done), std::move(on_failed));
}

Plan ExecutionEngine::plan_pipeline(const dnn::DnnGraph& model, QosClass qos,
                                    int queued_behind) {
  if (!strategy_->supports_pipeline()) return Plan{};
  return plan_batch(model, qos, /*deadline_s=*/0.0, /*batch=*/1, queued_behind,
                    /*network_out=*/nullptr, PlanRequest::PlanKind::kPipeline);
}

void ExecutionEngine::execute_planned(const RequestSpec& request, const Plan& plan,
                                      RequestRecord& record, std::function<void()> done,
                                      std::function<void()> on_failed) {
  if (request.model == nullptr) throw std::invalid_argument("request without model");
  check_scope(plan);
  ++in_flight_;
  record.strategy = plan.strategy;
  record.mode = plan.global_mode;
  record.nodes_used = plan.nodes_used;
  const double start = cluster().simulator().now() + plan.phases.total();
  record.dispatch_s = start;
  if (plan.empty()) {
    HIDP_LOG(kWarn, "engine") << "empty pre-built plan for request " << request.id;
    record.finish_s = start;
    finalize_record(record);
    --in_flight_;
    done();
    return;
  }
  // Watchdog expectation baseline: the live spec at dispatch. The shared
  // plan may be many requests old, so the plan-time spec is not retained;
  // stale-planning engines keep their construction-time baseline as always.
  net::NetworkSpec planned_network = stale_network_planning_
                                         ? cluster().network().base_spec()
                                         : cluster().network().spec();
  Plan copy = plan;
  dispatch_plan(request.id, std::move(copy), std::move(planned_network), start, record,
                std::move(done), std::move(on_failed));
}

double ExecutionEngine::estimate_batch_span(const dnn::DnnGraph& model, QosClass qos,
                                            double deadline_s, int batch, int queued_behind) {
  Plan plan = plan_batch(model, qos, deadline_s, batch, queued_behind,
                         /*network_out=*/nullptr);
  if (plan.empty()) return 0.0;
  return plan.phases.total() + plan.predicted_latency_s;
}

std::uint64_t ExecutionEngine::execute_group(const std::vector<RequestSpec>& specs,
                                             const std::vector<RequestRecord*>& records,
                                             int queued_behind, std::function<void()> done,
                                             std::function<void()> on_failed) {
  if (specs.empty() || specs.size() != records.size()) {
    throw std::invalid_argument("execute_group: specs and records must align");
  }
  double tightest_deadline = 0.0;
  for (const RequestSpec& spec : specs) {
    if (spec.model == nullptr) throw std::invalid_argument("request without model");
    if (spec.model != specs.front().model) {
      throw std::invalid_argument("execute_group: members must share one model");
    }
    if (spec.deadline_s > 0.0 &&
        (tightest_deadline <= 0.0 || spec.deadline_s < tightest_deadline)) {
      tightest_deadline = spec.deadline_s;
    }
  }
  const int n = static_cast<int>(specs.size());
  in_flight_ += n;
  net::NetworkSpec planned_network;
  Plan plan = plan_batch(*specs.front().model, specs.front().qos, tightest_deadline, n,
                         queued_behind, &planned_network);
  const double start = cluster().simulator().now() + plan.phases.total();
  for (RequestRecord* record : records) {
    record->strategy = plan.strategy;
    record->mode = plan.global_mode;
    record->nodes_used = plan.nodes_used;
    record->dispatch_s = start;
  }
  if (plan.empty()) {
    HIDP_LOG(kWarn, "engine") << "empty plan for group led by request " << specs.front().id;
    for (RequestRecord* record : records) {
      record->finish_s = start;
      finalize_record(*record);
    }
    in_flight_ -= n;
    done();
    return 0;
  }
  const std::uint64_t group = next_group_id_++;
  auto run = std::make_shared<RequestRun>();
  run->plan = std::move(plan);
  run->planned_network = std::move(planned_network);
  run->record = records.front();
  run->request_id = specs.front().id;
  run->member_specs = specs;
  run->member_records = records;
  run->group = group;
  run->done = std::move(done);
  run->on_failed = std::move(on_failed);
  groups_.emplace(group, run);
  launch_run(run, start);
  return group;
}

bool ExecutionEngine::try_join(std::uint64_t group, const RequestSpec& spec,
                               RequestRecord& record, int queued_behind) {
  auto it = groups_.find(group);
  if (it == groups_.end()) return false;
  std::shared_ptr<RequestRun> old_run = it->second;
  if (old_run->failed || old_run->superseded) return false;
  if (spec.model == nullptr) throw std::invalid_argument("request without model");
  if (spec.model != old_run->member_specs.front().model) return false;

  std::vector<RequestSpec> specs = old_run->member_specs;
  specs.push_back(spec);
  double tightest_deadline = 0.0;
  for (const RequestSpec& member : specs) {
    if (member.deadline_s > 0.0 &&
        (tightest_deadline <= 0.0 || member.deadline_s < tightest_deadline)) {
      tightest_deadline = member.deadline_s;
    }
  }
  ++in_flight_;
  net::NetworkSpec planned_network;
  Plan plan = plan_batch(*specs.front().model, specs.front().qos, tightest_deadline,
                         static_cast<int>(specs.size()), queued_behind, &planned_network);
  if (plan.empty()) {
    // Joining must never regress the existing members: keep the old run.
    --in_flight_;
    return false;
  }
  // Supersede the old run: its FSM phases are still running, so no task has
  // started and nothing is outstanding — the pending start event no-ops.
  old_run->superseded = true;
  unregister(old_run.get());
  std::function<void()> done = std::move(old_run->done);
  std::function<void()> on_failed = std::move(old_run->on_failed);
  old_run->done = nullptr;
  old_run->on_failed = nullptr;

  std::vector<RequestRecord*> records = old_run->member_records;
  records.push_back(&record);
  const double start = cluster().simulator().now() + plan.phases.total();
  for (RequestRecord* member : records) {
    member->strategy = plan.strategy;
    member->mode = plan.global_mode;
    member->nodes_used = plan.nodes_used;
    member->dispatch_s = start;
  }
  auto run = std::make_shared<RequestRun>();
  run->plan = std::move(plan);
  run->planned_network = std::move(planned_network);
  run->record = records.front();
  run->request_id = specs.front().id;
  run->member_specs = std::move(specs);
  run->member_records = std::move(records);
  run->group = group;
  run->done = std::move(done);
  run->on_failed = std::move(on_failed);
  it->second = run;
  launch_run(run, start);
  return true;
}

void ExecutionEngine::record_trace(const TaskTrace& trace) {
  if (traces_.size() < trace_capacity_) traces_.push_back(trace);
}

void ExecutionEngine::unregister(const RequestRun* run) {
  for (auto it = active_.begin(); it != active_.end(); ++it) {
    if (it->get() == run) {
      active_.erase(it);
      return;
    }
  }
}

void ExecutionEngine::fail_runs_on(std::size_t node) {
  if (active_.empty()) return;
  // Collect first: failure callbacks may replan, mutating active_.
  std::vector<std::shared_ptr<RequestRun>> doomed;
  for (const auto& run : active_) {
    if (!run->failed && run->touches(node)) doomed.push_back(run);
  }
  for (const auto& run : doomed) fail_run(run);
}

void ExecutionEngine::fail_runs_on_link(std::size_t a, std::size_t b) {
  if (active_.empty()) return;
  // In-flight transfers on the dying link were aborted by the network
  // before this observer fired; their runs are failed already. This sweep
  // catches runs whose doomed transfer has not been submitted yet.
  std::vector<std::shared_ptr<RequestRun>> doomed;
  for (const auto& run : active_) {
    if (!run->failed && run->touches_link(a, b)) doomed.push_back(run);
  }
  for (const auto& run : doomed) fail_run(run);
}

void ExecutionEngine::set_transfer_timeout_factor(double factor) {
  if (factor != 0.0 && factor <= 1.0) {
    throw std::invalid_argument(
        "ExecutionEngine::set_transfer_timeout_factor: factor must be > 1 (or 0 = off)");
  }
  transfer_timeout_factor_ = factor;
}

void ExecutionEngine::fail_run(const std::shared_ptr<RequestRun>& run) {
  run->failed = true;
  const double now = cluster().simulator().now();
  // Preemptible reservations: release the unexecuted remainder of every
  // compute slot this run holds, at the failure instant — retries and
  // unrelated requests no longer queue behind dead work until its scheduled
  // end. The baked completion events still fire and see `failed`.
  for (const RequestRun::ComputeJob& job : run->compute_jobs) {
    cluster().processor(job.node, job.proc).cancel(job.job, now);
  }
  double flops = 0.0;
  for (std::size_t i = 0; i < run->plan.tasks.size(); ++i) {
    if (run->finished[i]) flops += run->plan.tasks[i].flops;  // partial work
  }
  if (run->member_records.empty()) {
    RequestRecord& record = *run->record;
    record.outcome = RequestOutcome::kFailed;
    record.finish_s = now;
    record.flops = flops;
    --in_flight_;
  } else {
    // The whole group fails together; partial work is attributed evenly.
    const double share = flops / static_cast<double>(run->member_records.size());
    for (RequestRecord* record : run->member_records) {
      record->outcome = RequestOutcome::kFailed;
      record->finish_s = now;
      record->flops = share;
    }
    in_flight_ -= static_cast<int>(run->member_records.size());
    groups_.erase(run->group);
  }
  unregister(run.get());
  // Exactly one of on_failed / done fires; clear both against re-entry.
  std::function<void()> callback =
      run->on_failed ? std::move(run->on_failed) : std::move(run->done);
  run->on_failed = nullptr;
  run->done = nullptr;
  if (callback) callback();
}

void ExecutionEngine::dispatch_plan(int request_id, Plan&& plan,
                                    net::NetworkSpec&& planned_network, double start_s,
                                    RequestRecord& record, std::function<void()> done,
                                    std::function<void()> on_failed) {
  auto run = std::make_shared<RequestRun>();
  run->plan = std::move(plan);
  run->planned_network = std::move(planned_network);
  run->record = &record;
  run->request_id = request_id;
  run->done = std::move(done);
  run->on_failed = std::move(on_failed);
  launch_run(run, start_s);
}

void ExecutionEngine::launch_run(const std::shared_ptr<RequestRun>& run, double start_s) {
  const std::size_t n = run->plan.tasks.size();
  run->pending_deps.resize(n, 0);
  run->dependents.resize(n);
  run->finished.assign(n, 0);
  run->remaining = static_cast<int>(n);
  for (std::size_t i = 0; i < n; ++i) {
    run->pending_deps[i] = static_cast<int>(run->plan.tasks[i].deps.size());
    for (int d : run->plan.tasks[i].deps) {
      run->dependents[static_cast<std::size_t>(d)].push_back(static_cast<int>(i));
    }
  }
  const std::size_t want = std::min(traces_.size() + n, trace_capacity_);
  if (want > traces_.capacity()) {
    // Grow geometrically: reserving the exact size each dispatch would turn
    // every subsequent request into a full reallocate-and-copy.
    traces_.reserve(std::max(want, traces_.capacity() * 2));
  }
  active_.push_back(run);

  cluster().simulator().schedule_at(start_s, [this, run] {
    if (run->superseded) return;  // a try_join replanned this group
    // The FSM-phase window closes here: once tasks start executing, the
    // group can no longer absorb joins.
    if (run->group != 0) groups_.erase(run->group);
    for (std::size_t i = 0; i < run->plan.tasks.size(); ++i) {
      if (run->failed) return;
      if (run->pending_deps[i] == 0) start_task(run, static_cast<int>(i));
    }
  });
}

void ExecutionEngine::task_done(const std::shared_ptr<RequestRun>& run, int index) {
  if (run->failed) return;
  run->finished[static_cast<std::size_t>(index)] = 1;
  for (int dep : run->dependents[static_cast<std::size_t>(index)]) {
    if (--run->pending_deps[static_cast<std::size_t>(dep)] == 0) start_task(run, dep);
  }
  if (--run->remaining != 0) return;
  const double finish = cluster().simulator().now();
  double flops = 0.0;
  for (const PlanTask& t : run->plan.tasks) flops += t.flops;
  if (run->member_records.empty()) {
    run->record->finish_s = finish;
    run->record->flops = flops;
    finalize_record(*run->record);
    --in_flight_;
  } else {
    // One planned run fans out N terminal outcomes: every member is
    // stamped individually (its own deadline decides completed vs missed),
    // the executed FLOPs are shared evenly.
    const double share = flops / static_cast<double>(run->member_records.size());
    for (RequestRecord* record : run->member_records) {
      record->finish_s = finish;
      record->flops = share;
      finalize_record(*record);
    }
    in_flight_ -= static_cast<int>(run->member_records.size());
    groups_.erase(run->group);
  }
  unregister(run.get());
  run->on_failed = nullptr;
  if (run->done) run->done();
}

void ExecutionEngine::start_task(const std::shared_ptr<RequestRun>& run, int index) {
  if (run->failed) return;
  const PlanTask& task = run->plan.tasks[static_cast<std::size_t>(index)];
  // A node named by the plan may have died since planning (stale plan, or
  // churn during the FSM phase delay): fail the request now instead of
  // executing on a ghost (compute) or throwing (transfer).
  const auto& available = cluster().network().availability();
  const bool task_nodes_up = task.kind == PlanTask::Kind::kTransfer
                                 ? available[task.from] && available[task.to]
                                 : available[task.node];
  if (!task_nodes_up) {
    fail_run(run);
    return;
  }
  // Completion callbacks look the task up by index: the plan is immutable
  // once launched, and a PlanTask copy would copy its deps vector too.
  const double now = cluster().simulator().now();
  switch (task.kind) {
    case PlanTask::Kind::kCompute: {
      sim::Resource& proc = cluster().processor(task.node, task.proc);
      const double begin = proc.next_free(now);
      const std::uint64_t job =
          proc.submit(now, task.seconds, [this, run, index, begin](sim::Time end) {
            if (run->failed) return;
            const PlanTask& t = run->plan.tasks[static_cast<std::size_t>(index)];
            record_trace(TaskTrace{run->request_id, t.kind, t.node, t.proc, begin, end,
                                   t.flops, 0, run->batch()});
            task_done(run, index);
          });
      run->compute_jobs.push_back(RequestRun::ComputeJob{task.node, task.proc, job});
      break;
    }
    case PlanTask::Kind::kTransfer: {
      // The link may have partitioned since planning: fail the request
      // into the replan path instead of throwing out of the DES.
      if (task.from != task.to && !cluster().network().spec().link_up(task.from, task.to)) {
        fail_run(run);
        return;
      }
      double timeout_s = 0.0;
      if (transfer_timeout_factor_ > 0.0 && task.from != task.to) {
        const double expected =
            run->planned_network.link(task.from, task.to).transfer_s(task.bytes);
        if (std::isfinite(expected)) timeout_s = expected * transfer_timeout_factor_;
        // The link degraded past the watchdog budget since planning: the
        // transfer would only time out, holding both radios (and fencing
        // every transfer queued behind them) until it does. Fail the run
        // into the replan path now.
        if (timeout_s > 0.0 &&
            cluster().network().spec().link(task.from, task.to).transfer_s(task.bytes) >
                timeout_s) {
          fail_run(run);
          return;
        }
      }
      cluster().network().transfer(
          task.from, task.to, task.bytes, now,
          [this, run, index, now](sim::Time end) {
            if (run->failed) return;
            const PlanTask& t = run->plan.tasks[static_cast<std::size_t>(index)];
            record_trace(TaskTrace{run->request_id, t.kind, t.from, 0, now, end, 0.0, t.bytes,
                                   run->batch()});
            task_done(run, index);
          },
          [this, run](const net::TransferAbort&) {
            // The abort replaces this transfer's delivery callback: fail
            // the run (unless churn got there first).
            if (!run->failed) fail_run(run);
          },
          timeout_s);
      break;
    }
    case PlanTask::Kind::kLocalExchange: {
      const double duration = cluster().nodes()[task.node].local_exchange_s(task.bytes);
      cluster().simulator().schedule_in(duration, [this, run, index, now, duration] {
        if (run->failed) return;
        const PlanTask& t = run->plan.tasks[static_cast<std::size_t>(index)];
        record_trace(TaskTrace{run->request_id, t.kind, t.node, 0, now, now + duration, 0.0,
                               t.bytes, run->batch()});
        task_done(run, index);
      });
      break;
    }
  }
}

}  // namespace hidp::runtime
