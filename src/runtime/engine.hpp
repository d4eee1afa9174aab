// Cluster execution backend: replays strategy plans on the DES cluster.
//
// The online serving surface is runtime::InferenceService (service.hpp),
// which owns the request lifecycle — admission, QoS deadlines, load
// shedding, pluggable arrival sources. ExecutionEngine is the execution
// backend behind it: `execute()` plans one admitted request against live
// cluster state (availability, queue pressure — what the paper's Analyze
// state gathers) and dispatches its task DAG onto processor and radio
// resources. Contention between concurrent requests is resolved by the
// FIFO resources, which is exactly how pipelined/parallel execution
// overlaps in the real cluster. The batch `run()` entry point predates the
// service and is kept as a thin closed-world shim (and as the reference
// the service's equivalence tests compare against).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "dnn/graph.hpp"
#include "runtime/cluster.hpp"
#include "runtime/plan.hpp"

namespace hidp::runtime {

/// QoS class of a request. Admission control dispatches higher classes
/// first and sheds lower classes first under overload.
enum class QosClass { kBestEffort = 0, kStandard = 1, kInteractive = 2 };

/// Number of QoS classes (per-class stat arrays index by the enum value).
inline constexpr std::size_t kQosClassCount = 3;

std::string_view qos_class_name(QosClass qos) noexcept;

/// One DNN inference request (paper: requests arrive randomly at a node).
/// `deadline_s` is an absolute completion deadline on the simulation clock;
/// <= 0 means none.
struct RequestSpec {
  int id = 0;
  const dnn::DnnGraph* model = nullptr;
  double arrival_s = 0.0;
  QosClass qos = QosClass::kStandard;
  double deadline_s = 0.0;
};

/// Batch-era name for RequestSpec, kept while callers migrate to the
/// InferenceService lifecycle.
using InferenceRequest = RequestSpec;

/// What the strategy sees when planning (paper's Analyze state output).
struct ClusterSnapshot {
  const std::vector<platform::NodeModel>* nodes = nullptr;
  net::NetworkSpec network;
  std::vector<bool> available;
  std::size_t leader = 0;
  int queue_depth = 0;       ///< requests arrived but not finished
  double now_s = 0.0;
};

/// One planning situation handed to a strategy: the model, the Analyze-state
/// cluster snapshot, and the request's QoS context (class + deadline) so
/// deadline-aware strategies can trade latency against resource footprint.
struct PlanRequest {
  const dnn::DnnGraph* model = nullptr;
  ClusterSnapshot snapshot;
  QosClass qos = QosClass::kStandard;
  double deadline_s = 0.0;  ///< absolute; <= 0 = none
  /// Requests coalesced into this planned execution (continuous batching).
  /// Per-stage FLOPs/bytes are priced at this batch size; 1 = unbatched.
  int batch = 1;
  /// What the plan optimises. kLatency is the per-request default; kPipeline
  /// asks for a stage-resident steady-state pipeline (minimal period) shared
  /// by a sustained same-model stream. Strategies that do not support
  /// pipeline planning (IStrategy::supports_pipeline() == false) are never
  /// asked for kPipeline plans.
  enum class PlanKind { kLatency = 0, kPipeline = 1 };
  PlanKind kind = PlanKind::kLatency;

  const dnn::DnnGraph& graph() const noexcept { return *model; }
};

/// Outcome of one planning round.
struct PlanResult {
  Plan plan;
  bool cache_hit = false;  ///< served from a cross-request plan cache
};

/// Delta re-planning counters: how churn/DVFS/link events were absorbed by
/// in-place plan repair instead of cold replanning (see
/// core::CachingStrategyBase). All-zero for strategies without a repair
/// path.
struct PlannerDeltaStats {
  std::uint64_t repaired_plans = 0;   ///< fresh plans off a repaired cost model
  std::uint64_t cold_replans = 0;     ///< fresh plans that paid a full rebuild
  std::uint64_t partial_repriced_rows = 0;  ///< memo rows per-node repriced
  std::uint64_t scoped_invalidations = 0;   ///< entries dropped by event scope
  std::uint64_t rekeyed_entries = 0;        ///< entries surviving node-down re-key
};

/// Strategy interface implemented by HiDP and the baselines.
class IStrategy {
 public:
  virtual ~IStrategy() = default;
  virtual std::string name() const = 0;
  virtual PlanResult plan(const PlanRequest& request) = 0;
  /// True when the strategy can answer PlanKind::kPipeline requests.
  /// Callers must check before asking — the default planning paths of the
  /// baselines know nothing about periods. Default: no.
  virtual bool supports_pipeline() const { return false; }
  /// Churn notification: the owning service forwards effective cluster
  /// node-state changes (see Cluster::add_observer) so strategies can
  /// invalidate derived state eagerly instead of detecting drift at the
  /// next plan() call. Default: ignore.
  virtual void on_node_event(const NodeEvent& event) { (void)event; }
  /// Delta re-planning counters. Default: none.
  virtual PlannerDeltaStats planner_stats() const { return {}; }
};

/// Terminal state of a request's lifecycle.
enum class RequestOutcome {
  kCompleted,     ///< executed, finished (within its deadline if it had one)
  kRejected,      ///< admission refused on arrival (queue caps)
  kDropped,       ///< shed from the pending queue / stale deadline at dispatch
  kDeadlineMiss,  ///< executed, but finished past its deadline
  kFailed,        ///< node churn killed it mid-task and retries ran out
};

std::string_view request_outcome_name(RequestOutcome outcome) noexcept;

/// Completion record for one request.
struct RequestRecord {
  int id = 0;
  std::string model;
  std::string strategy;
  partition::PartitionMode mode = partition::PartitionMode::kNone;
  QosClass qos = QosClass::kStandard;
  double deadline_s = 0.0;  ///< absolute; <= 0 = none
  RequestOutcome outcome = RequestOutcome::kCompleted;
  double arrival_s = 0.0;
  double dispatch_s = 0.0;  ///< after FSM phases
  double finish_s = 0.0;
  double flops = 0.0;       ///< executed FLOPs (incl. halo recompute)
  int nodes_used = 0;
  double latency_s() const noexcept { return finish_s - arrival_s; }
  /// The request actually ran on the cluster (completed or missed its
  /// deadline, as opposed to being rejected/dropped without execution).
  bool executed() const noexcept {
    return outcome == RequestOutcome::kCompleted || outcome == RequestOutcome::kDeadlineMiss;
  }
};

/// Execution trace of one task (for GFLOPS timelines and invariants).
struct TaskTrace {
  int request = 0;  ///< lead request id of the run (group runs share tasks)
  PlanTask::Kind kind = PlanTask::Kind::kCompute;
  std::size_t node = 0;
  std::size_t proc = 0;
  double start_s = 0.0;
  double end_s = 0.0;
  double flops = 0.0;
  std::int64_t bytes = 0;
  int batch = 1;  ///< requests sharing this task (batched group runs)
};

class ExecutionEngine {
 public:
  ExecutionEngine(Cluster& cluster, IStrategy& strategy, std::size_t leader = 0);

  /// Engine scoped to a node-subset shard view: planning sees only member
  /// nodes as available, and plans are validated to stay inside the shard.
  /// A whole-cluster view is bit-identical to the unscoped constructor.
  ExecutionEngine(const ClusterView& scope, IStrategy& strategy, std::size_t leader);

  ExecutionEngine(const ExecutionEngine&) = delete;
  ExecutionEngine& operator=(const ExecutionEngine&) = delete;
  ~ExecutionEngine();

  /// Closed-world batch shim: schedules every request's arrival up front,
  /// runs all to completion, returns per-request records sorted by request
  /// id. No admission control, no deadline enforcement beyond outcome
  /// stamping. New callers should drive an InferenceService instead.
  std::vector<RequestRecord> run(const std::vector<RequestSpec>& requests);

  /// Online entry point used by InferenceService: plans `request` against
  /// the cluster state at the current simulation time and dispatches its
  /// task DAG. `queued_behind` is the caller's pending-queue depth, added to
  /// the queue pressure the strategy sees. Exactly one of the two callbacks
  /// fires, once: `done` at the request's final completion (immediately for
  /// empty plans), after `record` has its outcome stamped; `on_failed` at
  /// the instant node churn kills the request mid-task (a member node with
  /// unfinished work of this plan went down — `record` is stamped kFailed
  /// with its partial FLOPs first), so the owner can replan on surviving
  /// nodes or finalise the failure. With no `on_failed`, failures fire
  /// `done` with the kFailed record.
  void execute(const RequestSpec& request, RequestRecord& record, int queued_behind,
               std::function<void()> done, std::function<void()> on_failed = nullptr);

  /// Continuous batching: plans and dispatches `specs` (same model, caller-
  /// vetted compatibility) as ONE batched run whose cost model prices the
  /// group's batch size, fanning out to `records[i]` per member — finish,
  /// FLOPs share (total / N) and the per-member deadline outcome are stamped
  /// individually. `done` / `on_failed` fire once for the whole group with
  /// the same semantics as execute(): a mid-run node/link failure stamps
  /// every member kFailed (partial FLOPs shared) and fires `on_failed` so
  /// the owner can re-form smaller groups. Returns a group id usable with
  /// try_join() while the run sits in its FSM-phase window, or 0 when the
  /// run finished synchronously (empty plan — `done` already fired).
  std::uint64_t execute_group(const std::vector<RequestSpec>& specs,
                              const std::vector<RequestRecord*>& records, int queued_behind,
                              std::function<void()> done,
                              std::function<void()> on_failed = nullptr);

  /// Admits one more member into a dispatched-but-not-started group ("the
  /// plan allows" = no task has begun executing, i.e. the group is still in
  /// its FSM-phase window). The group replans at the current instant with
  /// the larger batch (typically a plan-cache hit on the new batch bucket)
  /// and every member's dispatch stamp moves to the new start. Returns
  /// false — membership unchanged — when the group is unknown, already
  /// started/failed, the model differs, or the replan came back empty.
  bool try_join(std::uint64_t group, const RequestSpec& spec, RequestRecord& record,
                int queued_behind);

  /// True while `group` can still accept try_join() members.
  bool group_joinable(std::uint64_t group) const noexcept {
    return groups_.find(group) != groups_.end();
  }

  /// Plans (or replays from the plan cache) the steady-state pipeline plan
  /// for `model` against current availability. Returns an empty plan when
  /// the strategy does not support pipeline planning or no feasible
  /// pipeline exists. The returned plan carries its period (Plan::period_s)
  /// and the planning phase charges of THIS call — the stream owner charges
  /// them to the request that triggered the (re)plan and zeroes them for
  /// followers riding the held plan.
  Plan plan_pipeline(const dnn::DnnGraph& model, QosClass qos, int queued_behind);

  /// Pipelined dispatch: executes `request` under a pre-built stage-resident
  /// plan shared by a stream of same-model requests, skipping per-request
  /// planning. Stage-level occupancy emerges from the FIFO resources: the
  /// moment request i's stage-k reservation frees, request i+1's stage-k
  /// task (unblocked by its own stage k-1 completion) takes the node, while
  /// in-order per-request handoff is guaranteed by the plan's dependency
  /// edges. Churn/link-fault semantics are identical to execute(): a node
  /// death fails only the requests with unfinished work on it, firing
  /// `on_failed` so the owner can replan the pipeline on survivors.
  void execute_planned(const RequestSpec& request, const Plan& plan, RequestRecord& record,
                       std::function<void()> done, std::function<void()> on_failed = nullptr);

  /// Builds the PlanRequest the inline planning path would hand the strategy
  /// for one request that has NOT yet been counted into the engine's
  /// in-flight total (queue pressure = in_flight() + queued_behind). This is
  /// the front half of execute() split out for asynchronous planning: a
  /// PlannerPool ships the request to a worker thread and the resulting plan
  /// comes back through execute_planned(). The snapshot's `nodes` pointer
  /// still references the live cluster vector — an asynchronous caller must
  /// deep-copy the node models before crossing a thread boundary (the
  /// driver thread mutates them on DVFS events).
  PlanRequest make_plan_request(const dnn::DnnGraph& model, QosClass qos, double deadline_s,
                                int queued_behind,
                                PlanRequest::PlanKind kind = PlanRequest::PlanKind::kLatency);

  /// Moves the engine's leader to another scope member (leader re-election
  /// after churn kills the current one). Plans cached under the old leader
  /// simply stop matching; in-flight runs are unaffected. Throws when
  /// `leader` is outside the engine's scope.
  void set_leader(std::size_t leader);

  /// Prices `model` at `batch` through the strategy (typically a plan-cache
  /// hit on the batch bucket) and returns the planned completion span —
  /// planning phases plus predicted execution latency — or 0 when the plan
  /// came back empty. Batch-aware deadline projection uses this in place of
  /// the single-request execution EWMA.
  double estimate_batch_span(const dnn::DnnGraph& model, QosClass qos, double deadline_s,
                             int batch, int queued_behind);

  const std::vector<TaskTrace>& traces() const noexcept { return traces_; }
  double makespan_s() const noexcept { return makespan_s_; }

  /// Requests planned-and-dispatched but not yet finished.
  int in_flight() const noexcept { return in_flight_; }
  std::size_t leader() const noexcept { return leader_; }
  Cluster& cluster() noexcept { return scope_.cluster(); }
  const ClusterView& scope() const noexcept { return scope_; }
  IStrategy& strategy() noexcept { return *strategy_; }

  /// Caps the retained task traces (long streaming benches run millions of
  /// tasks; unbounded growth dominated their memory). Tracing stops once
  /// the cap is reached; 0 disables trace collection entirely.
  void set_trace_capacity(std::size_t max_traces) noexcept { trace_capacity_ = max_traces; }
  std::size_t trace_capacity() const noexcept { return trace_capacity_; }

  /// Rescopes the engine to a new shard view over the same cluster (fleet
  /// membership changes; ServiceFleet::reassign drives this). The leader
  /// must stay inside the new scope; in-flight requests keep running under
  /// the plans they were dispatched with.
  void rescope(const ClusterView& scope);

  /// Per-transfer straggler watchdog: each dispatched transfer is given
  /// `factor` x its plan-time expected duration before the network aborts
  /// it (failing the run into the on_failed replan path). Detects silently
  /// degraded links that would otherwise ride a crawling transfer to the
  /// deadline. 0 (default) disables the watchdog — runs are then
  /// bit-identical to pre-watchdog behaviour. Factors <= 1 would expire
  /// healthy transfers; throw.
  void set_transfer_timeout_factor(double factor);
  double transfer_timeout_factor() const noexcept { return transfer_timeout_factor_; }

  /// Plan against the construction-time NetworkSpec instead of the live
  /// (possibly degraded) one — the "stale betas" contrast configuration of
  /// the degradation bench. Execution still runs on the live network.
  void set_stale_network_planning(bool stale) noexcept { stale_network_planning_ = stale; }
  bool stale_network_planning() const noexcept { return stale_network_planning_; }

 private:
  struct RequestRun;

  void dispatch_plan(int request_id, Plan&& plan, net::NetworkSpec&& planned_network,
                     double start_s, RequestRecord& record, std::function<void()> done,
                     std::function<void()> on_failed);
  /// Shared planning front half of execute()/execute_group(): snapshot,
  /// strategy->plan at `batch`, validation. The snapshot's network is moved
  /// into `network_out` (the watchdog's expectation baseline).
  Plan plan_batch(const dnn::DnnGraph& model, QosClass qos, double deadline_s, int batch,
                  int queued_behind, net::NetworkSpec* network_out,
                  PlanRequest::PlanKind kind = PlanRequest::PlanKind::kLatency);
  /// Builds the dep graph for `run` and schedules its start — the shared
  /// back half of dispatch_plan() and the group dispatch path.
  void launch_run(const std::shared_ptr<RequestRun>& run, double start_s);
  /// The event-driven topological executor: start_task issues task `index`
  /// onto its processor, radio pair or local exchange; its completion
  /// callback calls task_done, which starts the dependents it unblocks and
  /// finishes the run after its last task.
  void start_task(const std::shared_ptr<RequestRun>& run, int index);
  void task_done(const std::shared_ptr<RequestRun>& run, int index);
  void record_trace(const TaskTrace& trace);
  /// Stamps the terminal outcome once `finish_s` is known.
  static void finalize_record(RequestRecord& record);
  /// Shard containment: every task of a scoped engine's plan must run on a
  /// member node (throws std::runtime_error otherwise).
  void check_scope(const Plan& plan) const;
  /// Churn reaction: fails every active run with unfinished work touching
  /// `node` at the current instant (stamps kFailed, fires on_failed/done).
  void fail_runs_on(std::size_t node);
  /// Partition reaction: fails every active run with a *pending* transfer
  /// crossing the (a, b) link. In-flight transfers on that link were
  /// already aborted (and their runs failed) by the network itself.
  void fail_runs_on_link(std::size_t a, std::size_t b);
  /// Fails one active run (must still be registered in active_).
  void fail_run(const std::shared_ptr<RequestRun>& run);
  void unregister(const RequestRun* run);

  ClusterView scope_;
  IStrategy* strategy_;
  std::size_t leader_;
  double transfer_timeout_factor_ = 0.0;  ///< 0 = no per-transfer watchdog
  bool stale_network_planning_ = false;
  int in_flight_ = 0;
  double makespan_s_ = 0.0;
  std::size_t trace_capacity_ = static_cast<std::size_t>(-1);
  std::vector<TaskTrace> traces_;
  std::vector<std::shared_ptr<RequestRun>> active_;  ///< dispatched, unfinished
  /// Joinable group runs (dispatched, FSM phases still running). Entries
  /// leave on start, completion or failure; try_join on an absent id is a
  /// clean refusal.
  std::unordered_map<std::uint64_t, std::shared_ptr<RequestRun>> groups_;
  std::uint64_t next_group_id_ = 1;
  std::size_t observer_id_ = 0;  ///< cluster node-event subscription
};

}  // namespace hidp::runtime
