// Online serving surface: the request lifecycle in front of the execution
// engine.
//
// The paper's scheduler is an online system — requests arrive randomly at
// a node and the leader's FSM plans each one against live cluster state.
// InferenceService is that serving loop: requests enter via submit() (or a
// pluggable ArrivalProcess source), pass admission control (dispatch
// concurrency + pending-queue caps with a QoS-aware load-shedding policy),
// and leave with an explicit terminal state — Completed, Rejected, Dropped
// or DeadlineMiss — recorded per request. ExecutionEngine is the DES
// execution backend behind the service; with unlimited admission and no
// deadlines the service reproduces the closed-world batch
// ExecutionEngine::run() bit-identically (the equivalence tests hold it to
// that), while under overload the bounded queue plus shedding keep
// throughput sustained where the batch path's latency diverges.
//
// A service can also run as one shard of a runtime::ServiceFleet
// (fleet.hpp): the fleet scopes it to a ClusterView, taps its terminal
// outcomes, and migrates pending requests between shards through
// steal_pending()/adopt().
#pragma once

#include <array>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <unordered_map>
#include <vector>

#include "runtime/engine.hpp"

namespace hidp::runtime {

/// Pluggable request source. The service polls `next()` until it returns
/// nullopt — at startup and again after every terminal request outcome —
/// so open-loop sources (replayed traces, Poisson processes) can hand over
/// their whole stream up front, while closed-loop sources (client pools)
/// release the next request only when a completion frees a client. Handing
/// over a whole stream is cheap: arrivals in time order land in the
/// simulator's monotone lane (O(1) per push and pop), not in the heap that
/// orders in-flight work.
class ArrivalProcess {
 public:
  virtual ~ArrivalProcess() = default;

  /// Next request to issue, with arrival_s >= now_s, or nullopt when the
  /// source currently has nothing more.
  virtual std::optional<RequestSpec> next(double now_s) = 0;

  /// Terminal-outcome feedback (completed, rejected, dropped or
  /// deadline-miss; inspect `record.outcome`). Closed-loop sources use it
  /// to schedule their clients' next requests. Default: ignore.
  virtual void on_complete(const RequestRecord& record, double now_s);
};

/// What to do with an arrival when the pending queue is full.
enum class LoadShedPolicy {
  /// Reject the arriving request — unless it outranks the lowest-QoS
  /// pending request, which is then dropped in its favour.
  kRejectNewest,
  /// Drop the oldest pending request of the lowest QoS class to make room,
  /// provided the arrival's class is at least as high; reject otherwise.
  kDropOldest,
};

struct ServiceOptions {
  /// Requests planned-and-dispatched concurrently; arrivals beyond this
  /// wait in the pending queue. 0 = unlimited (dispatch on arrival — the
  /// batch-equivalent configuration; the pending queue then never fills).
  std::size_t max_in_flight = 0;
  /// Pending-queue cap; arrivals beyond it are shed per `shed_policy`.
  /// 0 = unlimited. Only meaningful with a finite `max_in_flight`.
  std::size_t max_pending = 0;
  LoadShedPolicy shed_policy = LoadShedPolicy::kRejectNewest;
  /// Drop (rather than dispatch) pending requests whose deadline already
  /// passed while they queued — the work could only ever miss.
  bool drop_expired_pending = false;
  /// Replan attempts after node churn kills a request mid-task. Each retry
  /// replans against the surviving nodes at the failure instant; once
  /// exhausted (or while the shard has no live leader) the request turns
  /// terminal RequestOutcome::kFailed — unless a fleet failure hook
  /// evacuates it to a sibling shard first.
  std::size_t max_retries = 1;
  /// Cost-aware steal capacity for unlimited-admission shards
  /// (max_in_flight == 0): while the estimated backlog cost — in-system
  /// requests x the EWMA of recent execution latencies — stays below this
  /// many seconds, the shard advertises capacity to the fleet's work
  /// stealing. 0 (default) keeps the seed behaviour: unlimited-admission
  /// shards never steal. Ignored under bounded admission, where free
  /// dispatch slots are the capacity signal.
  double steal_backlog_s = 0.0;
  /// Per-transfer watchdog: a transfer that has not delivered within
  /// (planned transfer time x this factor) aborts, failing the run into the
  /// same bounded-retry replan path as churn. Detects links degraded
  /// *after* planning — the replan prices the degraded spec and routes
  /// around it. 0 (default) disables the watchdog; values in (0, 1] would
  /// time out healthy transfers, so the engine rejects them.
  double transfer_timeout_factor = 0.0;
  /// Contrast knob for the degradation bench: plan every request against
  /// the construction-time NetworkSpec and ignore link events, as if the
  /// service never noticed degradation. Never enable outside experiments.
  bool stale_network_planning = false;
  /// Continuous batching: coalesce up to this many same-(model, QoS)
  /// pending requests into one planned group, executed as a single run with
  /// per-request terminal attribution. 1 (default) keeps the unbatched
  /// request-per-run path bit-identical to the seed. With max_batch > 1,
  /// `max_in_flight` bounds concurrent *runs* (groups), not requests, and
  /// arrivals landing while a same-model group still sits in its FSM-phase
  /// window join it in place of dispatching alone.
  std::size_t max_batch = 1;
  /// How long an under-full group's head request may wait for same-model
  /// peers before dispatching anyway (a DES timer re-opens dispatch at the
  /// hold expiry). 0 = dispatch immediately with whatever is pending.
  /// Meaningful only with max_batch > 1.
  double max_wait_s = 0.0;
  /// Adaptive hold window: scale the batching hold with an EWMA of the
  /// observed per-model arrival gap — hold only as long as the missing
  /// group members are expected to take to arrive, with `max_wait_s` as
  /// the upper bound. A fast stream fills its window; a trickle dispatches
  /// instead of stalling its head for the full fixed knob. false (default)
  /// keeps the fixed `max_wait_s` hold — the seed behaviour, bit-identical.
  bool adaptive_wait = false;
  /// Batch-aware deadline projection: price a candidate's projected group
  /// completion from the actual batched plan's estimated latency (planning
  /// phases + predicted execution at the prospective batch size, typically
  /// a plan-cache hit on the batch bucket) instead of the single-request
  /// execution EWMA. false (default) keeps the EWMA projection —
  /// bit-identical to the seed batched path.
  bool batch_aware_deadline = false;
  /// Pipelined steady-state serving: requests for the pinned stream model
  /// dispatch through one shard-held stage-resident pipeline plan (planned
  /// once, reused by every stream request until a cluster event or
  /// pin_stream() drops it) instead of per-request planning. Consecutive
  /// stream requests occupy consecutive stages — the FIFO resources give a
  /// node back to request i+1's stage the moment request i's reservation
  /// frees — so sustained throughput is set by the pipeline period, not the
  /// latency sum. Off-stream models keep the per-request (and batched)
  /// paths; strategies without pipeline support fall back entirely.
  struct PipelineMode {
    bool enabled = false;  ///< default off = seed behaviour, bit-identical
    /// The per-model-stream target. Null with enabled = true auto-pins the
    /// first model this shard dispatches (how model-affinity fleet shards
    /// become stream owners with no extra wiring); routers pin explicitly
    /// via InferenceService::pin_stream().
    const dnn::DnnGraph* stream_model = nullptr;
  };
  PipelineMode pipeline;
  /// Pipeline admission window: with pipelined serving enabled, at most this
  /// many stream requests may be in flight down the shared pipeline plan at
  /// once; further stream arrivals wait in the pending queue until a
  /// pipelined completion frees a window slot. Bounds the pile-up ahead of
  /// the pipeline's first stage when arrivals outrun the steady-state
  /// period (set it to the pipeline's stage count or a small multiple).
  /// 0 (default) = unbounded, the pre-window behaviour, bit-identical.
  std::size_t pipeline_window = 0;
  /// Leader re-election: when churn kills this shard's leader node, promote
  /// the surviving scope member with the highest aggregate peak processor
  /// rate instead of parking the shard (or surrendering its queue to fleet
  /// evacuation). The shard stays live across leader loss as long as any
  /// member survives. false (default) keeps the seed park/evacuate
  /// behaviour.
  bool leader_reelection = false;
};

/// Per-QoS-class slice of the lifecycle counters. Balances like the
/// aggregate: submitted - stolen_away + stolen_in = terminal outcomes
/// (completed + rejected + dropped + deadline_misses + failed).
struct QosClassStats {
  std::size_t submitted = 0;
  std::size_t completed = 0;
  std::size_t rejected = 0;
  std::size_t dropped = 0;
  std::size_t deadline_misses = 0;
  std::size_t failed = 0;  ///< node churn killed it; retries exhausted
  std::size_t stolen_away = 0;
  std::size_t stolen_in = 0;
};

/// Lifecycle counters of one service run. With work stealing or failover
/// evacuation, a shard's terminal counters balance as submitted -
/// stolen_away + stolen_in = completed + rejected + dropped +
/// deadline_misses + failed (migrated requests reach their terminal state
/// on the adopting shard; evacuations count as steals).
struct ServiceStats {
  std::size_t submitted = 0;
  std::size_t rejected = 0;
  std::size_t dropped = 0;
  std::size_t completed = 0;
  std::size_t deadline_misses = 0;  ///< executed but finished late
  std::size_t failed = 0;           ///< churn-killed, terminal kFailed
  std::size_t retries = 0;          ///< replans after mid-task failures
  std::size_t peak_pending = 0;
  std::size_t peak_in_flight = 0;
  std::size_t stolen_away = 0;  ///< pending requests migrated to sibling shards
  std::size_t stolen_in = 0;    ///< requests adopted from sibling shards
  // Continuous-batching counters (informational; outside the balance
  // equation — every batched request still reaches exactly one terminal).
  std::size_t groups_dispatched = 0;  ///< multi-request groups dispatched
  std::size_t batched_requests = 0;   ///< requests that rode in a group (joins incl.)
  std::size_t group_joins = 0;        ///< arrivals that joined an open group's window
  // Pipelined-serving counters (informational, outside the balance).
  std::size_t pipelined_requests = 0;  ///< dispatched through the shard's pipeline plan
  std::size_t pipeline_replans = 0;    ///< pipeline plans (re)built for the stream
  // Asynchronous-planning counters (informational, outside the balance).
  std::size_t async_plans = 0;  ///< plans requested through a PlanProvider
  std::size_t stale_plans = 0;  ///< async plans discarded: epoch moved while planning
  // Churn-resilience counters.
  std::size_t leader_reelections = 0;  ///< leaders promoted after leader death
  // Delta re-planning counters, mirrored from the strategy's
  // PlannerDeltaStats at every service state change (absolute values, not
  // increments; all-zero for strategies without a repair path).
  std::size_t repaired_plans = 0;         ///< fresh plans off a repaired cost model
  std::size_t cold_replans = 0;           ///< fresh plans paying a full rebuild
  std::size_t partial_repriced_rows = 0;  ///< cost-model rows per-node repriced
  std::array<QosClassStats, kQosClassCount> per_class;

  QosClassStats& of(QosClass qos) { return per_class[static_cast<std::size_t>(qos)]; }
  const QosClassStats& of(QosClass qos) const {
    return per_class[static_cast<std::size_t>(qos)];
  }
};

/// Ticket returned by submit(); records returned by run() carry the same id.
struct RequestHandle {
  int id = -1;
  bool valid() const noexcept { return id >= 0; }
};

/// Asynchronous planning backend (runtime::PlannerPool is the threaded
/// implementation). When a service has a provider installed, its per-request
/// dispatch path hands the strategy invocation to request_plan() instead of
/// planning inline, and continues when `deliver` fires — which MUST happen
/// on the service's driver thread (a pool computes off-thread and delivers
/// from a pump drained between DES events). `epoch` is the cluster
/// membership epoch captured at request time, echoed back through `deliver`
/// so the service can detect a plan that crossed a churn/link event and
/// re-request instead of dispatching a stale topology.
class PlanProvider {
 public:
  virtual ~PlanProvider() = default;
  virtual void request_plan(PlanRequest request, std::uint64_t epoch,
                            std::function<void(Plan plan, std::uint64_t epoch)> deliver) = 0;
  /// Cluster node-event forwarding (driver thread). Services relay the
  /// events they observe so a pooled provider can repair or invalidate its
  /// workers' planning state eagerly (delta re-planning) instead of each
  /// worker detecting drift at its next plan. Fired by every shard sharing
  /// the provider — implementations dedupe on event.epoch. Default: ignore
  /// (workers keep the drift-detection fallback).
  virtual void on_node_event(const NodeEvent& event) { (void)event; }
};

class InferenceService {
 public:
  /// Service owning its execution engine on `cluster`.
  InferenceService(Cluster& cluster, IStrategy& strategy, std::size_t leader = 0,
                   ServiceOptions options = {});
  /// Service owning its engine scoped to a shard view (fleet shards).
  InferenceService(const ClusterView& scope, IStrategy& strategy, std::size_t leader,
                   ServiceOptions options = {});
  /// Service over an existing engine (shares its traces and cluster).
  explicit InferenceService(ExecutionEngine& engine, ServiceOptions options = {});

  InferenceService(const InferenceService&) = delete;
  InferenceService& operator=(const InferenceService&) = delete;
  ~InferenceService();

  /// Registers one request; its arrival event is scheduled at
  /// `spec.arrival_s`. Throws std::invalid_argument on a null model.
  RequestHandle submit(const RequestSpec& spec);

  /// Attaches a pluggable arrival source, polled at run() start and after
  /// every terminal outcome. At most one source; pass nullptr to detach.
  void attach(ArrivalProcess* source) { source_ = source; }

  /// Drains the simulator and returns every request's record, sorted by
  /// request id (requests stolen by sibling shards are excluded — the
  /// adopting shard reports them). Can be called again after further
  /// submissions.
  std::vector<RequestRecord> run();

  const ServiceStats& stats() const noexcept { return stats_; }
  const ServiceOptions& options() const noexcept { return options_; }
  std::size_t pending() const noexcept { return pending_.size(); }
  /// Pending requests of one QoS class (fleet routing's per-class view).
  std::size_t pending_of(QosClass qos) const noexcept {
    return pending_by_class_[static_cast<std::size_t>(qos)];
  }
  std::size_t in_flight() const noexcept { return in_flight_; }
  /// Requests whose arrival event has not fired yet (submitted or adopted
  /// but not admitted). Load-aware fleet routing adds this so a burst of
  /// simultaneous arrivals does not pile onto one shard.
  std::size_t inbound() const noexcept { return inbound_; }
  double makespan_s() const noexcept { return makespan_s_; }
  const std::vector<TaskTrace>& traces() const noexcept { return engine_->traces(); }
  ExecutionEngine& engine() noexcept { return *engine_; }
  const ExecutionEngine& engine() const noexcept { return *engine_; }
  Cluster& cluster() noexcept { return engine_->cluster(); }

  // ---- fleet integration ---------------------------------------------------
  // Hooks a ServiceFleet installs on each shard. Both default to unset.

  /// Terminal-outcome tap, fired for every terminal record after the
  /// service's own ArrivalProcess was notified (the fleet forwards it to
  /// the fleet-level source).
  void set_terminal_hook(std::function<void(const RequestRecord&, double)> hook) {
    terminal_hook_ = std::move(hook);
  }
  /// Fired at the end of every arrival/completion event, once local
  /// dispatching has settled — the fleet rebalances shards here.
  void set_state_hook(std::function<void()> hook) { state_hook_ = std::move(hook); }

  /// Mid-task failure escalation. Consulted whenever node churn kills one
  /// of this shard's requests (before local retry): return true to take
  /// ownership — the fleet adopts the request on a sibling shard and this
  /// shard counts it stolen_away — or false to let the shard retry locally
  /// / finalise kFailed. `attempts` counts engine executions so far.
  void set_failure_hook(std::function<bool(const RequestSpec&, int attempts)> hook) {
    failure_hook_ = std::move(hook);
  }

  /// Extra shard-liveness veto ANDed into shard_live(). The fleet installs
  /// its FailoverPolicy death predicate here so a shard it considers dead
  /// (e.g. live membership below min_live_nodes with the leader still up)
  /// parks instead of racing the fleet's evacuation for the same queue.
  void set_liveness_hook(std::function<bool()> hook) { liveness_hook_ = std::move(hook); }

  /// Work stealing, victim side: removes and returns the spec of the
  /// pending request dispatch would take next (highest QoS class, earliest
  /// arrival), or nullopt when nothing is pending. The request disappears
  /// from this shard's records and is counted in stats().stolen_away.
  std::optional<RequestSpec> steal_pending();

  /// Group-aware stealing, victim side: removes and returns up to
  /// `max_count` pending requests sharing the dispatch-next head's (model,
  /// QoS class) — a coherent group the thief can dispatch as one batch.
  /// All are counted stolen_away. Empty when nothing is pending.
  std::vector<RequestSpec> steal_pending_group(std::size_t max_count);

  /// Work stealing, thief side: admits a request stolen from a sibling
  /// shard. Counted as stolen_in (not submitted); its arrival event fires
  /// at the current simulation time, preserving the original arrival_s in
  /// the record so latency spans the migration.
  RequestHandle adopt(const RequestSpec& spec);

  /// Dispatch slots a steal could fill right now. Bounded admission: free
  /// in-flight capacity not already claimed by an in-transit arrival due
  /// at the current instant (in-transit adoptions included), with an empty
  /// pending queue. Unlimited admission: derived from estimated backlog
  /// cost when `steal_backlog_s` is set (see ServiceOptions), else 0.
  std::size_t steal_capacity() const;

  /// The shard can currently plan and execute: its leader node is up and
  /// any fleet-installed liveness hook agrees. While false, pending
  /// requests park (no dispatch) until a repair event resumes them or the
  /// fleet evacuates them.
  bool shard_live() const;

  /// Requests this shard could still accept without shedding: free
  /// dispatch slots plus free pending-queue slots, minus in-transit
  /// arrivals. SIZE_MAX when the pending queue is uncapped. Failover
  /// evacuation gates on this so a dead shard's backlog is not dumped
  /// into a bounded sibling only to be rejected.
  std::size_t admission_room() const;

  /// EWMA of recent execution latencies (dispatch to finish) of executed
  /// requests; 0 until the first completion. The cost signal behind
  /// unlimited-admission steal capacity.
  double avg_execution_s() const noexcept { return avg_execution_s_; }

  /// Pins (or, with nullptr, unpins) the pipeline stream target at runtime
  /// — fleet owners point a model-affinity shard at the model whose
  /// requests it will receive (ModelAffinityRouting::shard_for). Drops any
  /// held pipeline plan so the next stream request replans. No-op effect
  /// while ServiceOptions::PipelineMode is disabled.
  void pin_stream(const dnn::DnnGraph* model);
  /// Current stream target (null = unpinned; with PipelineMode enabled the
  /// first dispatched model auto-pins).
  const dnn::DnnGraph* pinned_stream() const noexcept { return pinned_stream_; }

  /// Installs (or, with nullptr, removes) an asynchronous planning backend.
  /// Only the per-request dispatch path goes asynchronous — batched groups
  /// and pipeline (re)planning keep planning inline on the driver thread,
  /// where group membership / stream state is consistent at plan time. With
  /// no provider (default) every path plans inline: bit-identical to the
  /// seed. The provider must outlive the service or be detached first;
  /// deliveries for slots of a destroyed service must never fire.
  void set_plan_provider(PlanProvider* provider) noexcept { plan_provider_ = provider; }
  PlanProvider* plan_provider() const noexcept { return plan_provider_; }

  /// Terminal-failure sweep after the simulator drained: pending requests
  /// parked on a dead shard (no live leader, no repair ever came) turn
  /// kFailed. Returns true when anything was finalised — callers owning
  /// the drain loop (run(), ServiceFleet::run()) must then re-drain, since
  /// terminal notifications can release closed-loop sources.
  bool finalize_stranded();

 private:
  struct Tracked {
    RequestSpec spec;
    RequestRecord record;
    bool migrated = false;   ///< stolen by a sibling shard; excluded from run()
    bool pipelined = false;  ///< in flight down the shared pipeline plan (window)
    int attempts = 0;        ///< engine executions (1 + retries)
  };

  /// Pending-queue entry, ordered by dispatch priority: higher QoS first,
  /// then earlier arrival, then admission order. The ordered set replaces
  /// the old O(pending) scans — fleet overload runs queue thousands of
  /// requests, where per-event linear scans went quadratic.
  struct PendingEntry {
    QosClass qos;
    double arrival_s;
    std::uint64_t seq;  ///< admission order, ties broken first-admitted
    std::size_t slot;
  };
  struct DispatchBefore {
    bool operator()(const PendingEntry& a, const PendingEntry& b) const noexcept {
      if (a.qos != b.qos) return a.qos > b.qos;
      if (a.arrival_s != b.arrival_s) return a.arrival_s < b.arrival_s;
      return a.seq < b.seq;
    }
  };
  using PendingSet = std::set<PendingEntry, DispatchBefore>;

  /// A dispatched multi-request group whose run still sits in its FSM-phase
  /// window: arrivals of the same (model, QoS) may join via the engine.
  /// `slots` is shared with the run's completion callbacks so joins extend
  /// the member list the callbacks will attribute.
  struct OpenGroup {
    std::uint64_t id = 0;
    const dnn::DnnGraph* model = nullptr;
    QosClass qos = QosClass::kStandard;
    std::shared_ptr<std::vector<std::size_t>> slots;
  };

  RequestHandle register_request(const RequestSpec& spec);
  void observe_cluster();
  void schedule_arrival(std::size_t slot, double arrival_s);
  void pump();
  void on_arrival(std::size_t slot);
  void dispatch(std::size_t slot);
  /// Routes slot to the pipeline path or per-request engine execution
  /// (counts one attempt either way; the churn-retry path re-enters here).
  void start_execution(std::size_t slot);
  /// Per-request planning + execution — the seed dispatch body. Routes to
  /// request_async_plan() when a PlanProvider is installed.
  void execute_per_request(std::size_t slot);
  /// Asynchronous per-request planning: ships slot's PlanRequest (stamped
  /// with the current membership epoch) to the provider; deliver_plan()
  /// continues the dispatch when the plan lands.
  void request_async_plan(std::size_t slot);
  /// Provider delivery (driver thread): dispatches the plan via the engine,
  /// or — when the membership epoch moved while the plan was in flight —
  /// discards it as stale and re-requests against the current cluster
  /// (failing over through the normal churn machinery when the shard died
  /// meanwhile).
  void deliver_plan(std::size_t slot, Plan plan, std::uint64_t epoch);
  /// True when slot's request should ride the shard's pipeline stream
  /// (PipelineMode enabled, strategy supports it, model matches the pinned
  /// stream — auto-pinning the first model when none is pinned yet).
  bool pipeline_applies(const RequestSpec& spec);
  /// Stream dispatch through the held pipeline plan, (re)planning it when
  /// absent or no longer executable; falls back to execute_per_request()
  /// when the stream is unplannable on the surviving cluster.
  void dispatch_pipelined(std::size_t slot);
  /// True when slot's request would ride the pipeline but the admission
  /// window (ServiceOptions::pipeline_window) is currently full — the
  /// request must wait in the pending queue for a pipelined completion.
  bool pipeline_window_blocked(const RequestSpec& spec);
  /// Releases slot's pipeline-window occupancy (terminal or retry reentry).
  void release_pipeline_window(std::size_t slot);
  /// Leader churn response (ServiceOptions::leader_reelection): promotes the
  /// surviving scope member with the highest aggregate peak processor rate
  /// and resumes dispatch. No-op when no member survives.
  void reelect_leader();
  void invalidate_pipeline_plan() noexcept {
    pipeline_plan_valid_ = false;
    pipeline_unplannable_ = false;
  }
  void dispatch_next();
  /// Batched dispatch loop (max_batch > 1): forms same-(model, QoS) groups
  /// from the pending head, holding under-full groups up to max_wait_s.
  void dispatch_next_batched();
  /// Dispatches `slots` as one group run (size 1 degrades to dispatch()).
  void dispatch_group(const std::vector<std::size_t>& slots);
  /// Arrival-time join into an open group's FSM window. True on success.
  bool try_join_group(std::size_t slot);
  void on_group_finished(const std::shared_ptr<std::vector<std::size_t>>& slots);
  void on_group_failed(const std::shared_ptr<std::vector<std::size_t>>& slots);
  void prune_open_group(const std::shared_ptr<std::vector<std::size_t>>& slots);
  void on_finished(std::size_t slot);
  /// Node churn killed slot's request mid-task: escalate to the fleet,
  /// retry on surviving nodes, or finalise kFailed.
  void on_execute_failed(std::size_t slot);
  void shed(std::size_t arriving);
  void finish_without_execution(std::size_t slot, RequestOutcome outcome);
  void enqueue_pending(std::size_t slot);
  void erase_pending(PendingSet::iterator it);
  /// Shed victim: lowest QoS class, oldest or newest arrival within it per
  /// `prefer_oldest` (ties keep the first-admitted). end() when empty.
  PendingSet::iterator victim_pending(bool prefer_oldest);
  bool can_dispatch() const noexcept {
    if (options_.max_in_flight == 0) return true;
    // Batching re-denominates the admission bound: a group is one planned
    // run, so max_in_flight caps concurrent runs rather than requests.
    if (options_.max_batch > 1) return runs_in_flight_ < options_.max_in_flight;
    return in_flight_ < options_.max_in_flight;
  }
  void clear_hold() noexcept {
    hold_slot_ = kNoHold;
    hold_until_ = 0.0;
  }
  /// Hold window for an under-full group missing `missing` members: the
  /// fixed max_wait_s, or (adaptive_wait) the expected arrival time of the
  /// missing members from the model's arrival-gap EWMA, capped by it.
  double hold_window_s(const dnn::DnnGraph* model, std::size_t missing) const;
  /// Projected span (now -> group completion) for deadline filtering at a
  /// prospective batch size: the execution EWMA, or (batch_aware_deadline)
  /// the batched plan's phases + predicted latency. 0 = no estimate yet.
  double projected_span(const dnn::DnnGraph& model, QosClass qos, double deadline_s,
                        int batch);
  double now() const noexcept;
  /// Notifies the source of a terminal outcome and polls it for follow-ups.
  void notify_terminal(std::size_t slot);
  void notify_state();

  std::unique_ptr<ExecutionEngine> owned_engine_;
  ExecutionEngine* engine_;
  ServiceOptions options_;
  ArrivalProcess* source_ = nullptr;
  std::function<void(const RequestRecord&, double)> terminal_hook_;
  std::function<void()> state_hook_;
  std::function<bool(const RequestSpec&, int)> failure_hook_;
  std::function<bool()> liveness_hook_;
  PlanProvider* plan_provider_ = nullptr;  ///< async planning backend (null = inline)
  std::size_t observer_id_ = 0;  ///< cluster node-event subscription
  double avg_execution_s_ = 0.0;
  std::deque<Tracked> requests_;  ///< stable storage; slot = index
  PendingSet pending_;            ///< admitted but not dispatched
  std::array<std::size_t, kQosClassCount> pending_by_class_{};
  std::uint64_t pending_seq_ = 0;
  std::size_t in_flight_ = 0;
  /// Concurrent planned runs (a group counts once). Equal to in_flight_
  /// without batching; the admission denominator when max_batch > 1.
  std::size_t runs_in_flight_ = 0;
  /// Groups dispatched but still joinable (engine FSM-phase window open).
  /// Pruned lazily against ExecutionEngine::group_joinable().
  std::vector<OpenGroup> open_groups_;
  static constexpr std::size_t kNoHold = static_cast<std::size_t>(-1);
  /// Head slot currently held for same-model peers, and the DES instant the
  /// hold expires. kNoHold when nothing is held; a stolen/shed head
  /// self-heals because the new head no longer matches hold_slot_.
  std::size_t hold_slot_ = kNoHold;
  double hold_until_ = 0.0;
  // ---- pipelined serving state --------------------------------------------
  /// Stream target; seeded from options_.pipeline.stream_model, auto-pinned
  /// to the first dispatched model when enabled with no explicit target.
  const dnn::DnnGraph* pinned_stream_ = nullptr;
  /// The shard-held stage-resident plan every stream request replays. The
  /// first request after a (re)plan pays the FSM phases; followers ride
  /// with zeroed phases, entering the pipeline at dispatch time.
  Plan pipeline_plan_;
  bool pipeline_plan_valid_ = false;
  /// The stream could not be pipeline-planned on the current cluster
  /// (e.g. one live node); stream requests fall back to per-request
  /// planning until a cluster event clears the flag.
  bool pipeline_unplannable_ = false;
  /// Stream requests currently in flight down the pipeline plan (the
  /// admission-window numerator; counted only when pipeline_window > 0).
  std::size_t pipelined_in_flight_ = 0;
  /// Per-model inter-arrival gap EWMA (adaptive_wait): seeded by the first
  /// observed gap, then 0.8/0.2 smoothing.
  struct ArrivalGap {
    double last_s = -1.0;
    double ewma_s = 0.0;
  };
  std::unordered_map<const dnn::DnnGraph*, ArrivalGap> arrival_gaps_;
  std::size_t inbound_ = 0;  ///< arrival events scheduled but not fired
  /// Scheduled instants of the in-transit arrivals (multiset: duplicates
  /// are the norm). Entries <= now are arrivals firing later this instant
  /// — they already claim a dispatch slot, so steals must not.
  std::multiset<double> inbound_due_;
  double makespan_s_ = 0.0;
  ServiceStats stats_;
};

}  // namespace hidp::runtime
