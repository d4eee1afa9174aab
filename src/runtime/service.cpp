#include "runtime/service.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace hidp::runtime {

void ArrivalProcess::on_complete(const RequestRecord& record, double now_s) {
  (void)record;
  (void)now_s;
}

InferenceService::InferenceService(Cluster& cluster, IStrategy& strategy, std::size_t leader,
                                   ServiceOptions options)
    : owned_engine_(std::make_unique<ExecutionEngine>(cluster, strategy, leader)),
      engine_(owned_engine_.get()),
      options_(options) {
  observe_cluster();
}

InferenceService::InferenceService(const ClusterView& scope, IStrategy& strategy,
                                   std::size_t leader, ServiceOptions options)
    : owned_engine_(std::make_unique<ExecutionEngine>(scope, strategy, leader)),
      engine_(owned_engine_.get()),
      options_(options) {
  observe_cluster();
}

InferenceService::InferenceService(ExecutionEngine& engine, ServiceOptions options)
    : engine_(&engine), options_(options) {
  observe_cluster();
}

InferenceService::~InferenceService() {
  engine_->cluster().remove_observer(observer_id_);
}

namespace {
/// Whether an event's node (and partition peer) appears anywhere in a
/// plan — as its leader, a compute host or a transfer/exchange endpoint.
/// Events not touching a plan cannot change what it executes or costs.
bool plan_touched_by(const Plan& plan, const NodeEvent& event) {
  const auto touches = [&plan](std::size_t node) {
    if (node == plan.leader) return true;
    for (const PlanTask& task : plan.tasks) {
      const bool hit = task.kind == PlanTask::Kind::kCompute
                           ? task.node == node
                           : task.from == node || task.to == node;
      if (hit) return true;
    }
    return false;
  };
  if (touches(event.node)) return true;
  return event.peer != NodeEvent::kNoPeer && touches(event.peer);
}

/// Degradation-vs-improvement classification (see NodeEvent prev scales).
/// An improvement (rejoin, link heal, DVFS/radio speedup) can make a
/// better plan available even where the current one is untouched, so held
/// plans must be dropped; a degradation only worsens alternatives.
bool event_is_improvement(const NodeEvent& event) {
  switch (event.kind) {
    case NodeEvent::Kind::kUp:
      return true;
    case NodeEvent::Kind::kDown:
      return false;
    case NodeEvent::Kind::kDvfs:
      return event.dvfs_scale > event.prev_dvfs_scale;
    case NodeEvent::Kind::kLink:
      if (event.peer != NodeEvent::kNoPeer) return event.link_up;
      return !(event.bw_scale <= event.prev_bw_scale &&
               event.latency_scale >= event.prev_latency_scale);
  }
  return true;
}
}  // namespace

void InferenceService::observe_cluster() {
  engine_->set_transfer_timeout_factor(options_.transfer_timeout_factor);
  engine_->set_stale_network_planning(options_.stale_network_planning);
  pinned_stream_ = options_.pipeline.stream_model;
  // Fires after the engine's own observer (registered at engine
  // construction) failed mid-flight work, so retries triggered there
  // already planned against the post-churn availability.
  observer_id_ = engine_->cluster().add_observer([this](const NodeEvent& event) {
    // Eager strategy invalidation: churn reaches the plan cache at the
    // event instant instead of being detected as drift at the next plan.
    // A stale-planning service deliberately stays blind to link events —
    // its strategy keeps pricing the construction-time network.
    if (event.kind != NodeEvent::Kind::kLink || !options_.stale_network_planning) {
      engine_->strategy().on_node_event(event);
      // Pooled async planning: relay the event so worker strategies repair
      // (or invalidate) their state eagerly instead of detecting drift at
      // their next plan. Providers dedupe multi-shard relays on epoch.
      if (plan_provider_ != nullptr) plan_provider_->on_node_event(event);
      // The shard-held pipeline plan priced the pre-event cluster; drop it
      // so the next stream request replans on the survivors. A repair
      // event also clears the unplannable flag — more nodes may re-open a
      // multi-stage cut. The drop is scoped: a degradation not touching
      // the plan's nodes cannot change what it executes or costs, so the
      // stream keeps riding it instead of paying a replan.
      if (options_.pipeline.enabled) {
        if (!pipeline_plan_valid_ || event_is_improvement(event) ||
            plan_touched_by(pipeline_plan_, event)) {
          invalidate_pipeline_plan();
        } else {
          pipeline_unplannable_ = false;  // events may re-open a parked stream
        }
      }
    }
    // Leader re-election: promote a survivor the instant churn kills this
    // shard's leader, instead of parking the queue (or surrendering it to
    // fleet evacuation). Runs after the engine's observer failed the
    // leader's in-flight work, so retries replan under the new leader.
    if (options_.leader_reelection && event.kind == NodeEvent::Kind::kDown &&
        event.node == engine_->leader()) {
      reelect_leader();
    }
    const bool node_back =
        event.kind == NodeEvent::Kind::kUp && engine_->scope().contains(event.node);
    // A restored link can un-partition a parked shard the same way a node
    // repair can; resume dispatching when either endpoint is in scope.
    const bool link_back =
        event.kind == NodeEvent::Kind::kLink && event.link_up &&
        event.peer != NodeEvent::kNoPeer &&
        (engine_->scope().contains(event.node) || engine_->scope().contains(event.peer));
    if (node_back || link_back) {
      dispatch_next();
      notify_state();
    }
  });
}

double InferenceService::now() const noexcept {
  return engine_->cluster().simulator().now();
}

double InferenceService::hold_window_s(const dnn::DnnGraph* model,
                                       std::size_t missing) const {
  if (!options_.adaptive_wait) return options_.max_wait_s;
  const auto it = arrival_gaps_.find(model);
  // No gap sample yet (first arrival, or a cold model): the fixed window.
  if (it == arrival_gaps_.end() || it->second.ewma_s <= 0.0) return options_.max_wait_s;
  // Hold only as long as the missing members should take to show up; a
  // trickle stream dispatches instead of stalling its head the full knob.
  return std::min(options_.max_wait_s,
                  it->second.ewma_s * static_cast<double>(missing));
}

double InferenceService::projected_span(const dnn::DnnGraph& model, QosClass qos,
                                        double deadline_s, int batch) {
  if (!options_.batch_aware_deadline) return avg_execution_s_;
  // Price the actual batched plan at the prospective size (typically a
  // plan-cache hit on the batch bucket) instead of the solo-execution EWMA
  // — a wide batch runs longer than one request, a well-split one shorter.
  const double span = engine_->estimate_batch_span(model, qos, deadline_s, batch,
                                                   static_cast<int>(pending_.size()));
  return span > 0.0 ? span : avg_execution_s_;
}

bool InferenceService::shard_live() const {
  if (!engine_->cluster().node_available(engine_->leader())) return false;
  return !liveness_hook_ || liveness_hook_();
}

std::size_t InferenceService::admission_room() const {
  // An uncapped pending queue absorbs anything without shedding.
  if (options_.max_in_flight == 0 || options_.max_pending == 0) {
    return std::numeric_limits<std::size_t>::max();
  }
  // Under batching max_in_flight bounds runs; requests fit max_batch per run.
  const std::size_t cap = options_.max_batch > 1
                              ? options_.max_in_flight * options_.max_batch
                              : options_.max_in_flight;
  const std::size_t slots = in_flight_ < cap ? cap - in_flight_ : 0;
  const std::size_t queue =
      pending_.size() < options_.max_pending ? options_.max_pending - pending_.size() : 0;
  const std::size_t room = slots + queue;
  return room > inbound_ ? room - inbound_ : 0;
}

RequestHandle InferenceService::register_request(const RequestSpec& spec) {
  if (spec.model == nullptr) throw std::invalid_argument("request without model");
  requests_.push_back(Tracked{spec, RequestRecord{}, false});
  RequestRecord& record = requests_.back().record;
  record.id = spec.id;
  record.model = spec.model->name();
  record.arrival_s = spec.arrival_s;
  record.qos = spec.qos;
  record.deadline_s = spec.deadline_s;
  return RequestHandle{spec.id};
}

RequestHandle InferenceService::submit(const RequestSpec& spec) {
  const RequestHandle handle = register_request(spec);
  ++stats_.submitted;
  ++stats_.of(spec.qos).submitted;
  const std::size_t slot = requests_.size() - 1;
  schedule_arrival(slot, spec.arrival_s);
  return handle;
}

RequestHandle InferenceService::adopt(const RequestSpec& spec) {
  const RequestHandle handle = register_request(spec);
  ++stats_.stolen_in;
  ++stats_.of(spec.qos).stolen_in;
  const std::size_t slot = requests_.size() - 1;
  // Clamped to now by the simulator: the original arrival time is in the
  // past on migration, but the record keeps it so latency spans the steal.
  schedule_arrival(slot, spec.arrival_s);
  return handle;
}

void InferenceService::schedule_arrival(std::size_t slot, double arrival_s) {
  ++inbound_;
  inbound_due_.insert(std::max(arrival_s, now()));
  engine_->cluster().simulator().schedule_at(arrival_s, [this, slot] { on_arrival(slot); });
}

std::optional<RequestSpec> InferenceService::steal_pending() {
  if (pending_.empty()) return std::nullopt;
  const auto it = pending_.begin();  // dispatch-next choice: QoS order holds
  const std::size_t slot = it->slot;
  erase_pending(it);
  requests_[slot].migrated = true;
  ++stats_.stolen_away;
  ++stats_.of(requests_[slot].spec.qos).stolen_away;
  return requests_[slot].spec;
}

std::vector<RequestSpec> InferenceService::steal_pending_group(std::size_t max_count) {
  std::vector<RequestSpec> out;
  if (pending_.empty() || max_count == 0) return out;
  // Same gather rule as batched dispatch: the head plus same-(model, QoS)
  // peers from its class block, so the thief receives a batchable group
  // rather than a model-mixed grab bag.
  const auto head_it = pending_.begin();
  const QosClass qos = head_it->qos;
  const dnn::DnnGraph* model = requests_[head_it->slot].spec.model;
  std::vector<PendingSet::iterator> taken;
  taken.push_back(head_it);
  for (auto it = std::next(head_it); it != pending_.end() && taken.size() < max_count;
       ++it) {
    if (it->qos != qos) break;
    if (requests_[it->slot].spec.model != model) continue;
    taken.push_back(it);
  }
  out.reserve(taken.size());
  for (const auto it : taken) {
    const std::size_t slot = it->slot;
    erase_pending(it);
    requests_[slot].migrated = true;
    ++stats_.stolen_away;
    ++stats_.of(requests_[slot].spec.qos).stolen_away;
    out.push_back(requests_[slot].spec);
  }
  return out;
}

std::size_t InferenceService::steal_capacity() const {
  if (!shard_live()) return 0;  // a dead shard can't serve stolen work
  if (!pending_.empty()) return 0;
  // Arrivals firing later this same instant have already claimed slots;
  // future arrivals have not — an idle shard should steal even with work
  // scheduled seconds out.
  const auto due_end = inbound_due_.upper_bound(now());
  const std::size_t due =
      static_cast<std::size_t>(std::distance(inbound_due_.begin(), due_end));
  const std::size_t committed = in_flight_ + due;
  if (options_.max_in_flight == 0) {
    // Unlimited admission has no slot signal; derive capacity from the
    // estimated backlog cost instead (0 = seed behaviour: never steal).
    if (options_.steal_backlog_s <= 0.0) return 0;
    if (avg_execution_s_ <= 0.0) {
      // No latency sample yet: bootstrap with a single steal when idle.
      return committed == 0 ? 1 : 0;
    }
    const auto budget =
        static_cast<std::size_t>(options_.steal_backlog_s / avg_execution_s_);
    return committed < budget ? budget - committed : 0;
  }
  if (options_.max_batch > 1) {
    // Bounded batched admission: max_in_flight caps runs, so the request-
    // denominated capacity is a full complement of full groups.
    const std::size_t full = options_.max_in_flight * options_.max_batch;
    return committed < full ? full - committed : 0;
  }
  return committed < options_.max_in_flight ? options_.max_in_flight - committed : 0;
}

void InferenceService::pump() {
  if (source_ == nullptr) return;
  while (auto spec = source_->next(now())) submit(*spec);
}

void InferenceService::enqueue_pending(std::size_t slot) {
  const RequestSpec& spec = requests_[slot].spec;
  pending_.insert(PendingEntry{spec.qos, spec.arrival_s, pending_seq_++, slot});
  ++pending_by_class_[static_cast<std::size_t>(spec.qos)];
  stats_.peak_pending = std::max(stats_.peak_pending, pending_.size());
}

void InferenceService::erase_pending(PendingSet::iterator it) {
  --pending_by_class_[static_cast<std::size_t>(it->qos)];
  pending_.erase(it);
}

void InferenceService::on_arrival(std::size_t slot) {
  --inbound_;
  // Arrivals fire in time order, so the firing event's scheduled instant
  // is the smallest outstanding one.
  inbound_due_.erase(inbound_due_.begin());
  if (options_.adaptive_wait && options_.max_batch > 1) {
    // Per-model inter-arrival gap EWMA: the adaptive hold window's signal.
    ArrivalGap& gap = arrival_gaps_[requests_[slot].spec.model];
    if (gap.last_s >= 0.0) {
      const double observed = std::max(now() - gap.last_s, 0.0);
      gap.ewma_s = gap.ewma_s <= 0.0 ? observed : 0.8 * gap.ewma_s + 0.2 * observed;
    }
    gap.last_s = now();
  }
  if (options_.max_batch > 1) {
    // Continuous batching: an arrival landing while a same-(model, QoS)
    // group still sits in its FSM-phase window joins that group in place
    // of dispatching alone; otherwise it queues and the batched dispatch
    // loop decides (group up, hold for peers, or go immediately). Stream
    // requests never join groups — they ride the pipeline instead.
    const RequestSpec& spec = requests_[slot].spec;
    const bool expired =
        options_.drop_expired_pending && spec.deadline_s > 0.0 && now() > spec.deadline_s;
    if (!expired && pending_.empty() && shard_live() && !pipeline_applies(spec) &&
        try_join_group(slot)) {
      notify_state();
      return;
    }
    if (options_.max_pending == 0 || pending_.size() < options_.max_pending) {
      enqueue_pending(slot);
      dispatch_next();
      notify_state();
      return;
    }
    shed(slot);
    notify_state();
    return;
  }
  const RequestSpec& spec = requests_[slot].spec;
  if (can_dispatch() && pending_.empty() && shard_live() && !pipeline_window_blocked(spec)) {
    // A request can reach a free shard with its deadline already gone —
    // stolen after queueing on a saturated victim, or submitted stale.
    // Under drop_expired_pending that work could only ever miss.
    if (options_.drop_expired_pending && spec.deadline_s > 0.0 && now() > spec.deadline_s) {
      finish_without_execution(slot, RequestOutcome::kDropped);
    } else {
      dispatch(slot);
    }
    notify_state();
    return;
  }
  if (options_.max_pending == 0 || pending_.size() < options_.max_pending) {
    enqueue_pending(slot);
    dispatch_next();
    notify_state();
    return;
  }
  shed(slot);
  notify_state();
}

void InferenceService::shed(std::size_t arriving) {
  const QosClass arriving_qos = requests_[arriving].spec.qos;
  const bool prefer_oldest = options_.shed_policy == LoadShedPolicy::kDropOldest;
  const auto victim_it = victim_pending(prefer_oldest);
  bool displace = false;
  if (victim_it != pending_.end()) {
    const QosClass victim_qos = victim_it->qos;
    // kDropOldest makes room for same-class arrivals (FIFO freshness);
    // kRejectNewest only bumps a pending request for a strictly higher class.
    displace = prefer_oldest ? arriving_qos >= victim_qos : arriving_qos > victim_qos;
  }
  if (!displace) {
    finish_without_execution(arriving, RequestOutcome::kRejected);
    return;
  }
  const std::size_t victim = victim_it->slot;
  erase_pending(victim_it);
  finish_without_execution(victim, RequestOutcome::kDropped);
  enqueue_pending(arriving);
}

InferenceService::PendingSet::iterator InferenceService::victim_pending(bool prefer_oldest) {
  if (pending_.empty()) return pending_.end();
  // The set orders by (QoS desc, arrival asc, admission asc), so the lowest
  // class forms the tail block and the last entry names that class.
  const QosClass lowest = std::prev(pending_.end())->qos;
  if (prefer_oldest) {
    // First entry of the tail block: oldest arrival, first admitted.
    return pending_.lower_bound(
        PendingEntry{lowest, -std::numeric_limits<double>::infinity(), 0, 0});
  }
  // Newest arrival in the lowest class; among equal arrivals the victim is
  // the first-admitted one — the head of the last entry's exact-tie run,
  // found in O(log n) (a burst of same-instant arrivals would make a
  // backwards walk linear again).
  const auto last = std::prev(pending_.end());
  return pending_.lower_bound(PendingEntry{last->qos, last->arrival_s, 0, 0});
}

void InferenceService::dispatch_next() {
  if (options_.max_batch > 1) {
    dispatch_next_batched();
    return;
  }
  // A dead shard parks its pending queue: planning needs a live leader.
  // Requests resume on the repair event, are evacuated by the fleet, or
  // turn kFailed in finalize_stranded() if neither ever happens.
  while (can_dispatch() && !pending_.empty() && shard_live()) {
    const auto it = pending_.begin();
    const std::size_t slot = it->slot;
    const RequestSpec& spec = requests_[slot].spec;
    const bool expired =
        options_.drop_expired_pending && spec.deadline_s > 0.0 && now() > spec.deadline_s;
    // A stream head blocked by the pipeline admission window parks the
    // queue (FIFO back-pressure; a pipelined completion re-enters here) —
    // unless its deadline already passed, in which case dropping it now
    // frees the head without touching the window.
    if (!expired && pipeline_window_blocked(spec)) break;
    erase_pending(it);
    if (expired) {
      finish_without_execution(slot, RequestOutcome::kDropped);
      continue;
    }
    dispatch(slot);
  }
}

void InferenceService::dispatch_next_batched() {
  while (can_dispatch() && !pending_.empty() && shard_live()) {
    const auto head_it = pending_.begin();
    const std::size_t head = head_it->slot;
    const RequestSpec& head_spec = requests_[head].spec;
    if (options_.drop_expired_pending && head_spec.deadline_s > 0.0 &&
        now() > head_spec.deadline_s) {
      erase_pending(head_it);
      finish_without_execution(head, RequestOutcome::kDropped);
      continue;
    }
    // Stream requests bypass group formation: each flows down the shared
    // pipeline plan individually — stage occupancy, not batching, is the
    // throughput mechanism for the pinned model.
    if (pipeline_applies(head_spec)) {
      if (pipeline_window_blocked(head_spec)) break;  // park until a slot frees
      erase_pending(head_it);
      dispatch(head);
      continue;
    }
    // Gather the group: the head plus same-(model, QoS) peers from the
    // head's class block. The pending set orders by QoS first, so peers of
    // a lower class never jump ahead of the head's class; a candidate whose
    // deadline would already be blown at the projected group completion
    // stays queued rather than riding a batch it can only miss in.
    std::vector<PendingSet::iterator> members;
    members.push_back(head_it);
    for (auto it = std::next(head_it);
         it != pending_.end() && members.size() < options_.max_batch; ++it) {
      if (it->qos != head_spec.qos) break;
      const RequestSpec& cand = requests_[it->slot].spec;
      if (cand.model != head_spec.model) continue;
      if (cand.deadline_s > 0.0) {
        const double span = projected_span(*head_spec.model, head_spec.qos, cand.deadline_s,
                                           static_cast<int>(members.size()) + 1);
        if (span > 0.0 && now() + span > cand.deadline_s) continue;
      }
      members.push_back(it);
    }
    // Under-full group: hold the head for more peers — up to max_wait_s,
    // or the adaptive window when enabled. The DES timer re-enters this
    // loop at the expiry; a head that is no longer the one held (stolen,
    // shed, dropped) resets the hold window.
    if (members.size() < options_.max_batch && options_.max_wait_s > 0.0) {
      if (hold_slot_ != head) {
        hold_slot_ = head;
        hold_until_ =
            now() + hold_window_s(head_spec.model, options_.max_batch - members.size());
        engine_->cluster().simulator().schedule_at(hold_until_, [this] {
          dispatch_next();
          notify_state();
        });
        return;
      }
      if (now() < hold_until_) return;  // still inside the hold window
    }
    clear_hold();
    std::vector<std::size_t> slots;
    slots.reserve(members.size());
    for (const auto it : members) {
      slots.push_back(it->slot);
      erase_pending(it);
    }
    dispatch_group(slots);
  }
}

void InferenceService::dispatch(std::size_t slot) {
  ++in_flight_;
  ++runs_in_flight_;
  stats_.peak_in_flight = std::max(stats_.peak_in_flight, in_flight_);
  start_execution(slot);
}

void InferenceService::start_execution(std::size_t slot) {
  Tracked& tracked = requests_[slot];
  ++tracked.attempts;
  if (pipeline_applies(tracked.spec)) {
    dispatch_pipelined(slot);
    return;
  }
  execute_per_request(slot);
}

void InferenceService::execute_per_request(std::size_t slot) {
  if (plan_provider_ != nullptr) {
    request_async_plan(slot);
    return;
  }
  Tracked& tracked = requests_[slot];
  engine_->execute(tracked.spec, tracked.record, static_cast<int>(pending_.size()),
                   [this, slot] { on_finished(slot); },
                   [this, slot] { on_execute_failed(slot); });
}

void InferenceService::request_async_plan(std::size_t slot) {
  Tracked& tracked = requests_[slot];
  PlanRequest request =
      engine_->make_plan_request(*tracked.spec.model, tracked.spec.qos,
                                 tracked.spec.deadline_s, static_cast<int>(pending_.size()));
  const std::uint64_t epoch = engine_->cluster().membership_epoch();
  ++stats_.async_plans;
  // The slot stays dispatched (in_flight_ counted) while the plan computes;
  // exactly one delivery per request_plan keeps the lifecycle single-owner.
  plan_provider_->request_plan(std::move(request), epoch,
                               [this, slot](Plan plan, std::uint64_t plan_epoch) {
                                 deliver_plan(slot, std::move(plan), plan_epoch);
                               });
}

void InferenceService::deliver_plan(std::size_t slot, Plan plan, std::uint64_t epoch) {
  Tracked& tracked = requests_[slot];
  if (epoch != engine_->cluster().membership_epoch()) {
    // The cluster changed while the plan computed (churn, link event, DVFS):
    // the plan may name dead nodes or mis-price the surviving topology.
    // Discard it and replan against the current cluster.
    ++stats_.stale_plans;
    if (shard_live()) {
      request_async_plan(slot);
      return;
    }
    // The event that staled the plan also killed the shard: stamp the
    // failure and route through the standard churn machinery (fleet
    // evacuation first, kFailed once options run out).
    tracked.record.outcome = RequestOutcome::kFailed;
    tracked.record.dispatch_s = now();
    tracked.record.finish_s = now();
    on_execute_failed(slot);
    return;
  }
  engine_->execute_planned(tracked.spec, plan, tracked.record,
                           [this, slot] { on_finished(slot); },
                           [this, slot] { on_execute_failed(slot); });
}

bool InferenceService::pipeline_applies(const RequestSpec& spec) {
  if (!options_.pipeline.enabled || !engine_->strategy().supports_pipeline()) return false;
  // Auto-pin: with no explicit target, the first model this shard serves
  // becomes the stream (behind model-affinity routing that is the shard's
  // traffic, making affinity shards stream owners with no extra wiring).
  if (pinned_stream_ == nullptr) pinned_stream_ = spec.model;
  return spec.model == pinned_stream_;
}

void InferenceService::pin_stream(const dnn::DnnGraph* model) {
  pinned_stream_ = model;
  invalidate_pipeline_plan();
}

namespace {
/// A held pipeline plan is replayable only while every node and link it
/// names is up. Checked at dispatch because the engine's cluster observer
/// fails in-flight runs *before* the service's observer drops the held
/// plan — a retry fired inside that event cascade would otherwise replay a
/// known-dead plan and burn its retry budget.
bool plan_executable(const Plan& plan, Cluster& cluster) {
  if (plan.empty()) return false;
  const auto& available = cluster.network().availability();
  for (const PlanTask& task : plan.tasks) {
    if (task.kind == PlanTask::Kind::kTransfer) {
      if (!available[task.from] || !available[task.to]) return false;
      if (task.from != task.to && !cluster.network().spec().link_up(task.from, task.to)) {
        return false;
      }
    } else if (!available[task.node]) {
      return false;
    }
  }
  return true;
}
}  // namespace

void InferenceService::dispatch_pipelined(std::size_t slot) {
  Tracked& tracked = requests_[slot];
  if (pipeline_plan_valid_ && !plan_executable(pipeline_plan_, engine_->cluster())) {
    invalidate_pipeline_plan();
  }
  if (!pipeline_plan_valid_) {
    if (pipeline_unplannable_) {
      // The stream could not be pipelined on the current cluster (e.g. a
      // single survivor); serve it per-request until an event re-opens it.
      execute_per_request(slot);
      return;
    }
    Plan plan = engine_->plan_pipeline(*tracked.spec.model, tracked.spec.qos,
                                       static_cast<int>(pending_.size()));
    if (plan.empty()) {
      pipeline_unplannable_ = true;
      execute_per_request(slot);
      return;
    }
    pipeline_plan_ = std::move(plan);
    pipeline_plan_valid_ = true;
    ++stats_.pipeline_replans;
    ++stats_.pipelined_requests;
    if (options_.pipeline_window > 0) {
      tracked.pipelined = true;
      ++pipelined_in_flight_;
    }
    engine_->execute_planned(tracked.spec, pipeline_plan_, tracked.record,
                             [this, slot] { on_finished(slot); },
                             [this, slot] { on_execute_failed(slot); });
    // The (re)planning request just paid the FSM phases; followers replay
    // the held plan phase-free, entering the pipeline at dispatch time —
    // stage occupancy then overlaps consecutive stream requests.
    pipeline_plan_.phases = PlanPhases{};
    return;
  }
  ++stats_.pipelined_requests;
  if (options_.pipeline_window > 0) {
    tracked.pipelined = true;
    ++pipelined_in_flight_;
  }
  engine_->execute_planned(tracked.spec, pipeline_plan_, tracked.record,
                           [this, slot] { on_finished(slot); },
                           [this, slot] { on_execute_failed(slot); });
}

bool InferenceService::pipeline_window_blocked(const RequestSpec& spec) {
  if (options_.pipeline_window == 0) return false;
  if (!pipeline_applies(spec)) return false;
  return pipelined_in_flight_ >= options_.pipeline_window;
}

void InferenceService::release_pipeline_window(std::size_t slot) {
  Tracked& tracked = requests_[slot];
  if (!tracked.pipelined) return;
  tracked.pipelined = false;
  --pipelined_in_flight_;
}

void InferenceService::dispatch_group(const std::vector<std::size_t>& slots) {
  // A size-1 group still dispatches through the engine's group path: its
  // run keeps an open FSM-phase window, so the next same-model arrival can
  // join it mid-planning — the solo-head-then-storm case continuous
  // batching exists for. (Counters below only count multi-member groups.)
  auto shared_slots = std::make_shared<std::vector<std::size_t>>(slots);
  std::vector<RequestSpec> specs;
  std::vector<RequestRecord*> records;
  specs.reserve(slots.size());
  records.reserve(slots.size());
  for (const std::size_t slot : slots) {
    Tracked& tracked = requests_[slot];
    ++tracked.attempts;
    specs.push_back(tracked.spec);
    records.push_back(&tracked.record);
  }
  in_flight_ += slots.size();
  stats_.peak_in_flight = std::max(stats_.peak_in_flight, in_flight_);
  ++runs_in_flight_;
  if (slots.size() > 1) {
    ++stats_.groups_dispatched;
    stats_.batched_requests += slots.size();
  }
  const std::uint64_t group = engine_->execute_group(
      specs, records, static_cast<int>(pending_.size()),
      [this, shared_slots] { on_group_finished(shared_slots); },
      [this, shared_slots] { on_group_failed(shared_slots); });
  if (group != 0) {
    open_groups_.push_back(OpenGroup{group, requests_[slots.front()].spec.model,
                                     requests_[slots.front()].spec.qos, shared_slots});
  }
}

bool InferenceService::try_join_group(std::size_t slot) {
  if (open_groups_.empty()) return false;
  Tracked& tracked = requests_[slot];
  const RequestSpec& spec = tracked.spec;
  for (std::size_t i = 0; i < open_groups_.size();) {
    OpenGroup& group = open_groups_[i];
    if (!engine_->group_joinable(group.id)) {
      // The run started, finished or failed since dispatch: forget it.
      group = open_groups_.back();
      open_groups_.pop_back();
      continue;
    }
    if (group.model != spec.model || group.qos != spec.qos ||
        group.slots->size() >= options_.max_batch) {
      ++i;
      continue;
    }
    // Same projected-completion deadline rule as group formation: do not
    // ride a batch the joiner can only miss in.
    if (spec.deadline_s > 0.0) {
      const double span = projected_span(*spec.model, spec.qos, spec.deadline_s,
                                         static_cast<int>(group.slots->size()) + 1);
      if (span > 0.0 && now() + span > spec.deadline_s) {
        ++i;
        continue;
      }
    }
    ++tracked.attempts;
    if (!engine_->try_join(group.id, spec, tracked.record,
                           static_cast<int>(pending_.size()))) {
      --tracked.attempts;
      ++i;
      continue;
    }
    group.slots->push_back(slot);
    ++in_flight_;
    stats_.peak_in_flight = std::max(stats_.peak_in_flight, in_flight_);
    ++stats_.group_joins;
    ++stats_.batched_requests;
    return true;
  }
  return false;
}

void InferenceService::prune_open_group(
    const std::shared_ptr<std::vector<std::size_t>>& slots) {
  for (std::size_t i = 0; i < open_groups_.size(); ++i) {
    if (open_groups_[i].slots == slots) {
      open_groups_[i] = open_groups_.back();
      open_groups_.pop_back();
      return;
    }
  }
}

void InferenceService::on_group_finished(
    const std::shared_ptr<std::vector<std::size_t>>& slots) {
  --runs_in_flight_;
  in_flight_ -= slots->size();
  prune_open_group(slots);
  bool sampled = false;
  for (const std::size_t slot : *slots) {
    const RequestRecord& record = requests_[slot].record;
    if (record.outcome == RequestOutcome::kFailed) {
      ++stats_.failed;
      ++stats_.of(record.qos).failed;
    } else if (record.outcome == RequestOutcome::kDeadlineMiss) {
      ++stats_.deadline_misses;
      ++stats_.of(record.qos).deadline_misses;
    } else {
      ++stats_.completed;
      ++stats_.of(record.qos).completed;
    }
    // One EWMA sample per group: the members share one run, so counting
    // each would weight a batch of N as N identical observations.
    if (!sampled && record.executed()) {
      const double execution_s = std::max(record.finish_s - record.dispatch_s, 0.0);
      avg_execution_s_ = avg_execution_s_ <= 0.0
                             ? execution_s
                             : 0.8 * avg_execution_s_ + 0.2 * execution_s;
      sampled = true;
    }
    notify_terminal(slot);
  }
  dispatch_next();
  notify_state();
}

void InferenceService::on_group_failed(
    const std::shared_ptr<std::vector<std::size_t>>& slots) {
  --runs_in_flight_;
  in_flight_ -= slots->size();
  prune_open_group(slots);
  for (const std::size_t slot : *slots) {
    Tracked& tracked = requests_[slot];
    const RequestSpec& spec = tracked.spec;
    if (options_.drop_expired_pending && spec.deadline_s > 0.0 && now() > spec.deadline_s) {
      tracked.record.outcome = RequestOutcome::kDropped;
      tracked.record.finish_s = now();
      ++stats_.dropped;
      ++stats_.of(spec.qos).dropped;
      notify_terminal(slot);
      continue;
    }
    if (failure_hook_ && failure_hook_(spec, tracked.attempts)) {
      tracked.migrated = true;
      ++stats_.stolen_away;
      ++stats_.of(spec.qos).stolen_away;
      continue;
    }
    if (static_cast<std::size_t>(tracked.attempts) <= options_.max_retries && shard_live()) {
      // Re-queue instead of re-executing directly: the batched dispatch
      // loop re-forms (possibly smaller) groups from the survivors, so one
      // churn event does not turn a batch into N solo replans.
      ++stats_.retries;
      tracked.record.outcome = RequestOutcome::kCompleted;
      tracked.record.flops = 0.0;
      enqueue_pending(slot);
      continue;
    }
    ++stats_.failed;
    ++stats_.of(tracked.record.qos).failed;
    notify_terminal(slot);
  }
  dispatch_next();
  notify_state();
}

void InferenceService::on_finished(std::size_t slot) {
  --in_flight_;
  --runs_in_flight_;
  release_pipeline_window(slot);
  const RequestRecord& record = requests_[slot].record;
  if (record.outcome == RequestOutcome::kFailed) {
    // Batch-shim path: the engine stamps kFailed and fires `done` when no
    // failure callback is installed; via dispatch() failures land in
    // on_execute_failed instead.
    ++stats_.failed;
    ++stats_.of(record.qos).failed;
  } else if (record.outcome == RequestOutcome::kDeadlineMiss) {
    ++stats_.deadline_misses;
    ++stats_.of(record.qos).deadline_misses;
  } else {
    ++stats_.completed;
    ++stats_.of(record.qos).completed;
  }
  if (record.executed()) {
    // Execution-latency EWMA: the backlog-cost signal for unlimited-
    // admission steal capacity. Deadline misses executed fully — their
    // durations are exactly the samples a backlog estimate needs.
    const double execution_s = std::max(record.finish_s - record.dispatch_s, 0.0);
    avg_execution_s_ = avg_execution_s_ <= 0.0
                           ? execution_s
                           : 0.8 * avg_execution_s_ + 0.2 * execution_s;
  }
  notify_terminal(slot);
  dispatch_next();
  notify_state();
}

void InferenceService::on_execute_failed(std::size_t slot) {
  Tracked& tracked = requests_[slot];
  // Any window occupancy ends with the failed run; a retry that re-enters
  // the pipeline recounts itself.
  release_pipeline_window(slot);
  // Under drop_expired_pending, a churn-killed request whose deadline has
  // already passed is could-only-miss work — drop it instead of burning a
  // retry or a sibling's admission room on it (the same rule both dispatch
  // paths apply before execution).
  const RequestSpec& spec = tracked.spec;
  if (options_.drop_expired_pending && spec.deadline_s > 0.0 && now() > spec.deadline_s) {
    --in_flight_;
    --runs_in_flight_;
    tracked.record.outcome = RequestOutcome::kDropped;
    tracked.record.finish_s = now();
    ++stats_.dropped;
    ++stats_.of(spec.qos).dropped;
    notify_terminal(slot);
    dispatch_next();
    notify_state();
    return;
  }
  // Fleet escalation next: a dead shard's requests are worth more on a
  // live sibling than burning local retries against missing nodes.
  if (failure_hook_ && failure_hook_(tracked.spec, tracked.attempts)) {
    tracked.migrated = true;
    ++stats_.stolen_away;
    ++stats_.of(tracked.spec.qos).stolen_away;
    --in_flight_;
    --runs_in_flight_;
    dispatch_next();
    notify_state();
    return;
  }
  if (static_cast<std::size_t>(tracked.attempts) <= options_.max_retries && shard_live()) {
    ++stats_.retries;
    // Reset the engine-stamped failure; the retry restamps everything.
    tracked.record.outcome = RequestOutcome::kCompleted;
    tracked.record.flops = 0.0;
    // Re-route through start_execution (counts the attempt): a pipelined
    // stream request replans its pipeline over the survivors here.
    start_execution(slot);
    return;  // still in flight
  }
  --in_flight_;
  --runs_in_flight_;
  ++stats_.failed;
  ++stats_.of(tracked.record.qos).failed;
  notify_terminal(slot);
  dispatch_next();
  notify_state();
}

void InferenceService::finish_without_execution(std::size_t slot, RequestOutcome outcome) {
  RequestRecord& record = requests_[slot].record;
  record.outcome = outcome;
  record.dispatch_s = now();
  record.finish_s = now();
  if (outcome == RequestOutcome::kRejected) {
    ++stats_.rejected;
    ++stats_.of(record.qos).rejected;
  }
  if (outcome == RequestOutcome::kDropped) {
    ++stats_.dropped;
    ++stats_.of(record.qos).dropped;
  }
  if (outcome == RequestOutcome::kFailed) {
    ++stats_.failed;
    ++stats_.of(record.qos).failed;
  }
  notify_terminal(slot);
}

void InferenceService::reelect_leader() {
  // Highest aggregate peak processor rate among surviving scope members:
  // planning quality is leader-independent, but the leader fronts every
  // plan's FSM phases and first-hop traffic, so the fastest survivor is
  // the best anchor.
  const auto& nodes = engine_->cluster().nodes();
  std::size_t best = nodes.size();
  double best_rate = -1.0;
  for (const std::size_t member : engine_->scope().members()) {
    if (!engine_->cluster().node_available(member)) continue;
    double rate = 0.0;
    for (std::size_t p = 0; p < nodes[member].processor_count(); ++p) {
      rate += nodes[member].processors()[p].peak_gflops();
    }
    if (rate > best_rate) {
      best_rate = rate;
      best = member;
    }
  }
  if (best == nodes.size()) return;  // no survivor: the shard stays parked
  engine_->set_leader(best);
  ++stats_.leader_reelections;
  // The shard is live again under the new leader: resume parked work now.
  dispatch_next();
  notify_state();
}

bool InferenceService::finalize_stranded() {
  if (pending_.empty() || shard_live()) return false;
  // The simulator drained with requests parked on a dead shard: no repair
  // is coming, so they can only fail.
  while (!pending_.empty()) {
    const auto it = pending_.begin();
    const std::size_t slot = it->slot;
    erase_pending(it);
    finish_without_execution(slot, RequestOutcome::kFailed);
  }
  return true;
}

void InferenceService::notify_terminal(std::size_t slot) {
  const RequestRecord& record = requests_[slot].record;
  if (source_ != nullptr) {
    source_->on_complete(record, now());
    pump();
  }
  if (terminal_hook_) terminal_hook_(record, now());
}

void InferenceService::notify_state() {
  // Mirror the strategy's delta-repair counters (absolute values; this
  // service's engine is the strategy's sole planning driver, so the
  // snapshot is consistent at every state change).
  const PlannerDeltaStats planner = engine_->strategy().planner_stats();
  stats_.repaired_plans = planner.repaired_plans;
  stats_.cold_replans = planner.cold_replans;
  stats_.partial_repriced_rows = planner.partial_repriced_rows;
  if (state_hook_) state_hook_();
}

std::vector<RequestRecord> InferenceService::run() {
  // Drain loop: finalising stranded requests fires terminal notifications,
  // which can release closed-loop clients — re-pump and re-drain until the
  // system is quiescent. Without churn this is one iteration, identical to
  // the historical pump-then-run.
  while (true) {
    pump();
    engine_->cluster().simulator().run();
    if (!finalize_stranded()) break;
  }
  std::vector<RequestRecord> out;
  out.reserve(requests_.size());
  makespan_s_ = 0.0;
  for (const Tracked& tracked : requests_) {
    if (tracked.migrated) continue;
    out.push_back(tracked.record);
    makespan_s_ = std::max(makespan_s_, tracked.record.finish_s);
  }
  std::sort(out.begin(), out.end(),
            [](const RequestRecord& a, const RequestRecord& b) { return a.id < b.id; });
  return out;
}

}  // namespace hidp::runtime
