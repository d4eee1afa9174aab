#include "core/plan_cache.hpp"

#include <algorithm>
#include <cstring>

namespace hidp::core {

std::uint64_t cluster_compute_fingerprint(const std::vector<platform::NodeModel>& nodes) {
  util::Fnv1a h;
  for (const platform::NodeModel& node : nodes) {
    h.mix(node.processor_count());
    h.mix_double(node.dram_bw_gbps());
    for (const platform::ProcessorModel& proc : node.processors()) {
      h.mix_double(proc.peak_gflops());
      h.mix_double(proc.utilization(1));
      h.mix_double(proc.dispatch_s());
    }
  }
  return h.digest();
}

double CachingStrategyBase::analyze(const runtime::PlanRequest& request,
                                    std::vector<bool>& available) {
  (void)request;
  (void)available;
  return 0.0;
}

void CachingStrategyBase::on_planned(const runtime::PlanRequest& request,
                                     const runtime::Plan& plan, const GlobalDecision* decision,
                                     double analyze_s, bool cache_hit) {
  (void)request;
  (void)plan;
  (void)decision;
  (void)analyze_s;
  (void)cache_hit;
}

std::size_t CachingStrategyBase::repair_compute(std::size_t node) {
  (void)node;
  return kNoRepair;
}

bool CachingStrategyBase::entry_survives_degradation(const GlobalDecisionKey& key,
                                                     const CachedPlanEntry& entry,
                                                     std::size_t node,
                                                     bool compute_change) const {
  (void)key;
  (void)entry;
  (void)node;
  (void)compute_change;
  return false;
}

void CachingStrategyBase::on_node_event(const runtime::NodeEvent& event) {
  if (delta_repair(event)) return;
  switch (event.kind) {
    case runtime::NodeEvent::Kind::kDvfs:
      cache_.invalidate_entries();
      on_cluster_change(ClusterChange::kCompute);
      break;
    case runtime::NodeEvent::Kind::kLink:
      cache_.invalidate_entries();
      on_cluster_change(ClusterChange::kNetwork);
      break;
    case runtime::NodeEvent::Kind::kDown:
    case runtime::NodeEvent::Kind::kUp:
      break;  // availability is part of the cache key; nothing is stale
  }
}

bool CachingStrategyBase::delta_repair(const runtime::NodeEvent& event) {
  using Kind = runtime::NodeEvent::Kind;
  // Hand-made events carry no post-event cluster state; events for a
  // cluster this cache never planned against cannot be repaired either.
  // Both fall back to the wholesale path.
  if (event.nodes == nullptr || event.network == nullptr) return false;
  if (!cache_.anchored_to(event.nodes)) return false;
  switch (event.kind) {
    case Kind::kDvfs: {
      // A slowdown only worsens candidates running on the node, so plans
      // avoiding it (and provably outside its ordering influence) keep
      // winning; a speedup can promote the node into any plan, which only
      // a wholesale entry flush handles. Cost-model repricing is sound in
      // both directions — that is where the replan cost actually lives.
      if (event.dvfs_scale <= event.prev_dvfs_scale) {
        cache_.invalidate_touching(
            event.node, runtime::NodeEvent::kNoPeer,
            [this, &event](const GlobalDecisionKey& key, const CachedPlanEntry& entry) {
              return entry_survives_degradation(key, entry, event.node, true);
            });
      } else {
        cache_.invalidate_entries();
      }
      const std::size_t rows = repair_compute(event.node);
      if (rows == kNoRepair) {
        cache_.invalidate_entries();
        on_cluster_change(ClusterChange::kCompute);
        return true;  // handled: wholesale compute path already ran
      }
      cache_.stats_mutable().partial_repriced_rows += rows;
      cache_.rebase_compute(*event.nodes);
      return true;
    }
    case Kind::kLink: {
      const bool degraded =
          event.peer != runtime::NodeEvent::kNoPeer
              ? !event.link_up
              : event.bw_scale <= event.prev_bw_scale &&
                    event.latency_scale >= event.prev_latency_scale;
      if (degraded) {
        cache_.invalidate_touching(
            event.node, event.peer,
            [this, &event](const GlobalDecisionKey& key, const CachedPlanEntry& entry) {
              return entry_survives_degradation(key, entry, event.node, false);
            });
      } else {
        // A healed link / improved radio can reroute any plan: flush the
        // entries, keep the (cheaply re-pointable) cost-model memos.
        cache_.invalidate_entries();
      }
      cache_.rebase_network(*event.network);
      on_cluster_change(ClusterChange::kNetwork);
      return true;
    }
    case Kind::kDown:
      // Availability is part of the key, so nothing is stale — but plans
      // that provably survive the departure are re-keyed onto the
      // post-churn mask so the very next request hits instead of paying a
      // cold replan. A departure is a compute_change: the node leaves the
      // Psi worker ordering.
      cache_.rekey_availability(
          event.node,
          [this, &event](const GlobalDecisionKey& key, CachedPlanEntry& entry) {
            if (!entry_survives_degradation(key, entry, event.node, true)) return false;
            // Record what the node-less cold replan would have: the same
            // worker list minus the departed node.
            if (entry.has_decision) {
              auto& workers = entry.decision.workers;
              workers.erase(std::remove(workers.begin(), workers.end(), event.node),
                            workers.end());
            }
            return true;
          });
      return true;
    case Kind::kUp:
      return true;  // keyed by availability; rejoin re-hits kept originals
  }
  return false;
}

int CachingStrategyBase::queue_bucket(int queue_depth) const noexcept {
  switch (policy_.queue) {
    case QueueSensitivity::kNone: return 0;
    case QueueSensitivity::kBinary: return queue_depth > 0 ? 1 : 0;
    case QueueSensitivity::kBucketed: return queue_depth_bucket(queue_depth);
  }
  return 0;
}

runtime::PlanResult CachingStrategyBase::plan(const runtime::PlanRequest& request) {
  const runtime::ClusterSnapshot& snap = request.snapshot;
  // Cluster changed (e.g. Fig. 8 node sweep, link degradation, DVFS): every
  // cached decision and derived cost model assumed stale hardware. The
  // refresh names the drifted component, so a radio-only degradation does
  // not cost a full cost-model rebuild.
  const ClusterRefresh refresh = cache_.refresh_cluster(snap);
  if (refresh.nodes_changed) on_cluster_change(ClusterChange::kCompute);
  if (refresh.network_changed) on_cluster_change(ClusterChange::kNetwork);

  std::vector<bool> available = snap.available;
  const double analyze_s = analyze(request, available);

  GlobalDecisionKey key;
  const bool cacheable = policy_.enabled;
  if (cacheable) {
    CrossRequestPlanCache<CachedPlanEntry>::make_key(request.graph(), snap, available, &key);
    // A pipeline plan is stream-wide, not queue-adaptive: its period is set
    // by the cut layout alone, so keying it on queue depth would only
    // fragment the cache (and force a fresh DP per congestion level).
    key.queue_bucket = request.kind == runtime::PlanRequest::PlanKind::kPipeline
                           ? 0
                           : queue_bucket(snap.queue_depth);
    key.batch = request.batch;
    key.plan_kind = static_cast<int>(request.kind);
    if (const CachedPlanEntry* hit = cache_.find(key)) {
      runtime::PlanResult result;
      result.plan = hit->plan;
      result.cache_hit = true;
      result.plan.phases.analyze_s = analyze_s;
      result.plan.phases.explore_s = policy_.hit_explore_s;
      result.plan.phases.map_s = policy_.hit_map_s;
      on_planned(request, result.plan, hit->has_decision ? &hit->decision : nullptr, analyze_s,
                 true);
      return result;
    }
  }

  CachedPlanEntry entry;
  plan_fresh(request, available, entry);
  // Empty plans (e.g. a failed stochastic search) are never cached: the
  // next identical request should retry the search, not replay the failure.
  const bool store = cacheable && !entry.plan.empty();
  runtime::PlanResult result;
  // Copy only when the cache keeps the phase-less original.
  result.plan = store ? entry.plan : std::move(entry.plan);
  result.cache_hit = false;
  result.plan.phases.analyze_s = analyze_s;
  result.plan.phases.explore_s = policy_.fresh_explore_s;
  result.plan.phases.map_s = policy_.fresh_map_s;
  on_planned(request, result.plan, entry.has_decision ? &entry.decision : nullptr, analyze_s,
             false);
  if (store) {
    std::vector<std::uint64_t> touch;
    CrossRequestPlanCache<CachedPlanEntry>::plan_touch_mask(entry.plan, snap.nodes->size(),
                                                            &touch);
    cache_.insert(key, std::move(entry), std::move(touch));
  }
  return result;
}

}  // namespace hidp::core
