#include "core/hidp_strategy.hpp"

#include <algorithm>

namespace hidp::core {

CachingStrategyBase::CachePolicy HidpStrategy::make_policy(const Options& options) {
  CachePolicy policy;
  policy.enabled = options.enable_plan_cache;
  policy.capacity = options.plan_cache_capacity;
  policy.queue = QueueSensitivity::kBucketed;
  policy.fresh_explore_s = options.explore_latency_s;
  policy.fresh_map_s = options.map_latency_s;
  policy.hit_explore_s = options.cached_explore_latency_s;
  policy.hit_map_s = options.cached_map_latency_s;
  return policy;
}

HidpStrategy::HidpStrategy(Options options)
    : CachingStrategyBase(make_policy(options)),
      options_(std::move(options)),
      global_(DseAgent{options_.dse}),
      pipeline_planner_(options_.dse),
      rng_(options_.seed) {}

partition::ClusterCostModel& HidpStrategy::cost_model(const dnn::DnnGraph& model,
                                                      const runtime::ClusterSnapshot& snap,
                                                      int batch) {
  const CostModelKey key{&model, batch};
  auto it = cost_models_.find(key);
  if (it == cost_models_.end()) {
    auto cost = std::make_unique<partition::ClusterCostModel>(
        model, *snap.nodes, snap.network, partition::NodeExecutionPolicy::kHierarchicalLocal,
        options_.bytes_per_element, partition::ClusterCostModel::kDefaultMaxCandidates, batch);
    cost->set_local_search_space(options_.local_search);
    it = cost_models_.emplace(key, CachedCostModel{std::move(cost), network_version_}).first;
    count_cold_replan();
  } else if (it->second.network_version != network_version_) {
    // Link state changed since this model last priced a transfer: re-point
    // it at the snapshot's spec, keeping the compute and local-DSE memos.
    it->second.model->set_network(snap.network);
    it->second.network_version = network_version_;
    ++network_repricings_;
  }
  if (it->second.repaired) {
    // First fresh plan exploiting a per-node repair: the warm memos saved
    // a full cost-model construction.
    it->second.repaired = false;
    count_repaired_plan();
  }
  return *it->second.model;
}

std::size_t HidpStrategy::repair_compute(std::size_t node) {
  std::size_t rows = 0;
  for (auto& [key, cached] : cost_models_) {
    rows += cached.model->reprice_node(node);
    cached.repaired = true;
  }
  return rows;
}

bool HidpStrategy::entry_survives_degradation(const GlobalDecisionKey& key,
                                              const CachedPlanEntry& entry, std::size_t node,
                                              bool compute_change) const {
  if (key.plan_kind != static_cast<int>(runtime::PlanRequest::PlanKind::kLatency)) return false;
  if (!entry.has_decision) return false;
  if (!compute_change) return true;
  // Compute change: the node's rate moves it within (or out of) the Psi
  // worker ordering. The decision is provably untouched only if the node
  // sat beyond every sigma prefix the data-parallel search explored —
  // demoting or removing it then leaves every explored candidate set, and
  // every candidate's score, exactly as the original search saw them.
  const std::vector<std::size_t>& workers = entry.decision.workers;
  const auto it = std::find(workers.begin(), workers.end(), node);
  if (it == workers.end()) return true;  // was not a candidate at plan time
  const std::size_t rank = static_cast<std::size_t>(it - workers.begin());
  std::size_t max_sigma = 0;
  for (const int sigma : options_.dse.sigma_candidates) {
    if (sigma >= 2 && static_cast<std::size_t>(sigma) <= workers.size()) {
      max_sigma = std::max(max_sigma, static_cast<std::size_t>(sigma));
    }
  }
  return rank >= max_sigma;
}

double HidpStrategy::analyze(const runtime::PlanRequest& request,
                             std::vector<bool>& available) {
  if (!options_.probe_availability) return 0.0;
  const runtime::ClusterSnapshot& snap = request.snapshot;
  net::ClusterProber prober(snap.network, /*probe_bytes=*/1024, options_.probe_noise_fraction);
  const net::ProbeReport report = prober.probe(snap.leader, snap.available, rng_);
  available = report.available;
  return prober.round_cost_s(snap.leader);
}

void HidpStrategy::plan_fresh(const runtime::PlanRequest& request,
                              const std::vector<bool>& available, CachedPlanEntry& entry) {
  const runtime::ClusterSnapshot& snap = request.snapshot;
  partition::ClusterCostModel& cost = cost_model(request.graph(), snap, request.batch);
  if (request.kind == runtime::PlanRequest::PlanKind::kPipeline) {
    // Stage-resident pipeline for a sustained stream: cut points minimise
    // the steady-state period over the same memoised cost tables the
    // latency DSE fills. Invalid searches leave the plan empty (not
    // cached), so the next request retries against fresh availability.
    const PipelinePlan pipeline = pipeline_planner_.plan(cost, snap.leader, available);
    if (!pipeline.valid) return;
    entry.plan = runtime::compile_model_partition(pipeline.stages, *snap.nodes, cost,
                                                  snap.leader, name() + "-pipeline");
    entry.plan.predicted_latency_s = pipeline.fill_latency_s;
    entry.plan.period_s = pipeline.period_s;
    entry.decision.mode = partition::PartitionMode::kModel;
    entry.decision.model = pipeline.stages;
    entry.decision.latency_s = pipeline.fill_latency_s;
    entry.decision.bottleneck_s = pipeline.period_s;
    entry.decision.effective_s = pipeline.period_s;
    entry.decision.workers = pipeline.workers;
    entry.has_decision = true;
    return;
  }
  entry.plan = global_.partition(cost, snap.leader, available, snap.queue_depth, name(),
                                 &entry.decision);
  entry.has_decision = true;
}

void HidpStrategy::on_planned(const runtime::PlanRequest& request, const runtime::Plan& plan,
                              const GlobalDecision* decision, double analyze_s,
                              bool cache_hit) {
  (void)cache_hit;
  if (decision != nullptr) last_decision_ = *decision;
  // Drive the paper's FSM for this planning round (trace for tests/examples).
  last_fsm_.restart();
  last_fsm_.run_leader_round(request.snapshot.now_s, analyze_s, plan.phases.explore_s,
                             plan.phases.map_s, plan.predicted_latency_s);
}

}  // namespace hidp::core
