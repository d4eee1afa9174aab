// Shared plumbing for the baseline strategies: the one serving-side cached
// planning path of core::CachingStrategyBase plus per-model cost-model
// caching under the framework-default node execution policy (no local
// tier — the distinguishing limitation of all three baselines per the
// paper's Table I). Baselines only implement their search (plan_fresh);
// admission, cache probing, hit stamping and invalidation are shared with
// HiDP.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/plan_cache.hpp"
#include "partition/cost_model.hpp"
#include "runtime/engine.hpp"

namespace hidp::baselines {

/// Knobs every baseline strategy shares for its cross-request plan cache.
struct PlanCacheOptions {
  bool enabled = true;
  std::size_t capacity = 256;
  /// Planning cost charged on a cache hit (a table lookup, not a search).
  double cached_planning_latency_s = 1e-4;
};

/// Base class of the three baselines. The plan cache and cost models
/// invalidate granularly with the cluster: a compute change (DVFS, node
/// edits) rebuilds the cost models, while a network-only change (radio
/// degradation, partitions) re-points their transfer pricing at the
/// current spec and keeps the memoised rate tables — the same policy as
/// HidpStrategy, so the degradation bench compares planning quality, not
/// invalidation plumbing.
class BaselineStrategy : public core::CachingStrategyBase {
 protected:
  BaselineStrategy(partition::NodeExecutionPolicy policy, int bytes_per_element,
                   double planning_latency_s, const PlanCacheOptions& cache_options,
                   core::QueueSensitivity queue = core::QueueSensitivity::kNone)
      : CachingStrategyBase(make_policy(planning_latency_s, cache_options, queue)),
        policy_(policy), bytes_per_element_(bytes_per_element) {}

  partition::ClusterCostModel& cost_model(const dnn::DnnGraph& model,
                                          const runtime::ClusterSnapshot& snap,
                                          int batch = 1) {
    const CostModelKey key{&model, batch};
    auto it = cost_models_.find(key);
    if (it == cost_models_.end()) {
      it = cost_models_
               .emplace(key,
                        CachedCostModel{std::make_unique<partition::ClusterCostModel>(
                                            model, *snap.nodes, snap.network, policy_,
                                            bytes_per_element_,
                                            partition::ClusterCostModel::kDefaultMaxCandidates,
                                            batch),
                                        network_version_})
               .first;
      count_cold_replan();
    } else if (it->second.network_version != network_version_) {
      it->second.model->set_network(snap.network);
      it->second.network_version = network_version_;
    }
    if (it->second.repaired) {
      it->second.repaired = false;
      count_repaired_plan();
    }
    return *it->second.model;
  }

  void on_cluster_change(core::ClusterChange change) override {
    if (change == core::ClusterChange::kNetwork) {
      ++network_version_;
      return;
    }
    cost_models_.clear();
  }

  /// Per-node cost-model repricing; the baselines share HiDP's repair
  /// economics even though their cached plan entries never survive events.
  std::size_t repair_compute(std::size_t node) override {
    std::size_t rows = 0;
    for (auto& [key, cached] : cost_models_) {
      rows += cached.model->reprice_node(node);
      cached.repaired = true;
    }
    return rows;
  }

 private:
  struct CachedCostModel {
    std::unique_ptr<partition::ClusterCostModel> model;
    std::uint64_t network_version = 0;
    bool repaired = false;  ///< per-node repriced since its last plan
  };
  /// Cost models cache per (graph, batch size): batched groups price
  /// scaled FLOPs/bytes tables, so each batch bucket keeps its own memos.
  struct CostModelKey {
    const dnn::DnnGraph* model = nullptr;
    int batch = 1;
    bool operator==(const CostModelKey& other) const noexcept {
      return model == other.model && batch == other.batch;
    }
  };
  struct CostModelKeyHash {
    std::size_t operator()(const CostModelKey& key) const noexcept {
      return std::hash<const void*>()(key.model) ^
             (static_cast<std::size_t>(key.batch) * 0x9e3779b97f4a7c15ULL);
    }
  };

  static CachePolicy make_policy(double planning_latency_s,
                                 const PlanCacheOptions& cache_options,
                                 core::QueueSensitivity queue) {
    CachePolicy policy;
    policy.enabled = cache_options.enabled;
    policy.capacity = cache_options.capacity;
    policy.queue = queue;
    policy.fresh_explore_s = planning_latency_s;
    policy.hit_explore_s = cache_options.cached_planning_latency_s;
    return policy;
  }

  partition::NodeExecutionPolicy policy_;
  int bytes_per_element_;
  std::uint64_t network_version_ = 0;
  std::unordered_map<CostModelKey, CachedCostModel, CostModelKeyHash> cost_models_;
};

/// Available workers (leader first, then by descending default-policy rate).
std::vector<std::size_t> default_worker_order(const partition::ClusterCostModel& cost,
                                              std::size_t leader,
                                              const std::vector<bool>& available);

}  // namespace hidp::baselines
