// HiDP — the paper's contribution, packaged as an execution strategy.
//
// Per request (paper Alg. 1 and Fig. 4):
//  1. Analyze — probe cluster availability and communication rates (pseudo
//     packets through net::ClusterProber).
//  2. Explore — global DSE over model/data partitioning with the
//     *hierarchical* node execution policy: every candidate block is costed
//     assuming the node will run it under its best local configuration.
//  3. Global:Offload — compile block distribution into transfer tasks.
//  4. Local:Map — the chosen local configurations become per-processor
//     compute tasks (data-parallel slices or processor pipelines).
//  5. Execute — the engine replays the plan on the DES cluster.
//
// The FSM phase costs (Analyze/Explore/Map) are charged to every request;
// the defaults follow the paper's measured 15 ms DP exploration overhead.
// Steady-state streaming traffic mostly repeats the same planning
// situation, so the strategy plans through the shared
// core::CachingStrategyBase path: a cross-request cache hit replays the
// GlobalDecision, skips Explore+Map entirely and charges only a
// table-lookup cost. The cache is invalidated whenever the cluster's nodes
// or network change.
#pragma once

#include <memory>
#include <string>
#include <unordered_map>

#include "core/global_partitioner.hpp"
#include "core/pipeline_planner.hpp"
#include "core/plan_cache.hpp"
#include "core/scheduler_fsm.hpp"
#include "net/prober.hpp"
#include "runtime/engine.hpp"
#include "util/rng.hpp"

namespace hidp::core {

class HidpStrategy : public CachingStrategyBase {
 public:
  struct Options {
    DseConfig dse;
    partition::LocalSearchSpace local_search;
    int bytes_per_element = 4;
    /// Explore (global DSE) + Map (local DSE) planning cost charged per
    /// request; paper §IV-A reports 15 ms on the evaluation boards.
    double explore_latency_s = 0.010;
    double map_latency_s = 0.005;
    bool probe_availability = true;  ///< Analyze-state pseudo packets
    double probe_noise_fraction = 0.05;
    std::uint64_t seed = 42;
    /// Cross-request GlobalDecision cache: steady-state streams skip the
    /// DSE. Hits charge the (much smaller) lookup latencies below. The
    /// cache holds whole plans, so it is bounded: when it reaches
    /// `plan_cache_capacity` entries it is flushed wholesale (epoch
    /// eviction — availability flapping would otherwise grow it forever).
    bool enable_plan_cache = true;
    std::size_t plan_cache_capacity = 256;
    double cached_explore_latency_s = 0.0002;
    double cached_map_latency_s = 0.0001;
  };

  HidpStrategy() : HidpStrategy(Options{}) {}
  explicit HidpStrategy(Options options);

  std::string name() const override { return "HiDP"; }

  /// PlanKind::kPipeline requests run the PipelinePlanner over the same
  /// memoised cost tables; the compiled plan carries its steady-state
  /// period and is cached under the pipeline plan-kind dimension.
  bool supports_pipeline() const override { return true; }

  /// DSE outcome and FSM trace of the most recent plan() call.
  const GlobalDecision& last_decision() const noexcept { return last_decision_; }
  const RuntimeSchedulerFsm& last_fsm() const noexcept { return last_fsm_; }

  /// Granular invalidation counters (tests pin which cluster edits bump
  /// which): full cost-model rebuilds (compute changes) vs in-place
  /// network re-pricings (link degradation keeping compute memos).
  std::uint64_t cost_model_rebuilds() const noexcept { return cost_model_rebuilds_; }
  std::uint64_t network_repricings() const noexcept { return network_repricings_; }

 protected:
  double analyze(const runtime::PlanRequest& request, std::vector<bool>& available) override;
  void plan_fresh(const runtime::PlanRequest& request, const std::vector<bool>& available,
                  CachedPlanEntry& entry) override;
  void on_planned(const runtime::PlanRequest& request, const runtime::Plan& plan,
                  const GlobalDecision* decision, double analyze_s, bool cache_hit) override;
  void on_cluster_change(ClusterChange change) override {
    if (change == ClusterChange::kNetwork) {
      ++network_version_;  // cost models re-price lazily at next access
      return;
    }
    if (!cost_models_.empty()) ++cost_model_rebuilds_;
    cost_models_.clear();
  }

  /// Delta repair: re-prices exactly the changed node in every cached cost
  /// model (ClusterCostModel::reprice_node) instead of dropping them.
  std::size_t repair_compute(std::size_t node) override;

  /// Survival proof for HiDP's DSE structure. An untouched kLatency entry
  /// survives a link-only degradation outright (candidate sets and worker
  /// ordering are unchanged; only candidates priced over the degraded
  /// radio worsen). A compute change (DVFS slowdown, departure)
  /// additionally requires the node to sit beyond every explored
  /// data-parallel sigma prefix of the decision's Psi worker ordering —
  /// otherwise its rate shift re-shapes prefix candidate sets the original
  /// search never scored. Pipeline entries never survive: the period
  /// search is a state-collapsing heuristic, so untouched-node changes can
  /// still steer which chains it keeps.
  bool entry_survives_degradation(const GlobalDecisionKey& key, const CachedPlanEntry& entry,
                                  std::size_t node, bool compute_change) const override;

 private:
  struct CachedCostModel {
    std::unique_ptr<partition::ClusterCostModel> model;
    std::uint64_t network_version = 0;  ///< version the model last priced
    bool repaired = false;  ///< per-node repriced since its last plan
  };
  /// Cost models are cached per (graph, batch size): batched groups price
  /// scaled FLOPs/bytes tables, and each batch bucket keeps its own memos.
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

  static CachePolicy make_policy(const Options& options);

  partition::ClusterCostModel& cost_model(const dnn::DnnGraph& model,
                                          const runtime::ClusterSnapshot& snap, int batch);

  Options options_;
  GlobalPartitioner global_;
  PipelinePlanner pipeline_planner_;
  util::Rng rng_;
  GlobalDecision last_decision_;
  RuntimeSchedulerFsm last_fsm_{FsmRole::kLeader};
  std::uint64_t network_version_ = 0;
  std::uint64_t cost_model_rebuilds_ = 0;
  std::uint64_t network_repricings_ = 0;
  std::unordered_map<CostModelKey, CachedCostModel, CostModelKeyHash> cost_models_;
};

}  // namespace hidp::core
