// Strategy-level tests: HiDP and the three baselines produce valid plans
// with the behavioural signatures the paper attributes to each.
#include <gtest/gtest.h>

#include "baselines/disnet.hpp"
#include "baselines/modnn.hpp"
#include "baselines/omniboost.hpp"
#include "core/hidp_strategy.hpp"
#include "runtime/workload.hpp"

namespace hidp {
namespace {

using runtime::ClusterSnapshot;
using runtime::Plan;

ClusterSnapshot snapshot(const std::vector<platform::NodeModel>& nodes, std::size_t leader,
                         int queue = 0) {
  ClusterSnapshot snap;
  snap.nodes = &nodes;
  snap.network = net::NetworkSpec(nodes);
  snap.available.assign(nodes.size(), true);
  snap.leader = leader;
  snap.queue_depth = queue;
  return snap;
}

/// Plans one request through the redesigned PlanRequest surface.
runtime::PlanResult plan_request(runtime::IStrategy& strategy, const dnn::DnnGraph& model,
                                 ClusterSnapshot snap) {
  runtime::PlanRequest request;
  request.model = &model;
  request.snapshot = std::move(snap);
  return strategy.plan(request);
}

Plan plan_once(runtime::IStrategy& strategy, const dnn::DnnGraph& model, ClusterSnapshot snap) {
  return plan_request(strategy, model, std::move(snap)).plan;
}

class StrategyContract : public ::testing::TestWithParam<int> {
 protected:
  std::unique_ptr<runtime::IStrategy> make() const {
    switch (GetParam()) {
      case 0: return std::make_unique<core::HidpStrategy>();
      case 1: return std::make_unique<baselines::DisnetStrategy>();
      case 2: return std::make_unique<baselines::OmniboostStrategy>();
      default: return std::make_unique<baselines::ModnnStrategy>();
    }
  }
};

TEST_P(StrategyContract, ValidPlanForEveryModelAndLeader) {
  const auto nodes = platform::paper_cluster();
  runtime::ModelSet models;
  auto strategy = make();
  for (const auto id : models.ids()) {
    for (const std::size_t leader : {0u, 1u, 4u}) {
      const Plan plan = plan_once(*strategy, models.graph(id), snapshot(nodes, leader));
      ASSERT_FALSE(plan.empty())
          << strategy->name() << " " << dnn::zoo::model_name(id) << " leader " << leader;
      EXPECT_NO_THROW(runtime::validate_plan(plan, nodes));
      EXPECT_EQ(plan.leader, leader);
      EXPECT_GT(plan.phases.total(), 0.0);
      EXPECT_GE(plan.nodes_used, 1);
    }
  }
}

TEST_P(StrategyContract, SurvivesPartialAvailability) {
  const auto nodes = platform::paper_cluster();
  runtime::ModelSet models;
  auto strategy = make();
  auto snap = snapshot(nodes, 0);
  snap.available = {true, false, false, true, false};
  const Plan plan = plan_once(*strategy, models.graph(dnn::zoo::ModelId::kResNet152), snap);
  ASSERT_FALSE(plan.empty());
  for (const auto& task : plan.tasks) {
    if (task.kind == runtime::PlanTask::Kind::kCompute) {
      EXPECT_TRUE(task.node == 0 || task.node == 3) << strategy->name();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, StrategyContract, ::testing::Range(0, 4),
                         [](const auto& info) {
                           switch (info.param) {
                             case 0: return std::string("HiDP");
                             case 1: return std::string("DisNet");
                             case 2: return std::string("OmniBoost");
                             default: return std::string("MoDNN");
                           }
                         });

TEST(HidpStrategy, UsesHierarchicalLocalPartitioning) {
  const auto nodes = platform::paper_cluster();
  runtime::ModelSet models;
  core::HidpStrategy hidp;
  const Plan plan = plan_once(hidp, models.graph(dnn::zoo::ModelId::kEfficientNetB0),
                              snapshot(nodes, 1));
  // HiDP's local tier splits blocks across processors: expect at least one
  // node contributing >= 2 parallel compute tasks.
  std::map<std::size_t, std::set<std::size_t>> procs_per_node;
  for (const auto& t : plan.tasks) {
    if (t.kind == runtime::PlanTask::Kind::kCompute) procs_per_node[t.node].insert(t.proc);
  }
  bool multi_proc = false;
  for (const auto& [node, procs] : procs_per_node) multi_proc |= procs.size() >= 2;
  EXPECT_TRUE(multi_proc);
}

TEST(HidpStrategy, FsmTraceFollowsPaperWorkflow) {
  const auto nodes = platform::paper_cluster();
  runtime::ModelSet models;
  core::HidpStrategy hidp;
  plan_once(hidp, models.graph(dnn::zoo::ModelId::kInceptionV3), snapshot(nodes, 0));
  const auto& fsm = hidp.last_fsm();
  ASSERT_GE(fsm.trace().size(), 6u);
  EXPECT_EQ(fsm.trace().front().to, core::FsmState::kExplore);
  EXPECT_EQ(fsm.trace().back().to, core::FsmState::kAnalyze);
  EXPECT_EQ(fsm.state(), core::FsmState::kAnalyze);
}

TEST(HidpStrategy, ChargesPaperPlanningOverhead) {
  const auto nodes = platform::paper_cluster();
  runtime::ModelSet models;
  core::HidpStrategy hidp;
  const Plan plan = plan_once(hidp, models.graph(dnn::zoo::ModelId::kResNet152), snapshot(nodes, 0));
  // Explore + Map default to 15 ms (paper §IV-A); Analyze adds probe RTT.
  EXPECT_NEAR(plan.phases.explore_s + plan.phases.map_s, 0.015, 1e-12);
  EXPECT_GT(plan.phases.analyze_s, 0.0);
}

TEST(HidpStrategy, AdaptsModeToModel) {
  // Across the four models and two leaders, HiDP should not be locked into
  // a single global mode (the paper stresses dynamic data/model selection).
  const auto nodes = platform::paper_cluster();
  runtime::ModelSet models;
  core::HidpStrategy hidp;
  std::set<partition::PartitionMode> modes;
  for (const auto id : models.ids()) {
    for (const std::size_t leader : {0u, 3u, 4u}) {
      const Plan plan = plan_once(hidp, models.graph(id), snapshot(nodes, leader, 2));
      modes.insert(plan.global_mode);
    }
  }
  EXPECT_GE(modes.size(), 1u);
  EXPECT_FALSE(modes.count(partition::PartitionMode::kNone));
}

TEST(ModnnStrategy, AlwaysDataPartitions) {
  const auto nodes = platform::paper_cluster();
  runtime::ModelSet models;
  baselines::ModnnStrategy modnn;
  for (const auto id : models.ids()) {
    const Plan plan = plan_once(modnn, models.graph(id), snapshot(nodes, 0));
    EXPECT_EQ(plan.global_mode, partition::PartitionMode::kData)
        << dnn::zoo::model_name(id);
  }
}

TEST(ModnnStrategy, DefaultLocalPlacementOnly) {
  const auto nodes = platform::paper_cluster();
  runtime::ModelSet models;
  baselines::ModnnStrategy modnn;
  const Plan plan = plan_once(modnn, models.graph(dnn::zoo::ModelId::kVgg19), snapshot(nodes, 0));
  // No local tier: each participating node runs its slice on ONE processor.
  std::map<std::size_t, std::set<std::size_t>> procs_per_node;
  for (const auto& t : plan.tasks) {
    if (t.kind == runtime::PlanTask::Kind::kCompute) procs_per_node[t.node].insert(t.proc);
  }
  for (const auto& [node, procs] : procs_per_node) {
    EXPECT_EQ(procs.size(), 1u) << "node " << node;
  }
}

TEST(DisnetStrategy, HybridButGlobalOnly) {
  const auto nodes = platform::paper_cluster();
  runtime::ModelSet models;
  baselines::DisnetStrategy disnet;
  std::set<partition::PartitionMode> modes;
  for (const auto id : models.ids()) {
    const Plan plan = plan_once(disnet, models.graph(id), snapshot(nodes, 4));
    modes.insert(plan.global_mode);
    std::map<std::size_t, std::set<std::size_t>> procs_per_node;
    for (const auto& t : plan.tasks) {
      if (t.kind == runtime::PlanTask::Kind::kCompute) procs_per_node[t.node].insert(t.proc);
    }
    for (const auto& [node, procs] : procs_per_node) EXPECT_EQ(procs.size(), 1u);
  }
  EXPECT_FALSE(modes.count(partition::PartitionMode::kNone));
}

TEST(OmniboostStrategy, PipelinesAcrossProcessors) {
  const auto nodes = platform::paper_cluster();
  runtime::ModelSet models;
  baselines::OmniboostStrategy omni;
  const Plan plan = plan_once(omni, models.graph(dnn::zoo::ModelId::kResNet152),
                              snapshot(nodes, 0, /*queue=*/2));
  EXPECT_EQ(plan.global_mode, partition::PartitionMode::kModel);
  // Sequential pipeline: every compute task depends (transitively) on the
  // previous one — no parallel fan-out.
  int previous = -1;
  for (std::size_t i = 0; i < plan.tasks.size(); ++i) {
    if (plan.tasks[i].kind != runtime::PlanTask::Kind::kCompute) continue;
    if (previous >= 0) {
      EXPECT_FALSE(plan.tasks[i].deps.empty());
    }
    previous = static_cast<int>(i);
  }
}

TEST(OmniboostStrategy, DeterministicAcrossInstances) {
  const auto nodes = platform::paper_cluster();
  runtime::ModelSet models;
  baselines::OmniboostStrategy a, b;
  const Plan pa = plan_once(a, models.graph(dnn::zoo::ModelId::kVgg19), snapshot(nodes, 0));
  const Plan pb = plan_once(b, models.graph(dnn::zoo::ModelId::kVgg19), snapshot(nodes, 0));
  ASSERT_EQ(pa.tasks.size(), pb.tasks.size());
  for (std::size_t i = 0; i < pa.tasks.size(); ++i) {
    EXPECT_EQ(pa.tasks[i].node, pb.tasks[i].node);
    EXPECT_EQ(pa.tasks[i].proc, pb.tasks[i].proc);
  }
}

TEST(BaselinePlanCache, RepeatedSituationHits) {
  const auto nodes = platform::paper_cluster();
  runtime::ModelSet models;
  baselines::ModnnStrategy modnn;
  baselines::DisnetStrategy disnet;
  baselines::OmniboostStrategy omni;
  const auto& graph = models.graph(dnn::zoo::ModelId::kResNet152);
  for (auto* strategy :
       std::initializer_list<runtime::IStrategy*>{&modnn, &disnet, &omni}) {
    const Plan first = plan_once(*strategy, graph, snapshot(nodes, 0));
    const Plan second = plan_once(*strategy, graph, snapshot(nodes, 0));
    ASSERT_FALSE(first.empty()) << strategy->name();
    ASSERT_EQ(first.tasks.size(), second.tasks.size()) << strategy->name();
    // The hit charges lookup cost, not the strategy's planning latency.
    EXPECT_LT(second.phases.total(), first.phases.total()) << strategy->name();
  }
  EXPECT_EQ(modnn.plan_cache_stats().hits, 1u);
  EXPECT_EQ(modnn.plan_cache_stats().misses, 1u);
  EXPECT_EQ(disnet.plan_cache_stats().hits, 1u);
  EXPECT_EQ(omni.plan_cache_stats().hits, 1u);
}

TEST(BaselinePlanCache, QueueDepthKeyedOnlyWhereRead) {
  const auto nodes = platform::paper_cluster();
  runtime::ModelSet models;
  const auto& graph = models.graph(dnn::zoo::ModelId::kResNet152);
  // MoDNN never consults queue depth: depth churn must stay a cache hit.
  baselines::ModnnStrategy modnn;
  (void)plan_once(modnn, graph, snapshot(nodes, 0, /*queue=*/0));
  (void)plan_once(modnn, graph, snapshot(nodes, 0, /*queue=*/3));
  EXPECT_EQ(modnn.plan_cache_stats().hits, 1u);
  // OmniBoost switches objective on queue_depth > 0: exactly two regimes.
  baselines::OmniboostStrategy omni;
  (void)plan_once(omni, graph, snapshot(nodes, 0, /*queue=*/0));
  (void)plan_once(omni, graph, snapshot(nodes, 0, /*queue=*/2));  // miss: q>0 regime
  (void)plan_once(omni, graph, snapshot(nodes, 0, /*queue=*/7));  // hit: same regime
  EXPECT_EQ(omni.plan_cache_stats().misses, 2u);
  EXPECT_EQ(omni.plan_cache_stats().hits, 1u);
}

TEST(BaselinePlanCache, DistinctSituationsMiss) {
  const auto nodes = platform::paper_cluster();
  runtime::ModelSet models;
  baselines::ModnnStrategy modnn;
  const auto& graph = models.graph(dnn::zoo::ModelId::kVgg19);
  (void)plan_once(modnn, graph, snapshot(nodes, 0));
  (void)plan_once(modnn, graph, snapshot(nodes, 1));  // different leader
  auto degraded = snapshot(nodes, 0);
  degraded.available = {true, true, false, true, true};
  (void)plan_once(modnn, graph, degraded);  // different availability
  EXPECT_EQ(modnn.plan_cache_stats().hits, 0u);
  EXPECT_EQ(modnn.plan_cache_stats().misses, 3u);
}

TEST(BaselinePlanCache, EmptyAvailabilityDoesNotAliasAllDown) {
  // An empty availability vector means "everyone available" (worker
  // ordering skips nothing), while an explicit all-false means leader-only;
  // the cache key must distinguish them or the leader-only request replays
  // the all-node plan onto down nodes.
  const auto nodes = platform::paper_cluster();
  runtime::ModelSet models;
  baselines::ModnnStrategy modnn;
  const auto& graph = models.graph(dnn::zoo::ModelId::kResNet152);
  auto everyone = snapshot(nodes, 0);
  everyone.available.clear();
  (void)plan_once(modnn, graph, everyone);
  auto leader_only = snapshot(nodes, 0);
  leader_only.available.assign(nodes.size(), false);
  leader_only.available[0] = true;
  const Plan plan = plan_once(modnn, graph, leader_only);
  EXPECT_EQ(modnn.plan_cache_stats().hits, 0u);
  for (const auto& task : plan.tasks) {
    if (task.kind == runtime::PlanTask::Kind::kCompute) {
      EXPECT_EQ(task.node, 0u);
    }
  }
}

TEST(BaselinePlanCache, ClusterChangeInvalidates) {
  auto nodes = platform::paper_cluster();
  runtime::ModelSet models;
  baselines::DisnetStrategy disnet;
  const auto& graph = models.graph(dnn::zoo::ModelId::kResNet152);
  (void)plan_once(disnet, graph, snapshot(nodes, 0));
  (void)plan_once(disnet, graph, snapshot(nodes, 0));
  EXPECT_EQ(disnet.plan_cache_stats().hits, 1u);

  // Shrinking the cluster must drop the cached plans (and the cost models
  // priced against the old node vector/network).
  const auto smaller = platform::paper_cluster(3);
  const Plan plan = plan_once(disnet, graph, snapshot(smaller, 0));
  ASSERT_FALSE(plan.empty());
  EXPECT_NO_THROW(runtime::validate_plan(plan, smaller));
  EXPECT_EQ(disnet.plan_cache_stats().invalidations, 1u);
  for (const auto& task : plan.tasks) {
    if (task.kind == runtime::PlanTask::Kind::kCompute) {
      EXPECT_LT(task.node, smaller.size());
    }
  }
}

TEST(BaselinePlanCache, DisabledCacheNeverHits) {
  const auto nodes = platform::paper_cluster();
  runtime::ModelSet models;
  baselines::ModnnStrategy::Options options;
  options.plan_cache.enabled = false;
  baselines::ModnnStrategy modnn(options);
  const auto& graph = models.graph(dnn::zoo::ModelId::kResNet152);
  const Plan first = plan_once(modnn, graph, snapshot(nodes, 0));
  const Plan second = plan_once(modnn, graph, snapshot(nodes, 0));
  EXPECT_EQ(modnn.plan_cache_stats().hits, 0u);
  EXPECT_EQ(modnn.plan_cache_stats().misses, 0u);
  EXPECT_DOUBLE_EQ(first.phases.total(), second.phases.total());
}

TEST(SharedPlanPath, AllFourStrategiesCacheThroughPlanRequest) {
  // The redesigned surface: every strategy derives from CachingStrategyBase
  // and plans through the one PlanRequest -> CrossRequestPlanCache code
  // path. A repeated situation must be a hit for each of the four, visible
  // both in PlanResult::cache_hit and in the shared stats counters.
  const auto nodes = platform::paper_cluster();
  runtime::ModelSet models;
  const auto& graph = models.graph(dnn::zoo::ModelId::kInceptionV3);
  core::HidpStrategy::Options hidp_options;
  hidp_options.probe_availability = false;  // deterministic cache key
  core::HidpStrategy hidp(hidp_options);
  baselines::DisnetStrategy disnet;
  baselines::OmniboostStrategy omni;
  baselines::ModnnStrategy modnn;
  for (auto* strategy :
       std::initializer_list<runtime::IStrategy*>{&hidp, &disnet, &omni, &modnn}) {
    auto* cached = dynamic_cast<core::CachingStrategyBase*>(strategy);
    ASSERT_NE(cached, nullptr) << strategy->name();
    const runtime::PlanResult first = plan_request(*strategy, graph, snapshot(nodes, 1));
    const runtime::PlanResult second = plan_request(*strategy, graph, snapshot(nodes, 1));
    EXPECT_FALSE(first.cache_hit) << strategy->name();
    EXPECT_TRUE(second.cache_hit) << strategy->name();
    EXPECT_EQ(second.plan.tasks.size(), first.plan.tasks.size()) << strategy->name();
    EXPECT_EQ(cached->plan_cache_stats().misses, 1u) << strategy->name();
    EXPECT_EQ(cached->plan_cache_stats().hits, 1u) << strategy->name();
    // A deeper-queue regime fragments the key only as far as the strategy
    // actually reads the queue depth.
    const runtime::PlanResult queued = plan_request(*strategy, graph, snapshot(nodes, 1, 7));
    const bool queue_blind = cached->plan_cache_stats().hits == 2u;
    EXPECT_EQ(queue_blind, strategy == &modnn || strategy == &disnet) << strategy->name();
    (void)queued;
  }
}

/// Minimal CachingStrategyBase subclass: counts searches, plans a single
/// leader-local task. Lets the cache-key tests run on clusters far larger
/// than the planners are tuned for.
class CountingStrategy : public core::CachingStrategyBase {
 public:
  CountingStrategy() : CachingStrategyBase(CachePolicy{}) {}
  std::string name() const override { return "Counting"; }
  int fresh_calls = 0;

 protected:
  void plan_fresh(const runtime::PlanRequest& request, const std::vector<bool>& available,
                  core::CachedPlanEntry& entry) override {
    (void)available;
    ++fresh_calls;
    Plan plan;
    plan.strategy = name();
    plan.leader = request.snapshot.leader;
    runtime::PlanTask task;
    task.kind = runtime::PlanTask::Kind::kCompute;
    task.node = request.snapshot.leader;
    task.proc = 0;
    task.seconds = 0.01;
    task.flops = 1e9;
    plan.tasks.push_back(task);
    plan.nodes_used = 1;
    entry.plan = std::move(plan);
  }
  void on_cluster_change(core::ClusterChange) override {}
};

TEST(PlanCacheWideClusters, BeyondSixtyFourNodesStillCaches) {
  // Regression for the >64-node cliff: the single-word availability mask
  // used to make large fleets silently uncacheable — every request
  // replanned with no signal. The key now keeps exact multi-word
  // availability for big clusters.
  std::vector<platform::NodeModel> nodes;
  for (int i = 0; i < 80; ++i) nodes.push_back(platform::make_device("Raspberry Pi 4"));
  runtime::ModelSet models;
  const auto& graph = models.graph(dnn::zoo::ModelId::kEfficientNetB0);
  CountingStrategy strategy;

  const auto first = plan_request(strategy, graph, snapshot(nodes, 0));
  const auto second = plan_request(strategy, graph, snapshot(nodes, 0));
  EXPECT_FALSE(first.cache_hit);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(strategy.fresh_calls, 1);
  EXPECT_EQ(strategy.plan_cache_stats().hits, 1u);

  // Availability flips beyond bit 63 must key distinct situations.
  auto degraded = snapshot(nodes, 0);
  degraded.available[70] = false;
  const auto third = plan_request(strategy, graph, degraded);
  EXPECT_FALSE(third.cache_hit);
  EXPECT_EQ(strategy.fresh_calls, 2);

  // ... and each situation replays from its own entry afterwards.
  auto degraded_again = snapshot(nodes, 0);
  degraded_again.available[70] = false;
  EXPECT_TRUE(plan_request(strategy, graph, degraded_again).cache_hit);
  EXPECT_TRUE(plan_request(strategy, graph, snapshot(nodes, 0)).cache_hit);
  EXPECT_EQ(strategy.fresh_calls, 2);
}

TEST(PlanCacheWideClusters, EpochAdvancesOnClusterChange) {
  std::vector<platform::NodeModel> nodes;
  for (int i = 0; i < 66; ++i) nodes.push_back(platform::make_device("Jetson Nano"));
  runtime::ModelSet models;
  const auto& graph = models.graph(dnn::zoo::ModelId::kEfficientNetB0);
  CountingStrategy strategy;
  (void)plan_request(strategy, graph, snapshot(nodes, 0));
  const auto epoch = strategy.plan_cache_epoch();
  const auto smaller = platform::paper_cluster(3);
  (void)plan_request(strategy, graph, snapshot(smaller, 0));
  EXPECT_GT(strategy.plan_cache_epoch(), epoch);
}

TEST(Strategies, HidpPredictsLowestLatency) {
  // Contention-free critical paths: HiDP's plan must beat every baseline's
  // for each model (leader = TX2, the paper's Fig. 1 board).
  const auto nodes = platform::paper_cluster();
  const net::NetworkSpec network(nodes);
  runtime::ModelSet models;
  core::HidpStrategy hidp;
  baselines::DisnetStrategy disnet;
  baselines::OmniboostStrategy omni;
  baselines::ModnnStrategy modnn;
  for (const auto id : models.ids()) {
    const auto& graph = models.graph(id);
    const double t_hidp =
        runtime::critical_path_s(plan_once(hidp, graph, snapshot(nodes, 1)), nodes, network);
    for (runtime::IStrategy* baseline :
         std::initializer_list<runtime::IStrategy*>{&disnet, &omni, &modnn}) {
      const double t_base =
          runtime::critical_path_s(plan_once(*baseline, graph, snapshot(nodes, 1)), nodes, network);
      EXPECT_LT(t_hidp, t_base) << dnn::zoo::model_name(id) << " vs " << baseline->name();
    }
  }
}

}  // namespace
}  // namespace hidp
