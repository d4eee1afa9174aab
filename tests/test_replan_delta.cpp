// Incremental delta re-planning: equivalence and repair-path coverage.
//
// The delta path's contract is *provable equivalence*: a plan served off a
// repaired cache / re-priced cost model must be bit-identical to the plan a
// cold replan produces on the same post-event snapshot. The tests drive a
// HiDP strategy that observes one cluster through scripted DVFS, radio
// (Gilbert-Elliott style), link partition and churn events, compare every
// plan it serves against a freshly built strategy planning the same
// snapshot, cover the wholesale fallback for events that cannot be
// repaired, and pin the observability counters end to end (cache stats ->
// ServiceStats).
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

#include "core/hidp_strategy.hpp"
#include "core/plan_cache.hpp"
#include "partition/cost_model.hpp"
#include "runtime/churn.hpp"
#include "runtime/cluster.hpp"
#include "runtime/service.hpp"
#include "runtime/workload.hpp"

namespace hidp::runtime {
namespace {

using core::CrossRequestPlanCache;
using core::GlobalDecisionKey;
using core::HidpStrategy;
using dnn::zoo::ModelId;

core::HidpStrategy::Options test_options() {
  core::HidpStrategy::Options options;
  options.probe_noise_fraction = 0.0;  // determinism across strategies
  return options;
}

ClusterSnapshot snapshot_of(const Cluster& cluster, std::size_t leader) {
  ClusterSnapshot snap;
  snap.nodes = &cluster.nodes();
  snap.network = cluster.network().spec();
  snap.available.resize(cluster.size());
  for (std::size_t j = 0; j < cluster.size(); ++j) {
    snap.available[j] = cluster.node_available(j);
  }
  snap.leader = leader;
  return snap;
}

PlanRequest request_for(const dnn::DnnGraph& model, const Cluster& cluster,
                        std::size_t leader) {
  PlanRequest request;
  request.model = &model;
  request.snapshot = snapshot_of(cluster, leader);
  return request;
}

/// Bit-identical comparison of everything except the FSM phase charges —
/// those legitimately differ between a cache hit (cheap lookup) and a cold
/// replan, and their cheapness is the delta path's whole point.
void expect_plans_equal(const Plan& repaired, const Plan& cold, const char* what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(repaired.strategy, cold.strategy);
  EXPECT_EQ(repaired.global_mode, cold.global_mode);
  EXPECT_EQ(repaired.leader, cold.leader);
  EXPECT_DOUBLE_EQ(repaired.predicted_latency_s, cold.predicted_latency_s);
  EXPECT_DOUBLE_EQ(repaired.period_s, cold.period_s);
  EXPECT_EQ(repaired.nodes_used, cold.nodes_used);
  ASSERT_EQ(repaired.tasks.size(), cold.tasks.size());
  for (std::size_t i = 0; i < repaired.tasks.size(); ++i) {
    SCOPED_TRACE(i);
    const PlanTask& a = repaired.tasks[i];
    const PlanTask& b = cold.tasks[i];
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.node, b.node);
    EXPECT_EQ(a.proc, b.proc);
    EXPECT_DOUBLE_EQ(a.seconds, b.seconds);
    EXPECT_DOUBLE_EQ(a.flops, b.flops);
    EXPECT_EQ(a.from, b.from);
    EXPECT_EQ(a.to, b.to);
    EXPECT_EQ(a.bytes, b.bytes);
    EXPECT_EQ(a.deps, b.deps);
    EXPECT_EQ(a.label, b.label);
  }
}

/// A strategy observing the cluster (repairing its state on every event)
/// and the cold oracle: each plan it serves must equal the plan of a
/// freshly built strategy — no cache, no cost models — on the same
/// snapshot.
struct LockstepPair {
  explicit LockstepPair(Cluster& cluster) : delta(test_options()) {
    cluster.add_observer([this](const NodeEvent& event) { delta.on_node_event(event); });
  }
  void plan_and_compare(const dnn::DnnGraph& model, Cluster& cluster, std::size_t leader,
                        const char* what) {
    const PlanRequest request = request_for(model, cluster, leader);
    const Plan delta_plan = delta.plan(request).plan;
    HidpStrategy cold(test_options());
    const Plan cold_plan = cold.plan(request).plan;
    expect_plans_equal(delta_plan, cold_plan, what);
  }
  HidpStrategy delta;
};

// ---- per-node cost-model repricing -----------------------------------------

TEST(RepriceNode, BitIdenticalToFreshModelAfterDvfs) {
  Cluster cluster(platform::paper_cluster());
  ModelSet models;
  const dnn::DnnGraph& graph = models.graph(ModelId::kEfficientNetB0);
  partition::ClusterCostModel model(graph, cluster.nodes(), cluster.network().spec(),
                                    partition::NodeExecutionPolicy::kHierarchicalLocal);
  // Warm every memo the DSE consults: block decisions, rates, Psi.
  const std::size_t candidate_count = model.candidates().size();
  for (std::size_t node = 0; node < cluster.size(); ++node) {
    for (std::size_t ci = 0; ci < candidate_count; ++ci) {
      for (std::size_t cj = ci + 1; cj < candidate_count; ++cj) {
        model.node_time(node, static_cast<int>(ci), static_cast<int>(cj));
      }
    }
    model.node_rate_gflops(node);
  }
  model.psi(0);

  // DVFS mutates the live NodeModel in place; the cost model holds a
  // pointer to the vector, so only its memos are stale.
  cluster.set_dvfs_scale(2, 0.6);
  const std::size_t rows = model.reprice_node(2);
  EXPECT_GT(rows, 0u);

  partition::ClusterCostModel fresh(graph, cluster.nodes(), cluster.network().spec(),
                                    partition::NodeExecutionPolicy::kHierarchicalLocal);
  for (std::size_t node = 0; node < cluster.size(); ++node) {
    SCOPED_TRACE(node);
    EXPECT_DOUBLE_EQ(model.node_rate_gflops(node), fresh.node_rate_gflops(node));
    for (std::size_t ci = 0; ci < candidate_count; ++ci) {
      for (std::size_t cj = ci + 1; cj < candidate_count; ++cj) {
        EXPECT_DOUBLE_EQ(model.node_time(node, static_cast<int>(ci), static_cast<int>(cj)),
                         fresh.node_time(node, static_cast<int>(ci), static_cast<int>(cj)))
            << "node " << node << " block [" << ci << ", " << cj << ")";
      }
    }
  }
  const std::vector<double> repaired_psi = model.psi(0);
  const std::vector<double> fresh_psi = fresh.psi(0);
  ASSERT_EQ(repaired_psi.size(), fresh_psi.size());
  for (std::size_t i = 0; i < repaired_psi.size(); ++i) {
    EXPECT_DOUBLE_EQ(repaired_psi[i], fresh_psi[i]) << "psi[" << i << "]";
  }
}

// ---- lockstep equivalence over scripted event traces ------------------------

TEST(DeltaEquivalence, DvfsDegradeAndRecoverMatchColdReplans) {
  Cluster cluster(platform::paper_cluster());
  ModelSet models;
  LockstepPair pair(cluster);
  const ModelId zoo[] = {ModelId::kEfficientNetB0, ModelId::kResNet152, ModelId::kVgg19};
  for (const ModelId id : zoo) {
    pair.plan_and_compare(models.graph(id), cluster, 0, "warm");
  }
  // Degradation: scoped invalidation + per-node repricing on the delta side.
  cluster.set_dvfs_scale(4, 0.7);
  for (const ModelId id : zoo) {
    pair.plan_and_compare(models.graph(id), cluster, 0, "post-degrade");
  }
  // Improvement: the delta side must flush entries wholesale (a faster node
  // can newly win situations whose cached plans avoided it) but still
  // repair the cost models — plans must keep matching.
  cluster.set_dvfs_scale(4, 1.0);
  for (const ModelId id : zoo) {
    pair.plan_and_compare(models.graph(id), cluster, 0, "post-recover");
  }
  // The observing strategy actually took the repair path.
  EXPECT_GT(pair.delta.plan_cache_stats().partial_repriced_rows, 0u);
}

TEST(DeltaEquivalence, GilbertElliottRadioTraceMatchesColdReplans) {
  Cluster cluster(platform::paper_cluster());
  ModelSet models;
  LockstepPair pair(cluster);
  const ModelId zoo[] = {ModelId::kEfficientNetB0, ModelId::kResNet152};
  for (const ModelId id : zoo) {
    pair.plan_and_compare(models.graph(id), cluster, 0, "warm");
  }
  // Two-state Gilbert-Elliott radio on node 3: good <-> bad with fixed
  // transition probabilities, deterministic seed. Bad state degrades the
  // radio (delta: scoped invalidation); returning to good is an
  // improvement (delta: wholesale flush). Both must match cold replans.
  std::mt19937 rng(7);
  std::bernoulli_distribution to_bad(0.45);
  std::bernoulli_distribution to_good(0.6);
  bool bad = false;
  for (int step = 0; step < 12; ++step) {
    const bool next = bad ? !to_good(rng) : to_bad(rng);
    if (next != bad) {
      bad = next;
      if (bad) {
        cluster.set_radio_scale(3, 0.4, 1.5);
      } else {
        cluster.set_radio_scale(3, 1.0, 1.0);
      }
    }
    for (const ModelId id : zoo) {
      pair.plan_and_compare(models.graph(id), cluster, 0, bad ? "bad" : "good");
    }
  }
}

TEST(DeltaEquivalence, LinkPartitionAndHealMatchColdReplans) {
  Cluster cluster(platform::paper_cluster());
  ModelSet models;
  LockstepPair pair(cluster);
  const dnn::DnnGraph& graph = models.graph(ModelId::kResNet152);
  pair.plan_and_compare(graph, cluster, 0, "warm");
  cluster.set_link_up(1, 3, false);  // partition: degradation
  pair.plan_and_compare(graph, cluster, 0, "partitioned");
  cluster.set_link_up(1, 3, true);  // heal: improvement
  pair.plan_and_compare(graph, cluster, 0, "healed");
}

TEST(DeltaEquivalence, ChurnDownAndRejoinMatchColdReplans) {
  Cluster cluster(platform::paper_cluster());
  ModelSet models;
  LockstepPair pair(cluster);
  const ModelId zoo[] = {ModelId::kEfficientNetB0, ModelId::kVgg19};
  for (const ModelId id : zoo) {
    pair.plan_and_compare(models.graph(id), cluster, 0, "warm");
  }
  cluster.set_node_available(2, false);
  for (const ModelId id : zoo) {
    pair.plan_and_compare(models.graph(id), cluster, 0, "post-down");
  }
  cluster.set_node_available(2, true);
  for (const ModelId id : zoo) {
    pair.plan_and_compare(models.graph(id), cluster, 0, "post-rejoin");
  }
}

// ---- wholesale fallback -----------------------------------------------------
//
// Events that cannot be repaired still reach the strategy: they flush the
// plan cache wholesale and a DVFS change rebuilds the cost models.

TEST(WholesaleFallback, EventWithoutClusterStateFlushesAndRebuilds) {
  Cluster cluster(platform::paper_cluster());
  ModelSet models;
  const dnn::DnnGraph& graph = models.graph(ModelId::kResNet152);
  HidpStrategy strategy(test_options());  // not observing the cluster
  strategy.plan(request_for(graph, cluster, 0));

  // A hand-made event carries no post-event cluster state.
  cluster.set_dvfs_scale(4, 0.7);
  NodeEvent dvfs;
  dvfs.kind = NodeEvent::Kind::kDvfs;
  dvfs.node = 4;
  dvfs.dvfs_scale = 0.7;
  dvfs.prev_dvfs_scale = 1.0;
  ASSERT_EQ(dvfs.nodes, nullptr);
  const std::uint64_t epoch = strategy.plan_cache_epoch();
  strategy.on_node_event(dvfs);
  EXPECT_GT(strategy.plan_cache_epoch(), epoch);
  EXPECT_EQ(strategy.cost_model_rebuilds(), 1u);
  EXPECT_EQ(strategy.plan_cache_stats().partial_repriced_rows, 0u);
  EXPECT_EQ(strategy.plan_cache_stats().scoped_invalidations, 0u);
  HidpStrategy fresh(test_options());
  expect_plans_equal(strategy.plan(request_for(graph, cluster, 0)).plan,
                     fresh.plan(request_for(graph, cluster, 0)).plan, "post-dvfs");

  // A link event flushes too, keeping the compute memos.
  cluster.set_radio_scale(3, 0.4, 1.5);
  NodeEvent link;
  link.kind = NodeEvent::Kind::kLink;
  link.node = 3;
  link.bw_scale = 0.4;
  link.latency_scale = 1.5;
  const std::uint64_t epoch_before_link = strategy.plan_cache_epoch();
  strategy.on_node_event(link);
  EXPECT_GT(strategy.plan_cache_epoch(), epoch_before_link);
  EXPECT_EQ(strategy.cost_model_rebuilds(), 1u);
  EXPECT_EQ(strategy.plan_cache_stats().scoped_invalidations, 0u);
}

TEST(WholesaleFallback, EventFromForeignClusterFlushesAndRebuilds) {
  Cluster cluster(platform::paper_cluster());
  Cluster other(platform::paper_cluster());
  ModelSet models;
  const dnn::DnnGraph& graph = models.graph(ModelId::kResNet152);
  HidpStrategy strategy(test_options());
  other.add_observer([&strategy](const NodeEvent& event) { strategy.on_node_event(event); });
  strategy.plan(request_for(graph, cluster, 0));

  // The event carries post-event state, but of a cluster the cache was
  // never anchored to.
  const std::uint64_t epoch = strategy.plan_cache_epoch();
  other.set_dvfs_scale(4, 0.7);
  EXPECT_GT(strategy.plan_cache_epoch(), epoch);
  EXPECT_EQ(strategy.cost_model_rebuilds(), 1u);
  EXPECT_EQ(strategy.plan_cache_stats().partial_repriced_rows, 0u);
  EXPECT_EQ(strategy.plan_cache_stats().scoped_invalidations, 0u);
}

// ---- node-down re-keying ----------------------------------------------------

TEST(DeltaRekey, SurvivingEntryServesHitAfterNodeDeparture) {
  // Seven nodes; node 6 (a Pi 4) is the slowest, so it sits last in the
  // Psi worker ordering — beyond every explored sigma prefix (max 5) —
  // and HiDP's plans never assign it work. Its departure is exactly the
  // case the re-key path proves survivable.
  std::vector<platform::NodeModel> nodes;
  for (int i = 0; i < 6; ++i) nodes.push_back(platform::make_device("Jetson TX2"));
  nodes.push_back(platform::make_device("Raspberry Pi 4"));
  Cluster cluster(std::move(nodes));
  ModelSet models;
  const dnn::DnnGraph& graph = models.graph(ModelId::kEfficientNetB0);

  HidpStrategy delta(test_options());
  HidpStrategy cold(test_options());
  cluster.add_observer([&](const NodeEvent& event) { delta.on_node_event(event); });

  const Plan before = delta.plan(request_for(graph, cluster, 0)).plan;
  for (const PlanTask& task : before.tasks) {
    ASSERT_NE(task.node, 6u);
    ASSERT_NE(task.from, 6u);
    ASSERT_NE(task.to, 6u);
  }

  cluster.set_node_available(6, false);
  EXPECT_GE(delta.plan_cache_stats().rekeyed_entries, 1u);

  // The post-churn situation hits the re-keyed entry; the replayed plan is
  // bit-identical to a cold replan on the node-less snapshot.
  const std::size_t hits_before = delta.plan_cache_stats().hits;
  const Plan repaired = delta.plan(request_for(graph, cluster, 0)).plan;
  EXPECT_EQ(delta.plan_cache_stats().hits, hits_before + 1);
  const Plan recomputed = cold.plan(request_for(graph, cluster, 0)).plan;
  expect_plans_equal(repaired, recomputed, "post-departure");

  // Flapping recovery: the original entry was kept, so the rejoin serves a
  // hit too (availability is part of the key — no invalidation needed).
  cluster.set_node_available(6, true);
  const std::size_t hits_mid = delta.plan_cache_stats().hits;
  delta.plan(request_for(graph, cluster, 0));
  EXPECT_EQ(delta.plan_cache_stats().hits, hits_mid + 1);
}

// ---- cache-level scoped invalidation mechanics ------------------------------

TEST(ScopedInvalidation, DropsTouchingAndUnprovableEntriesOnly) {
  CrossRequestPlanCache<int> cache(16);
  const auto key_of = [](std::uint64_t mask, std::size_t leader) {
    GlobalDecisionKey key;
    key.leader = leader;
    key.availability_mask = mask;
    return key;
  };
  const auto touch_of = [](std::initializer_list<std::size_t> nodes) {
    std::vector<std::uint64_t> mask(1, 0);
    for (const std::size_t j : nodes) mask[0] |= std::uint64_t{1} << j;
    return mask;
  };
  cache.insert(key_of(0xF, 0), 1, touch_of({0, 1}));  // touches the event node
  cache.insert(key_of(0xF, 1), 2, touch_of({2, 3}));  // untouched, provable
  cache.insert(key_of(0xF, 2), 3);                    // unknown touch mask
  const std::size_t dropped = cache.invalidate_touching(
      0, NodeEvent::kNoPeer, [](const GlobalDecisionKey&, const int&) { return true; });
  EXPECT_EQ(dropped, 2u);  // the toucher and the unknown-mask entry
  EXPECT_EQ(cache.find(key_of(0xF, 0)), nullptr);
  ASSERT_NE(cache.find(key_of(0xF, 1)), nullptr);
  EXPECT_EQ(*cache.find(key_of(0xF, 1)), 2);
  EXPECT_EQ(cache.find(key_of(0xF, 2)), nullptr);
  EXPECT_EQ(cache.stats().scoped_invalidations, 2u);

  // A peer-scoped (link partition) event drops entries touching either end.
  cache.insert(key_of(0xF, 3), 4, touch_of({2}));
  cache.invalidate_touching(5, /*peer=*/2,
                            [](const GlobalDecisionKey&, const int&) { return true; });
  EXPECT_EQ(cache.find(key_of(0xF, 3)), nullptr);

  // An unprovable untouched entry is dropped when the survival predicate
  // declines it.
  cache.insert(key_of(0xF, 4), 5, touch_of({3}));
  cache.invalidate_touching(0, NodeEvent::kNoPeer,
                            [](const GlobalDecisionKey&, const int&) { return false; });
  EXPECT_EQ(cache.find(key_of(0xF, 4)), nullptr);
}

TEST(ScopedInvalidation, RekeyCopiesEligibleEntriesUnderClearedMask) {
  CrossRequestPlanCache<int> cache(16);
  GlobalDecisionKey key;
  key.availability_mask = 0xF;  // nodes 0..3 up
  std::vector<std::uint64_t> touch(1, 0b0011);  // touches nodes 0, 1
  cache.insert(key, 42, touch);
  // Node 3 leaves: the entry does not touch it, so a copy appears under the
  // cleared mask and the original survives for flapping recovery.
  const std::size_t rekeyed = cache.rekey_availability(
      3, [](const GlobalDecisionKey&, int& payload) {
        payload += 1;  // eligible() may rewrite the copy
        return true;
      });
  EXPECT_EQ(rekeyed, 1u);
  GlobalDecisionKey rekeyed_key = key;
  rekeyed_key.availability_mask = 0x7;
  ASSERT_NE(cache.find(rekeyed_key), nullptr);
  EXPECT_EQ(*cache.find(rekeyed_key), 43);
  ASSERT_NE(cache.find(key), nullptr);
  EXPECT_EQ(*cache.find(key), 42);
  EXPECT_EQ(cache.stats().rekeyed_entries, 1u);
  // A touching entry never re-keys.
  const std::size_t again = cache.rekey_availability(
      0, [](const GlobalDecisionKey&, int&) { return true; });
  EXPECT_EQ(again, 0u);
}

// ---- zero-event runs and stats propagation ----------------------------------

TEST(DeltaZeroEvent, ServiceRunDoesNoRepairWork) {
  ModelSet models;
  Cluster cluster(platform::paper_cluster());
  HidpStrategy strategy(test_options());
  ServiceOptions options;
  options.max_in_flight = 2;
  InferenceService service(cluster, strategy, /*leader=*/1, options);
  PoissonArrivals::Options poisson;
  poisson.rate_hz = 40.0;
  poisson.count = 30;
  poisson.seed = 11;
  PoissonArrivals arrivals(models, {ModelId::kEfficientNetB0, ModelId::kResNet152}, poisson);
  service.attach(&arrivals);
  const auto records = service.run();
  ASSERT_EQ(records.size(), 30u);
  // Without events there is nothing to repair, scope or flush.
  const core::DecisionCacheStats& stats = strategy.plan_cache_stats();
  EXPECT_GE(stats.hits, 1u);
  EXPECT_EQ(stats.invalidations, 0u);
  EXPECT_EQ(stats.scoped_invalidations, 0u);
  EXPECT_EQ(stats.rekeyed_entries, 0u);
  EXPECT_EQ(stats.partial_repriced_rows, 0u);
  EXPECT_EQ(service.stats().repaired_plans, 0u);
}

TEST(DeltaStats, PlannerCountersSurfaceInServiceStats) {
  Cluster cluster(platform::paper_cluster());
  HidpStrategy strategy(test_options());
  InferenceService service(cluster, strategy, /*leader=*/0);
  ModelSet models;
  service.submit(RequestSpec{0, &models.graph(ModelId::kEfficientNetB0), 0.0});
  service.submit(RequestSpec{1, &models.graph(ModelId::kEfficientNetB0), 1.0});
  // DVFS degradation on the leader between the two requests: the cached
  // plan touches its leader, so the entry drops (scoped) and the second
  // request replans fresh — off the per-node repaired cost model.
  ScriptedChurn trace({{0.5, 0, ChurnEvent::Action::kDvfs, 0.7}});
  ChurnInjector injector(cluster, trace);
  injector.start();
  const auto records = service.run();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].outcome, RequestOutcome::kCompleted);
  EXPECT_EQ(records[1].outcome, RequestOutcome::kCompleted);
  const ServiceStats& stats = service.stats();
  EXPECT_GE(stats.cold_replans, 1u);
  EXPECT_GE(stats.partial_repriced_rows, 1u);
  EXPECT_GE(stats.repaired_plans, 1u);
  // The mirror matches the strategy's own counters.
  const PlannerDeltaStats planner = strategy.planner_stats();
  EXPECT_EQ(stats.repaired_plans, planner.repaired_plans);
  EXPECT_EQ(stats.cold_replans, planner.cold_replans);
  EXPECT_EQ(stats.partial_repriced_rows, planner.partial_repriced_rows);
}

}  // namespace
}  // namespace hidp::runtime
