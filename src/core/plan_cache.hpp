// Cross-request plan caching, shared by HiDP and the baseline strategies.
//
// Steady-state streaming traffic mostly repeats the same planning
// situation: same model, same leader, same probed availability, same
// queue-depth bucket. PR 1 gave HiDP a GlobalDecision/Plan cache keyed on
// exactly that situation; PR 2 factored the cache out so the baselines plan
// at HiDP-comparable speed. This PR finishes the unification:
// CachingStrategyBase is the one code path every strategy's
// plan(PlanRequest) goes through — cluster-epoch refresh, Analyze hook,
// key construction with per-strategy queue sensitivity, hit replay with
// phase stamping, miss planning and store — so the four strategies differ
// only in their plan_fresh() search, not in their serving-loop plumbing.
#pragma once

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/dse_agent.hpp"
#include "runtime/engine.hpp"
#include "util/hash.hpp"

namespace hidp::core {

/// Compute-side fingerprint of the cluster's nodes: catches in-place
/// mutations (DVFS-style frequency/core changes) that leave the vector
/// address and radio spec unchanged. Efficiency-table edits are not
/// covered — callers doing those should use a fresh node vector.
std::uint64_t cluster_compute_fingerprint(const std::vector<platform::NodeModel>& nodes);

/// Which component of the cluster changed, for granular derived-state
/// invalidation. A compute change (DVFS, node-model edits) staleness every
/// per-node rate and local-DSE memo, so cost models rebuild; a
/// network-only change (radio degradation, partitions) staleness only the
/// transfer pricing, which a cost model can re-point at the new spec while
/// keeping its expensive compute memos.
enum class ClusterChange {
  kCompute,  ///< node compute models changed (rates, local DSE stale)
  kNetwork,  ///< link characteristics changed (transfer pricing stale)
};

/// What CrossRequestPlanCache::refresh_cluster detected.
struct ClusterRefresh {
  bool nodes_changed = false;
  bool network_changed = false;
  bool any() const noexcept { return nodes_changed || network_changed; }
};

/// How much of the queue depth a strategy's planning actually reads —
/// keying on more than that fragments its plan cache for nothing.
enum class QueueSensitivity {
  kNone,      ///< MoDNN/DisNet: queue depth never consulted
  kBinary,    ///< OmniBoost: objective switches on queue_depth > 0
  kBucketed,  ///< HiDP: queue-aware score, log2-bucketed via queue_depth_bucket
};

/// Cross-request plan cache keyed by the steady-state planning situation.
/// `Payload` is whatever the strategy wants replayed on a hit. The cache
/// holds whole payloads, so it is bounded: at `capacity` entries it is
/// flushed wholesale (epoch eviction — availability flapping would
/// otherwise grow it forever).
///
/// Delta re-planning support: every entry carries the node-touch mask of
/// its plan, so churn/DVFS/link events can invalidate *only the entries a
/// changed node can affect* (invalidate_touching), re-key entries whose
/// plan provably survives a node's departure onto the post-churn
/// availability mask (rekey_availability), and re-anchor the cache's drift
/// detection to the post-event cluster (rebase_compute/rebase_network) so
/// refresh_cluster does not wholesale-flush the surviving entries at the
/// next plan.
template <typename Payload>
class CrossRequestPlanCache {
 public:
  explicit CrossRequestPlanCache(std::size_t capacity = 256) : capacity_(capacity) {}

  /// Nodes a plan can be affected by: its leader plus every compute /
  /// transfer / exchange endpoint, as one bit-word per 64 nodes.
  static void plan_touch_mask(const runtime::Plan& plan, std::size_t node_count,
                              std::vector<std::uint64_t>* mask) {
    mask->assign((std::max<std::size_t>(node_count, 1) + 63) / 64, 0);
    const auto set = [mask](std::size_t j) {
      if (j / 64 < mask->size()) (*mask)[j / 64] |= std::uint64_t{1} << (j % 64);
    };
    set(plan.leader);
    for (const runtime::PlanTask& task : plan.tasks) {
      if (task.kind == runtime::PlanTask::Kind::kCompute) {
        set(task.node);
      } else {
        set(task.from);
        set(task.to);
      }
    }
  }

  /// Builds the key for one planning situation, except `queue_bucket`,
  /// which the caller sets per its QueueSensitivity (the one source of
  /// queue-bucketing truth is CachingStrategyBase). Clusters up to 64 nodes
  /// pack availability into one word; larger fleets keep the exact
  /// bit-words in `wide_mask` (plus a digest for hashing), so no cluster
  /// size is silently uncacheable.
  static void make_key(const dnn::DnnGraph& model, const runtime::ClusterSnapshot& snap,
                       const std::vector<bool>& available, GlobalDecisionKey* key) {
    key->model = &model;
    key->model_layers = model.size();
    key->model_flops = model.total_flops();
    key->leader = snap.leader;
    key->availability_mask = 0;
    key->wide_mask.clear();
    const std::size_t n = snap.nodes->size();
    // Worker ordering treats indices beyond the vector as available, so
    // the mask must too — otherwise a short (or empty) vector aliases an
    // explicit all-false one and replays a plan onto down nodes.
    const auto node_up = [&available](std::size_t j) {
      return j >= available.size() || available[j];
    };
    if (n <= 64) {
      for (std::size_t j = 0; j < n; ++j) {
        if (node_up(j)) key->availability_mask |= std::uint64_t{1} << j;
      }
    } else {
      key->wide_mask.assign((n + 63) / 64, 0);
      for (std::size_t j = 0; j < n; ++j) {
        if (node_up(j)) key->wide_mask[j / 64] |= std::uint64_t{1} << (j % 64);
      }
      util::Fnv1a digest;
      for (const std::uint64_t word : key->wide_mask) digest.mix(word);
      key->availability_mask = digest.digest();
    }
    key->queue_bucket = 0;
  }

  /// Drops every entry when the cluster's nodes or network changed since
  /// the last call, reporting *which* component drifted so callers holding
  /// per-cluster cost models can invalidate exactly the stale part
  /// (compute memos on a node change, transfer pricing on a network one).
  ClusterRefresh refresh_cluster(const runtime::ClusterSnapshot& snap) {
    const std::uint64_t fingerprint = cluster_compute_fingerprint(*snap.nodes);
    ClusterRefresh refresh;
    refresh.nodes_changed = cached_nodes_ != snap.nodes || cached_fingerprint_ != fingerprint;
    refresh.network_changed = !(cached_network_ == snap.network);
    if (!refresh.any()) return refresh;
    if (!entries_.empty()) ++stats_.invalidations;
    ++epoch_;
    entries_.clear();
    cached_nodes_ = snap.nodes;
    cached_fingerprint_ = fingerprint;
    cached_network_ = snap.network;
    return refresh;
  }

  /// Cached payload for the situation, or nullptr (counts hits/misses).
  const Payload* find(const GlobalDecisionKey& key) {
    auto it = entries_.find(key);
    if (it == entries_.end()) {
      ++stats_.misses;
      return nullptr;
    }
    ++stats_.hits;
    return &it->second.payload;
  }

  /// Stores a payload with its plan's node-touch mask (empty = unknown; an
  /// unknown mask never survives scoped invalidation because the survival
  /// predicate cannot prove anything about it).
  void insert(const GlobalDecisionKey& key, Payload payload,
              std::vector<std::uint64_t> touch = {}) {
    if (entries_.size() >= capacity_) {
      entries_.clear();
      ++epoch_;
    }
    entries_.emplace(key, Slot{std::move(payload), std::move(touch)});
  }

  /// Scoped invalidation for a degradation event on `node` (and `peer` for
  /// a link partition): drops every entry whose plan touches the node(s),
  /// plus any untouched entry the strategy cannot prove survives —
  /// `survives(key, payload)` is consulted only for untouched entries.
  /// Sound for degradations only: the event worsens exactly the candidates
  /// involving the node, so an untouched (and structurally unaffected)
  /// cached winner still beats them. Does NOT bump the epoch — surviving
  /// entries stay replayable.
  template <typename SurvivesFn>
  std::size_t invalidate_touching(std::size_t node, std::size_t peer, SurvivesFn&& survives) {
    std::size_t dropped = 0;
    for (auto it = entries_.begin(); it != entries_.end();) {
      const bool touched =
          mask_bit(it->second.touch, node) ||
          it->second.touch.empty() ||
          (peer != static_cast<std::size_t>(-1) && mask_bit(it->second.touch, peer));
      if (touched || !survives(it->first, it->second.payload)) {
        it = entries_.erase(it);
        ++dropped;
      } else {
        ++it;
      }
    }
    stats_.scoped_invalidations += dropped;
    return dropped;
  }

  /// Node-down repair: entries planned with `node` available whose plan
  /// does not touch it get *copied* under the availability mask with the
  /// node's bit cleared, so post-churn requests hit immediately. The
  /// originals are kept — a flapping node coming back re-hits them.
  /// `eligible(key, payload&)` must return whether a cold replan on the
  /// node-less snapshot provably reproduces the payload, and may rewrite
  /// the copy (e.g. scrub the node from the decision's worker list) to
  /// match what that cold replan would have recorded. Never evicts: copies
  /// stop at capacity instead of triggering the wholesale flush.
  template <typename EligibleFn>
  std::size_t rekey_availability(std::size_t node, EligibleFn&& eligible) {
    std::vector<std::pair<GlobalDecisionKey, Slot>> added;
    for (const auto& [key, slot] : entries_) {
      if (slot.touch.empty() || mask_bit(slot.touch, node)) continue;
      GlobalDecisionKey rekeyed = key;
      if (rekeyed.wide_mask.empty()) {
        if (node >= 64 || (rekeyed.availability_mask >> node & 1) == 0) continue;
        rekeyed.availability_mask &= ~(std::uint64_t{1} << node);
      } else {
        if (node / 64 >= rekeyed.wide_mask.size() ||
            (rekeyed.wide_mask[node / 64] >> (node % 64) & 1) == 0) {
          continue;
        }
        rekeyed.wide_mask[node / 64] &= ~(std::uint64_t{1} << (node % 64));
        util::Fnv1a digest;
        for (const std::uint64_t word : rekeyed.wide_mask) digest.mix(word);
        rekeyed.availability_mask = digest.digest();
      }
      if (entries_.count(rekeyed) != 0) continue;
      Slot copy = slot;
      if (!eligible(key, copy.payload)) continue;
      added.emplace_back(std::move(rekeyed), std::move(copy));
    }
    std::size_t rekeyed_count = 0;
    for (auto& [key, slot] : added) {
      if (entries_.size() >= capacity_) break;
      entries_.emplace(std::move(key), std::move(slot));
      ++rekeyed_count;
    }
    stats_.rekeyed_entries += rekeyed_count;
    return rekeyed_count;
  }

  /// Whether the cache's drift detection is anchored to exactly this node
  /// vector — the precondition for every delta repair (an event for a
  /// different cluster, or a cache that never planned, must fall back to
  /// the wholesale path).
  bool anchored_to(const std::vector<platform::NodeModel>* nodes) const noexcept {
    return cached_nodes_ != nullptr && cached_nodes_ == nodes;
  }

  /// Re-anchors compute-drift detection to the post-event node state, so
  /// the next refresh_cluster does not read a repaired change as drift and
  /// wholesale-flush the surviving entries. Only valid after the derived
  /// compute state (cost models) has been repaired to match `nodes`.
  void rebase_compute(const std::vector<platform::NodeModel>& nodes) {
    cached_fingerprint_ = cluster_compute_fingerprint(nodes);
  }

  /// Network counterpart of rebase_compute.
  void rebase_network(const net::NetworkSpec& network) { cached_network_ = network; }

  /// Eager wholesale invalidation. Resets the cached cluster identity too,
  /// so the next refresh_cluster re-fingerprints from scratch (and reports
  /// both components changed).
  void invalidate() {
    invalidate_entries();
    cached_nodes_ = nullptr;
    cached_fingerprint_ = 0;
    cached_network_ = net::NetworkSpec();
  }

  /// Eager entry flush that keeps the cached cluster identity (churn
  /// observers drive this at the event instant, rather than waiting for
  /// refresh_cluster to detect drift at the next plan). The next
  /// refresh_cluster then reports exactly the component that actually
  /// drifted — a link event must not read as a compute change, or granular
  /// cost-model invalidation degenerates to a full rebuild.
  void invalidate_entries() {
    if (!entries_.empty()) ++stats_.invalidations;
    ++epoch_;
    entries_.clear();
  }

  const DecisionCacheStats& stats() const noexcept { return stats_; }

  /// Mutable counters, for strategies accounting delta-repair work (cold
  /// vs repaired plans, repriced rows) that only they can observe.
  DecisionCacheStats& stats_mutable() noexcept { return stats_; }

  /// Cache generation: bumps on every wholesale flush (cluster change or
  /// capacity eviction). Fleet shards each run their own cache, so their
  /// epochs advance independently.
  std::uint64_t epoch() const noexcept { return epoch_; }

 private:
  struct Slot {
    Payload payload;
    std::vector<std::uint64_t> touch;  ///< plan_touch_mask of the payload
  };

  static bool mask_bit(const std::vector<std::uint64_t>& mask, std::size_t j) noexcept {
    return j / 64 < mask.size() && (mask[j / 64] >> (j % 64) & 1) != 0;
  }

  std::size_t capacity_;
  std::unordered_map<GlobalDecisionKey, Slot, GlobalDecisionKeyHash> entries_;
  DecisionCacheStats stats_;
  std::uint64_t epoch_ = 0;
  const std::vector<platform::NodeModel>* cached_nodes_ = nullptr;
  std::uint64_t cached_fingerprint_ = 0;
  net::NetworkSpec cached_network_;
};

/// What every strategy caches per planning situation: the compiled plan
/// (phases unset — they are stamped per request) plus the DSE decision for
/// strategies that expose one (HiDP).
struct CachedPlanEntry {
  runtime::Plan plan;
  GlobalDecision decision;
  bool has_decision = false;
};

/// The shared serving-side planning path. Subclasses implement the actual
/// search (plan_fresh) and may hook the Analyze phase and cache
/// invalidation; everything else — epoch refresh, key construction, queue
/// bucketing, hit replay, phase stamping, storing — lives here once.
class CachingStrategyBase : public runtime::IStrategy {
 public:
  /// Cache behaviour + the FSM phase charges stamped on every plan.
  struct CachePolicy {
    bool enabled = true;
    std::size_t capacity = 256;
    QueueSensitivity queue = QueueSensitivity::kNone;
    double fresh_explore_s = 0.0;  ///< Explore charge on a cache miss
    double fresh_map_s = 0.0;      ///< Map charge on a cache miss
    double hit_explore_s = 0.0;    ///< Explore charge on a hit (table lookup)
    double hit_map_s = 0.0;        ///< Map charge on a hit
  };

  runtime::PlanResult plan(const runtime::PlanRequest& request) final;

  /// Churn notification (services forward Cluster node events here),
  /// answered at the event instant by in-place repair: degradations scope
  /// the invalidation to entries the node can affect, DVFS changes re-price
  /// only the changed node's cost-model rows (repair_compute), and node
  /// departures re-key provably surviving entries onto the post-churn
  /// availability mask.
  ///
  /// When repair is impossible — the event carries no post-event cluster
  /// state, comes from a cluster the cache is not anchored to, or the
  /// strategy has no repair_compute — the wholesale path runs instead: a
  /// DVFS or link event drops every cached plan, and on_cluster_change
  /// relays the exact component (kCompute vs kNetwork) so cost models
  /// invalidate granularly. Availability changes keep the cache either
  /// way: keys carry the exact availability mask, so plans for other
  /// membership states stay valid (and flapping nodes don't flush
  /// everything).
  void on_node_event(const runtime::NodeEvent& event) override;

  /// Delta-repair counters, aggregated service-side into ServiceStats.
  runtime::PlannerDeltaStats planner_stats() const override {
    const DecisionCacheStats& s = cache_.stats();
    runtime::PlannerDeltaStats out;
    out.repaired_plans = s.repaired_plans;
    out.cold_replans = s.cold_replans;
    out.partial_repriced_rows = s.partial_repriced_rows;
    out.scoped_invalidations = s.scoped_invalidations;
    out.rekeyed_entries = s.rekeyed_entries;
    return out;
  }

  /// Cross-request plan-cache counters (hits mean the search was skipped).
  const DecisionCacheStats& plan_cache_stats() const noexcept { return cache_.stats(); }

  /// Plan-cache generation (see CrossRequestPlanCache::epoch).
  std::uint64_t plan_cache_epoch() const noexcept { return cache_.epoch(); }

 protected:
  explicit CachingStrategyBase(CachePolicy policy)
      : policy_(policy), cache_(policy.capacity) {}

  /// Analyze-phase hook, run before the cache probe. May probe availability
  /// (HiDP's pseudo packets) by rewriting `available`; returns the seconds
  /// charged as the Analyze phase. Default: trust the snapshot, zero cost.
  virtual double analyze(const runtime::PlanRequest& request, std::vector<bool>& available);

  /// The strategy's search, run on a cache miss. Fills `entry.plan` with
  /// phases unset; strategies tracking a GlobalDecision also fill
  /// `entry.decision` and set `entry.has_decision`.
  virtual void plan_fresh(const runtime::PlanRequest& request,
                          const std::vector<bool>& available, CachedPlanEntry& entry) = 0;

  /// Observation hook invoked with the winning plan (fresh or replayed)
  /// after phase stamping — HiDP records its last decision and drives its
  /// FSM trace here. `decision` is null when the entry carries none.
  virtual void on_planned(const runtime::PlanRequest& request, const runtime::Plan& plan,
                          const GlobalDecision* decision, double analyze_s, bool cache_hit);

  /// The cluster changed: per-cluster state derived from stale hardware
  /// assumptions must be invalidated. `change` names the stale component —
  /// kCompute drops cost models wholesale (per-node rates and local-DSE
  /// memos are wrong), kNetwork only requires re-pointing their transfer
  /// pricing at the current spec (ClusterCostModel::set_network), keeping
  /// the expensive compute memos. May fire more than once per actual edit
  /// (eagerly at the churn event, again when refresh_cluster confirms the
  /// drift); implementations must be idempotent.
  virtual void on_cluster_change(ClusterChange change) = 0;

  const CachePolicy& cache_policy() const noexcept { return policy_; }

  /// repair_compute() return value meaning "no repair path — fall back to
  /// the wholesale kCompute invalidation".
  static constexpr std::size_t kNoRepair = static_cast<std::size_t>(-1);

  /// Repairs per-cluster derived compute state (cost models) after node
  /// `node`'s compute characteristics changed, returning the number of
  /// memo rows rebuilt/dropped, or kNoRepair when the strategy has no
  /// per-node repricing path (the base class then falls back to the
  /// wholesale kCompute invalidation). Default: no repair path.
  virtual std::size_t repair_compute(std::size_t node);

  /// Whether a cached entry provably survives a *degradation* on `node`
  /// that does not touch its plan — i.e. a cold replan on the post-event
  /// snapshot would reproduce it bit-identically. `compute_change` is true
  /// for DVFS changes and node departures (the node's rate reorders /
  /// leaves the Psi worker ordering, so prefix-structured searches must
  /// prove the node sat beyond every explored prefix) and false for
  /// link-only degradations (worker ordering is rate-derived and
  /// unchanged). Default: nothing survives — strategies without a provable
  /// search structure degrade to dropping untouched entries too (still an
  /// improvement over the wholesale flush only via repair_compute).
  virtual bool entry_survives_degradation(const GlobalDecisionKey& key,
                                          const CachedPlanEntry& entry, std::size_t node,
                                          bool compute_change) const;

  /// Counters for the strategy's cost-model accounting: a fresh plan that
  /// paid a full cost-model construction vs one served off a repaired
  /// (partially re-priced) model.
  void count_cold_replan() { ++cache_.stats_mutable().cold_replans; }
  void count_repaired_plan() { ++cache_.stats_mutable().repaired_plans; }

 private:
  int queue_bucket(int queue_depth) const noexcept;

  /// The delta path of on_node_event. Returns false when a precondition is
  /// missing (no event state, foreign cluster, no repair path) — the
  /// caller then runs the wholesale path.
  bool delta_repair(const runtime::NodeEvent& event);

  CachePolicy policy_;
  CrossRequestPlanCache<CachedPlanEntry> cache_;
};

}  // namespace hidp::core
