// Simulated cluster: node models + DES resources (one per processor) + the
// wireless network, with energy integration over the run horizon.
//
// The Cluster is also the single authority for *dynamic* cluster state.
// Node churn (failures, repairs, DVFS frequency changes) enters through
// set_node_available() / set_dvfs_scale(), and link churn (radio
// degradation, partitions) through set_radio_scale() / set_link_up(): each
// effective change updates the network and node models, bumps a
// monotonically increasing membership_epoch(), and fans out a NodeEvent to
// registered observers — engines fail mid-flight work, services
// re-validate pending requests and invalidate plan caches, fleets evacuate
// dead or partitioned shards. The old network().set_available() back door
// is retired: it is private to the network now (Cluster is its only
// runtime caller), with set_available_for_test() left for network unit
// tests that have no Cluster.
//
// A Cluster can also be carved into node-subset shard views (ClusterView):
// each view is the planning scope of one fleet leader — it shares the
// parent's simulator, network and processor resources, but an engine
// scoped to it only sees member nodes, so several leaders can plan over
// disjoint node sets while being co-simulated on the one DES clock.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "net/network.hpp"
#include "platform/device_db.hpp"
#include "platform/power.hpp"
#include "sim/resource.hpp"
#include "sim/simulator.hpp"

namespace hidp::runtime {

class ClusterView;

/// One effective node- or link-state change, as delivered to observers.
struct NodeEvent {
  enum class Kind {
    kDown,  ///< node left the cluster (availability true -> false)
    kUp,    ///< node rejoined (availability false -> true)
    kDvfs,  ///< processor frequencies rescaled (compute model changed)
    kLink,  ///< network changed: radio degradation or a link partition
  };
  /// `peer` value for radio-wide kLink events (no specific link partner).
  static constexpr std::size_t kNoPeer = static_cast<std::size_t>(-1);

  Kind kind = Kind::kDown;
  std::size_t node = 0;
  double dvfs_scale = 1.0;   ///< new scale relative to construction (kDvfs)
  std::uint64_t epoch = 0;   ///< membership_epoch() after this change
  double time_s = 0.0;       ///< simulation time of the change
  // kLink payload: a radio rescale carries the new scales with
  // peer == kNoPeer; a link up/down carries the (node, peer) pair.
  std::size_t peer = kNoPeer;
  double bw_scale = 1.0;
  double latency_scale = 1.0;
  bool link_up = true;
  // Pre-event scales (construction-relative), so observers can classify a
  // change as a degradation or an improvement. Delta re-planning needs the
  // distinction: a degradation only worsens candidates involving the node,
  // so cached plans avoiding it provably keep winning; an improvement can
  // promote the node into plans that previously avoided it, which forces a
  // wholesale flush.
  double prev_dvfs_scale = 1.0;
  double prev_bw_scale = 1.0;
  double prev_latency_scale = 1.0;
  // Post-event cluster state, set by the Cluster before fan-out and valid
  // only for the synchronous observer call. Delta re-planning needs them:
  // a strategy repairing its caches at event time must re-anchor its drift
  // detection (compute fingerprint, network spec) to the state the event
  // produced. Hand-made events leave them null — observers then fall back
  // to wholesale invalidation.
  const std::vector<platform::NodeModel>* nodes = nullptr;
  const net::NetworkSpec* network = nullptr;
};

class Cluster {
 public:
  explicit Cluster(std::vector<platform::NodeModel> nodes,
                   net::MediumMode medium = net::MediumMode::kPerRadio);

  sim::Simulator& simulator() noexcept { return sim_; }
  const sim::Simulator& simulator() const noexcept { return sim_; }
  net::WirelessNetwork& network() noexcept { return *network_; }
  const net::WirelessNetwork& network() const noexcept { return *network_; }

  const std::vector<platform::NodeModel>& nodes() const noexcept { return nodes_; }
  std::size_t size() const noexcept { return nodes_.size(); }

  sim::Resource& processor(std::size_t node, std::size_t proc) {
    return *processors_.at(node).at(proc);
  }

  /// Busy seconds accumulated on one processor.
  double busy_s(std::size_t node, std::size_t proc) const {
    return processors_.at(node).at(proc)->busy_time();
  }

  /// Energy of one node over [0, horizon_s].
  platform::EnergyBreakdown node_energy(std::size_t node, double horizon_s) const;

  /// Total cluster energy over [0, horizon_s].
  double total_energy_j(double horizon_s) const;

  /// Whole-cluster view (scoping an engine to it is bit-identical to the
  /// unscoped engine).
  ClusterView view();

  /// Node-subset shard view over `members` (global node indices). Throws
  /// std::invalid_argument on empty, duplicate or out-of-range members.
  ClusterView shard(std::vector<std::size_t> members);

  // ---- dynamic node state ---------------------------------------------------

  /// Monotonic version of the cluster's dynamic state. Starts at 0 and
  /// bumps on every *effective* set_node_available / set_dvfs_scale /
  /// set_radio_scale / set_link_up change (idempotent calls are no-ops).
  /// Cached plans and shard views made under an older epoch may be stale.
  std::uint64_t membership_epoch() const noexcept { return membership_epoch_; }

  /// Marks a node (un)available, bumps the epoch and notifies observers.
  /// The canonical churn entry point; the raw network-level availability
  /// mutation is private to WirelessNetwork, so runtime code cannot bypass
  /// the epoch and fan-out. No-op if the availability already matches.
  void set_node_available(std::size_t node, bool available);

  /// Rescales a node's processor frequencies to `scale` x their
  /// construction-time values (DVFS). Absolute, not cumulative: calling
  /// with the current scale is a no-op; scale 1.0 restores the baseline.
  /// Bumps the epoch and notifies observers. Throws on scale <= 0.
  /// In-flight work keeps its planned task durations — a DVFS change is a
  /// performance shift, not a failure, so (like a shard rescope) it only
  /// affects plans made after the event; observers invalidate plan caches
  /// and cost models so those plans price the new frequencies.
  void set_dvfs_scale(std::size_t node, double scale);

  /// Current DVFS scale of a node (1.0 = construction-time frequencies).
  double dvfs_scale(std::size_t node) const { return dvfs_scale_.at(node); }

  /// Rescales a node's radio (bandwidth x bw_scale, protocol latency x
  /// latency_scale; absolute, 1.0/1.0 restores the construction-time
  /// characteristics). The canonical link-degradation entry point: the
  /// network re-times in-flight transfers touching the node, the epoch
  /// bumps, and a kLink NodeEvent fans out so strategies invalidate
  /// network-priced state. No-op if both scales already match; throws on
  /// scale <= 0.
  void set_radio_scale(std::size_t node, double bw_scale, double latency_scale);
  double radio_bw_scale(std::size_t node) const { return network_->spec().bw_scale(node); }
  double radio_latency_scale(std::size_t node) const {
    return network_->spec().latency_scale(node);
  }

  /// Partitions (up = false) or heals the (a, b) link. Taking a link down
  /// aborts in-flight transfers crossing it (their runs fail and retry via
  /// the service path), bumps the epoch and fans out a kLink NodeEvent
  /// carrying the pair. No-op if the link state already matches; throws on
  /// a == b or out-of-range endpoints.
  void set_link_up(std::size_t a, std::size_t b, bool up);
  bool link_up(std::size_t a, std::size_t b) const { return network_->spec().link_up(a, b); }

  bool node_available(std::size_t node) const { return network_->available(node); }

  /// Registers a node-state observer; returns an id for remove_observer().
  /// Observers fire synchronously, in registration order, after the network
  /// and node models reflect the change. The cluster must outlive every
  /// registered observer.
  std::size_t add_observer(std::function<void(const NodeEvent&)> observer);
  void remove_observer(std::size_t id);

 private:
  void notify(const NodeEvent& event);

  std::vector<platform::NodeModel> nodes_;
  sim::Simulator sim_;
  std::unique_ptr<net::WirelessNetwork> network_;
  std::vector<std::vector<std::unique_ptr<sim::Resource>>> processors_;
  std::vector<double> base_freq_ghz_;  ///< flattened per (node, proc)
  std::vector<std::size_t> freq_offset_;
  std::vector<double> dvfs_scale_;
  std::uint64_t membership_epoch_ = 0;
  struct Observer {
    std::size_t id;
    std::function<void(const NodeEvent&)> fn;
  };
  std::vector<Observer> observers_;
  std::size_t next_observer_id_ = 1;
};

/// Node-subset view of a Cluster: the planning/serving scope of one fleet
/// shard. Copyable value type holding the member set; the parent cluster
/// must outlive it.
class ClusterView {
 public:
  /// Whole-cluster view.
  explicit ClusterView(Cluster& cluster);
  /// Subset view; members are sorted. Throws on empty/duplicate/range.
  ClusterView(Cluster& cluster, std::vector<std::size_t> members);

  Cluster& cluster() const noexcept { return *cluster_; }
  /// Member node indices into cluster().nodes(), sorted ascending.
  const std::vector<std::size_t>& members() const noexcept { return members_; }
  /// Full-size membership mask (membership()[j] == node j is a member).
  const std::vector<bool>& membership() const noexcept { return membership_; }
  bool whole_cluster() const noexcept { return whole_; }
  bool contains(std::size_t node) const noexcept {
    return node < membership_.size() && membership_[node];
  }
  /// Network availability restricted to member nodes (non-members read as
  /// down). For a whole-cluster view this is the raw availability vector.
  std::vector<bool> visible_availability() const;

 private:
  Cluster* cluster_;
  std::vector<std::size_t> members_;
  std::vector<bool> membership_;
  bool whole_ = false;
};

}  // namespace hidp::runtime
