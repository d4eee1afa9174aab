// The fleet under test, built the same way by the DES workloads and by
// gateway-open: a ServiceFleet over the paired 8-node cluster with one
// HidpStrategy per shard, optionally wrapped in TimedStrategy.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common.hpp"
#include "core/hidp_strategy.hpp"
#include "runtime/churn.hpp"
#include "runtime/fleet.hpp"
#include "runtime/netfault.hpp"
#include "runtime/workload.hpp"
#include "trace.hpp"

namespace perfbench {

/// One generated arrival: time and index into fleet_mix().
struct Arrival {
  double time_s = 0.0;
  std::size_t model = 0;
};

struct FleetShape {
  std::size_t shards = 4;
  double rate_hz = 100.0;  ///< offered rate of the measured trace
  int count = 0;           ///< requests in the measured trace
  double limit_s = 0.2;    ///< the workload's latency limit
  double target_share = 0.99;  ///< share within the limit that capacity requires
  bool faults = false;     ///< churn, throttling and radio bursts; failover on
  std::vector<double> ladder;  ///< offered rates walked for capacity_rps
  int ladder_count = 0;        ///< requests per ladder rate
};

const std::vector<hidp::dnn::zoo::ModelId>& fleet_mix();
std::vector<Arrival> poisson_trace(std::uint64_t seed, double rate_hz, int count);
/// 4x (Orin NX + TX2): every 2-node slice gets the same hardware.
std::vector<hidp::platform::NodeModel> paired_cluster();
/// fleet-steady's fleet, shared with gateway-open.
FleetShape steady_shape();
/// Highest offered rate meeting the shape's latency objective (see
/// fleet_workloads.cpp); inputs derive from `seed`.
double capacity_rps(const FleetShape& shape, std::uint64_t seed);

class FleetRig {
 public:
  /// Builds graphs, cluster, strategies and fleet, warms every shard's plan
  /// cache for every model in the mix, and queues `trace` as the arrival
  /// source. With `log`, every shard plans through a TimedStrategy.
  FleetRig(const FleetShape& shape, const std::vector<Arrival>& trace, SpanLog* log);
  ~FleetRig();
  FleetRig(const FleetRig&) = delete;
  FleetRig& operator=(const FleetRig&) = delete;

  /// Runs the fleet over the queued trace. Also records the calling
  /// thread's CPU clock at the start, after every `kSegment` terminal
  /// outcomes and at the end (see cpu_marks()).
  std::vector<hidp::runtime::RequestRecord> run();
  /// CPU-clock readings of the last run(): the run split into segments of
  /// kSegment completions. The DES is deterministic, so segment k of two
  /// runs of one trace does the same work.
  const std::vector<double>& cpu_marks() const { return arrivals_->marks; }
  static constexpr std::size_t kSegment = 1000;

  hidp::runtime::ServiceFleet& fleet() { return *fleet_; }
  hidp::runtime::Cluster& cluster() { return cluster_; }
  const hidp::runtime::ModelSet& models() const { return models_; }

  void set_parent_span(std::int64_t parent);
  std::uint64_t plans() const;       ///< plan() calls seen by the decorators
  std::uint64_t cache_hits() const;  ///< of which PlanResult::cache_hit
  /// Planner counters accumulated after warm-up, summed over shards.
  hidp::runtime::PlannerDeltaStats planner_delta() const;

 private:
  void install_faults(double horizon_s);

  hidp::runtime::ModelSet models_;
  hidp::runtime::Cluster cluster_;
  hidp::runtime::LeastLoadedRouting routing_;
  std::vector<std::unique_ptr<hidp::core::HidpStrategy>> strategies_;
  std::vector<std::unique_ptr<TimedStrategy>> timed_;
  std::vector<hidp::runtime::PlannerDeltaStats> warm_stats_;
  std::unique_ptr<hidp::runtime::ServiceFleet> fleet_;
  /// Replays the trace and, on every kSegment-th terminal outcome, reads
  /// the CPU clock; the fleet feeds outcomes back through on_complete().
  struct MeteredReplay final : hidp::runtime::ArrivalProcess {
    explicit MeteredReplay(std::vector<hidp::runtime::RequestSpec> requests)
        : replay(std::move(requests)) {}
    std::optional<hidp::runtime::RequestSpec> next(double now_s) override {
      return replay.next(now_s);
    }
    void on_complete(const hidp::runtime::RequestRecord& record, double now_s) override;
    hidp::runtime::ReplayArrivals replay;
    std::size_t completions = 0;
    std::vector<double> marks;
  };
  std::unique_ptr<MeteredReplay> arrivals_;
  std::vector<std::unique_ptr<hidp::runtime::ChurnProcess>> churn_;
  std::vector<std::unique_ptr<hidp::runtime::NetDegradationProcess>> degradation_;
  std::vector<std::unique_ptr<hidp::runtime::ChurnInjector>> churn_injectors_;
  std::vector<std::unique_ptr<hidp::runtime::NetFaultInjector>> net_injectors_;
};

/// Per-run outcome of a fleet trace.
struct FleetOutcome {
  std::size_t completed = 0;
  std::size_t ok = 0;  ///< completed within the latency limit
  double p50_ms = 0.0;  ///< over completed requests
  double p99_ms = 0.0;
  double energy_j = 0.0;  ///< cluster energy per completed inference
  double completed_per_s = 0.0;
};

/// Summarises a finished run; with `checks`, also runs the output checks
/// (one record per request, ids 0..n-1, the fleet balance equation).
FleetOutcome summarize(FleetRig& rig, const std::vector<hidp::runtime::RequestRecord>& records,
                       std::size_t attempted, double limit_s, Result* checks);

}  // namespace perfbench
