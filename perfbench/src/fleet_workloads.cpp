// fleet-steady and fleet-faults: the sharded DES fleet on the paired
// 8-node cluster, fed a Poisson open loop over EfficientNet-B0, ResNet-152
// and Inception-V3 that the benchmark generates from --seed.
//
// Each pass builds a new fleet (timed as set-up), replays the
// same trace (timed as host CPU), and checks the outcome. Passes repeat
// until the time budget is spent; set-up is reported as the median over
// passes and host time as described at SegmentCost. The simulated figures
// must be bit-identical between passes, which is itself checked.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/hidp_strategy.hpp"
#include "fleet_rig.hpp"
#include "runtime/churn.hpp"
#include "runtime/fleet.hpp"
#include "runtime/metrics.hpp"
#include "runtime/netfault.hpp"
#include "platform/device_db.hpp"
#include "trace.hpp"

namespace perfbench {

using hidp::dnn::zoo::ModelId;
namespace rt = hidp::runtime;

const std::vector<ModelId>& fleet_mix() {
  static const std::vector<ModelId> mix{ModelId::kEfficientNetB0, ModelId::kResNet152,
                                        ModelId::kInceptionV3};
  return mix;
}

std::vector<Arrival> poisson_trace(std::uint64_t seed, double rate_hz, int count) {
  InputRng rng(seed);
  std::vector<Arrival> trace;
  trace.reserve(static_cast<std::size_t>(count));
  double t = 0.0;
  for (int i = 0; i < count; ++i) {
    t += rng.exponential(rate_hz);
    trace.push_back({t, rng.pick(fleet_mix().size())});
  }
  return trace;
}

std::vector<hidp::platform::NodeModel> paired_cluster() {
  std::vector<hidp::platform::NodeModel> nodes;
  for (int i = 0; i < 4; ++i) {
    nodes.push_back(hidp::platform::make_device("Jetson Orin NX"));
    nodes.push_back(hidp::platform::make_device("Jetson TX2"));
  }
  return nodes;
}

FleetRig::FleetRig(const FleetShape& shape, const std::vector<Arrival>& trace, SpanLog* log)
    : cluster_(paired_cluster()) {
  const std::size_t span = cluster_.size() / shape.shards;
  std::vector<rt::FleetShard> shards;
  for (std::size_t s = 0; s < shape.shards; ++s) {
    strategies_.push_back(std::make_unique<hidp::core::HidpStrategy>());
    rt::IStrategy* strategy = strategies_.back().get();
    if (log != nullptr) {
      timed_.push_back(std::make_unique<TimedStrategy>(*strategies_.back(), *log));
      strategy = timed_.back().get();
    }
    rt::FleetShard shard;
    shard.strategy = strategy;
    for (std::size_t n = 0; n < span; ++n) shard.nodes.push_back(s * span + n);
    shard.leader = s * span + 1;  // the shard's TX2, as in the paper's setup
    shard.service.max_in_flight = 2;
    shard.service.max_pending = 16;
    if (shape.faults) {
      shard.service.max_retries = 3;
      shard.service.transfer_timeout_factor = 4.0;
    }
    shards.push_back(std::move(shard));
  }
  rt::FleetOptions options;
  options.failover.enabled = shape.faults;
  fleet_ = std::make_unique<rt::ServiceFleet>(cluster_, shards, routing_, options);
  for (std::size_t s = 0; s < shape.shards; ++s) fleet_->shard(s).engine().set_trace_capacity(0);

  // Warm every shard's plan cache for every model of the mix, through the
  // undecorated strategy so warm-up plans stay out of the planner spans.
  for (std::size_t s = 0; s < shape.shards; ++s) {
    for (const ModelId id : fleet_mix()) {
      strategies_[s]->plan(fleet_->shard(s).engine().make_plan_request(
          models_.graph(id), rt::QosClass::kStandard, 0.0, 0));
    }
    warm_stats_.push_back(strategies_[s]->planner_stats());
  }

  std::vector<rt::RequestSpec> specs;
  specs.reserve(trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    rt::RequestSpec spec;
    spec.id = static_cast<int>(i);
    spec.model = &models_.graph(fleet_mix()[trace[i].model]);
    spec.arrival_s = trace[i].time_s;
    specs.push_back(spec);
  }
  arrivals_ = std::make_unique<MeteredReplay>(std::move(specs));
  arrivals_->marks.reserve(trace.size() / kSegment + 2);
  fleet_->attach(arrivals_.get());
  if (shape.faults && !trace.empty()) install_faults(trace.back().time_s);
}

FleetRig::~FleetRig() = default;

void FleetRig::MeteredReplay::on_complete(const rt::RequestRecord& record, double now_s) {
  replay.on_complete(record, now_s);
  if (++completions % kSegment == 0) marks.push_back(thread_cpu_s());
}

std::vector<rt::RequestRecord> FleetRig::run() {
  arrivals_->marks.clear();
  arrivals_->completions = 0;
  arrivals_->marks.push_back(thread_cpu_s());
  auto records = fleet_->run();
  arrivals_->marks.push_back(thread_cpu_s());
  return records;
}

// Churn on every node of shard 0 (its leader included), thermal throttle
// waves on one Orin worker per shard and Gilbert–Elliott radio bursts on
// every worker; a repair and heal wave at the horizon closes the trace so
// parked work resolves inside the run. The fault processes draw from fixed
// seeds: they are part of the workload's definition, while --seed varies the
// requests. With seeded faults, the p99 of five seeds spread by a fifth.
void FleetRig::install_faults(double horizon_s) {
  rt::MtbfChurn::Options churn;
  churn.mtbf_s = 5.0;
  churn.mttr_s = 1.0;
  churn.horizon_s = horizon_s;
  churn.seed = 23;
  churn.nodes = {0, 1, 2, 3};
  churn_.push_back(std::make_unique<rt::MtbfChurn>(churn));

  std::vector<rt::ChurnEvent> script;
  for (int k = 1; k <= 8; ++k) {
    const double t = horizon_s * static_cast<double>(k) / 9.0;
    const double scale = (k % 2 != 0) ? 0.7 : 1.0;
    script.push_back({t, 0, rt::ChurnEvent::Action::kDvfs, scale});
    script.push_back({t, 4, rt::ChurnEvent::Action::kDvfs, scale});
  }
  for (std::size_t node = 0; node < 4; ++node) {
    script.push_back({horizon_s, node, rt::ChurnEvent::Action::kRepair, 1.0});
  }
  churn_.push_back(std::make_unique<rt::ScriptedChurn>(std::move(script)));

  const std::vector<std::size_t> workers{0, 2, 3, 4, 6, 7};
  rt::GilbertElliottDegradation::Options bursts;
  bursts.nodes = workers;
  bursts.good_s = 4.0;
  bursts.bad_s = 0.5;
  bursts.bad_bw_scale = 0.05;
  bursts.bad_latency_scale = 2.0;
  bursts.horizon_s = horizon_s;
  bursts.seed = 31;
  degradation_.push_back(std::make_unique<rt::GilbertElliottDegradation>(bursts));
  std::vector<rt::NetEvent> heals;
  for (const std::size_t node : workers) {
    rt::NetEvent heal;
    heal.time_s = horizon_s;
    heal.node = node;
    heals.push_back(heal);
  }
  degradation_.push_back(std::make_unique<rt::ScriptedDegradation>(std::move(heals)));

  for (const auto& process : churn_) {
    churn_injectors_.push_back(std::make_unique<rt::ChurnInjector>(cluster_, *process));
    churn_injectors_.back()->start();
  }
  for (const auto& process : degradation_) {
    net_injectors_.push_back(std::make_unique<rt::NetFaultInjector>(cluster_, *process));
    net_injectors_.back()->start();
  }
}

void FleetRig::set_parent_span(std::int64_t parent) {
  for (const auto& timed : timed_) timed->set_parent(parent);
}

std::uint64_t FleetRig::plans() const {
  std::uint64_t total = 0;
  for (const auto& timed : timed_) total += timed->plans();
  return total;
}

std::uint64_t FleetRig::cache_hits() const {
  std::uint64_t total = 0;
  for (const auto& timed : timed_) total += timed->cache_hits();
  return total;
}

rt::PlannerDeltaStats FleetRig::planner_delta() const {
  rt::PlannerDeltaStats total;
  for (std::size_t s = 0; s < strategies_.size(); ++s) {
    const rt::PlannerDeltaStats now = strategies_[s]->planner_stats();
    total.cold_replans += now.cold_replans - warm_stats_[s].cold_replans;
    total.repaired_plans += now.repaired_plans - warm_stats_[s].repaired_plans;
    total.partial_repriced_rows +=
        now.partial_repriced_rows - warm_stats_[s].partial_repriced_rows;
  }
  return total;
}

FleetOutcome summarize(FleetRig& rig, const std::vector<rt::RequestRecord>& records,
                       std::size_t attempted, double limit_s, Result* checks) {
  FleetOutcome out;
  const rt::ServiceStats stats = rig.fleet().stats();
  std::vector<double> latencies_ms;
  for (const rt::RequestRecord& r : records) {
    if (r.outcome == rt::RequestOutcome::kCompleted) {
      ++out.completed;
      latencies_ms.push_back(r.latency_s() * 1e3);
      if (r.latency_s() <= limit_s) ++out.ok;
    }
  }
  out.p50_ms = quantile(latencies_ms, 0.50);
  out.p99_ms = quantile(latencies_ms, 0.99);
  const rt::StreamMetrics metrics = rt::summarize_run(records, rig.cluster());
  out.energy_j = out.completed > 0 ? metrics.energy_j / static_cast<double>(out.completed) : 0.0;
  out.completed_per_s =
      metrics.makespan_s > 0.0 ? static_cast<double>(out.completed) / metrics.makespan_s : 0.0;
  if (checks == nullptr) return out;

  // Output checks: one terminal record per request, ids exactly 0..n-1,
  // and the fleet balance equation.
  if (records.size() != attempted) {
    checks->violation("records " + std::to_string(records.size()) + " != attempted " +
                      std::to_string(attempted));
  }
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (records[i].id != static_cast<int>(i)) {
      checks->violation("record " + std::to_string(i) + " has id " +
                        std::to_string(records[i].id));
      break;
    }
  }
  const std::size_t terminal = stats.completed + stats.rejected + stats.dropped +
                               stats.deadline_misses + stats.failed;
  if (stats.submitted != attempted ||
      stats.submitted + stats.stolen_in != terminal + stats.stolen_away) {
    checks->violation("balance: submitted " + std::to_string(stats.submitted) + " + in " +
                      std::to_string(stats.stolen_in) + " != terminal " +
                      std::to_string(terminal) + " + away " +
                      std::to_string(stats.stolen_away));
  }
  return out;
}

/// Highest offered rate meeting the workload's objective — at least
/// `target_share` of attempted requests complete within the latency limit,
/// refused and failed ones counting as misses. The ladder is walked upward
/// until the first rate that misses; the crossing is interpolated linearly
/// in ok-share between that rate and the last one that met it.
double capacity_rps(const FleetShape& shape, std::uint64_t seed) {
  double last_rate = 0.0, last_share = 1.0;
  for (std::size_t k = 0; k < shape.ladder.size(); ++k) {
    const double rate = shape.ladder[k];
    const auto trace = poisson_trace(seed * 1000003ULL + k + 1, rate, shape.ladder_count);
    FleetRig rig(shape, trace, nullptr);
    const auto records = rig.run();
    const FleetOutcome o = summarize(rig, records, trace.size(), shape.limit_s, nullptr);
    const double share = static_cast<double>(o.ok) / static_cast<double>(trace.size());
    if (share < shape.target_share) {
      if (k == 0) return 0.0;
      return last_rate + (rate - last_rate) * (last_share - shape.target_share) /
                             (last_share - share);
    }
    last_rate = rate;
    last_share = share;
  }
  return last_rate;
}

namespace {

bool same_records(const std::vector<rt::RequestRecord>& a,
                  const std::vector<rt::RequestRecord>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].id != b[i].id || a[i].outcome != b[i].outcome ||
        a[i].dispatch_s != b[i].dispatch_s || a[i].finish_s != b[i].finish_s ||
        a[i].flops != b[i].flops) {
      return false;
    }
  }
  return true;
}

/// Host CPU per request, robust to co-tenant load. On a shared VM each
/// virtual CPU's speed flips between modes every fraction of a second, so
/// one pass's CPU time mixes modes in varying shares. Every pass replays the
/// same trace (on the next CPU, see rotate_cpu), so each segment's cheapest
/// reading over the passes is its cost with the least interference; the sum
/// over segments covers all the work.
class SegmentCost {
 public:
  /// Folds in one pass; false when its segmentation differs from the first.
  bool add(const std::vector<double>& marks) {
    if (best_.empty()) best_.assign(marks.size() > 0 ? marks.size() - 1 : 0, 1e300);
    if (marks.size() != best_.size() + 1) return false;
    for (std::size_t k = 0; k < best_.size(); ++k) {
      best_[k] = std::min(best_[k], marks[k + 1] - marks[k]);
    }
    return true;
  }
  double us_per_request(std::size_t requests) const {
    double total = 0.0;
    for (const double s : best_) total += s;
    return requests > 0 ? total * 1e6 / static_cast<double>(requests) : 0.0;
  }

 private:
  std::vector<double> best_;
};

/// Per-layer timings of the traced passes: like host time, the pass with
/// the least interference.
double least(const std::vector<double>& per_pass) {
  return per_pass.empty() ? 0.0 : *std::min_element(per_pass.begin(), per_pass.end());
}

Result run_fleet(const FleetShape& shape, const RunConfig& config) {
  Result result;
  const double deadline = wall_s() + config.seconds;
  const auto trace = poisson_trace(config.seed, shape.rate_hz, shape.count);
  const double capacity = config.trace ? 0.0 : capacity_rps(shape, config.seed);

  SegmentCost untraced, traced;
  std::vector<double> setups;
  std::vector<double> plan_p50, plan_p99, event_p99, host_share, self_us, ns_event;
  std::vector<rt::RequestRecord> first;
  FleetOutcome outcome;
  rt::PlannerDeltaStats delta;
  rt::ServiceStats stats;
  std::size_t evacuations = 0, steals = 0;
  double plans_per_request = 0.0, hit_share = 0.0, events_per_request = 0.0;
  SpanLog last_log;

  // Traced runs alternate traced and untraced passes so the two host-time
  // series share machine conditions; their ratio is the tracing overhead.
  // At least three passes; after that, only passes expected to end in time.
  double last_pass_s = 0.0;
  for (std::size_t pass = 0; pass < 3 || wall_s() + last_pass_s < deadline; ++pass) {
    const double pass_start = wall_s();
    const bool trace_pass = config.trace && pass % 2 == 1;
    if (pass % 2 == 0) rotate_cpu();  // traced and untraced pass pairs share a CPU
    SpanLog log;
    const double t0 = wall_s();
    FleetRig rig(shape, trace, trace_pass ? &log : nullptr);
    const double setup = wall_s() - t0;

    const std::int64_t run_span = log.begin("runtime.run");
    rig.set_parent_span(run_span);
    const std::uint64_t events0 = rig.cluster().simulator().events_executed();
    const auto records = rig.run();
    log.end(run_span);
    const std::uint64_t events = rig.cluster().simulator().events_executed() - events0;

    result.attempted += trace.size();
    outcome = summarize(rig, records, trace.size(), shape.limit_s, &result);
    if (first.empty()) {
      first = records;
    } else if (!same_records(first, records)) {
      result.violation("pass " + std::to_string(pass) + " records differ from pass 0");
    }
    stats = rig.fleet().stats();
    evacuations = rig.fleet().evacuations();
    steals = rig.fleet().steals();
    delta = rig.planner_delta();
    events_per_request = static_cast<double>(events) / static_cast<double>(trace.size());

    if (!(trace_pass ? traced : untraced).add(rig.cpu_marks())) {
      result.violation("pass " + std::to_string(pass) + " completed in a different order");
    }
    if (!trace_pass) setups.push_back(setup);
    last_pass_s = wall_s() - pass_start;
    if (trace_pass) {
      const double run_us = log.spans()[static_cast<std::size_t>(run_span)].duration_s() * 1e6;
      const auto plan_us = log.durations_us("core.plan");
      const auto event_us = log.durations_us("core.event");
      double planner_us = 0.0;
      for (const double d : plan_us) planner_us += d;
      for (const double d : event_us) planner_us += d;
      plan_p50.push_back(quantile(plan_us, 0.50));
      plan_p99.push_back(quantile(plan_us, 0.99));
      event_p99.push_back(quantile(event_us, 0.99));
      host_share.push_back(run_us > 0.0 ? planner_us / run_us : 0.0);
      self_us.push_back((run_us - planner_us) / static_cast<double>(trace.size()));
      ns_event.push_back(events > 0 ? (run_us - planner_us) * 1e3 / static_cast<double>(events)
                                    : 0.0);
      plans_per_request = static_cast<double>(rig.plans()) / static_cast<double>(trace.size());
      hit_share = rig.plans() > 0 ? static_cast<double>(rig.cache_hits()) /
                                        static_cast<double>(rig.plans())
                                  : 0.0;
      last_log = std::move(log);
    }
  }

  if (!config.trace) {
    const std::size_t n = trace.size();
    result.set("setup_s", median(setups), "s");
    result.set("peak_rss_mb", peak_rss_mb(), "MiB");
    result.set("ok_share", static_cast<double>(outcome.ok) / static_cast<double>(n), "share");
    result.set("p50_ms", outcome.p50_ms, "ms");
    result.set("p99_ms", outcome.p99_ms, "ms");
    result.set("capacity_rps", capacity, "1/s");
    result.set("energy_j", outcome.energy_j, "J");
    result.set("host_us_per_request", untraced.us_per_request(n), "us");
    result.set("inferences_per_s", outcome.completed_per_s, "1/s");
    return result;
  }
  result.set("core.plan_us.p50", least(plan_p50), "us");
  result.set("core.plan_us.p99", least(plan_p99), "us");
  result.set("core.plans_per_request", plans_per_request, "count");
  result.set("core.cache_hit_share", hit_share, "share");
  result.set("core.event_us.p99", least(event_p99), "us");
  result.set("core.host_share", median(host_share), "share");
  result.set("partition.cold_builds", static_cast<double>(delta.cold_replans), "count");
  result.set("partition.repaired_plans", static_cast<double>(delta.repaired_plans), "count");
  result.set("partition.repriced_rows", static_cast<double>(delta.partial_repriced_rows),
             "count");
  result.set("sim.events_per_request", events_per_request, "count");
  result.set("runtime.self_us_per_request", least(self_us), "us");
  result.set("runtime.ns_per_event", least(ns_event), "ns");
  result.set("runtime.retries", static_cast<double>(stats.retries), "count");
  result.set("runtime.evacuations", static_cast<double>(evacuations), "count");
  result.set("runtime.steals", static_cast<double>(steals), "count");
  result.set("runtime.failed", static_cast<double>(stats.failed), "count");
  const double base = untraced.us_per_request(trace.size());
  result.set("trace.overhead_share",
             base > 0.0 ? traced.us_per_request(trace.size()) / base - 1.0 : 0.0, "share");
  if (!config.spans_path.empty()) last_log.write_jsonl(config.spans_path);
  return result;
}

}  // namespace

FleetShape steady_shape() {
  FleetShape shape;
  shape.shards = 4;
  // At 100/s the median request meets no queue and reads the same planned
  // latency for every seed; at 110/s some queueing reaches the median.
  shape.rate_hz = 110.0;
  shape.count = 120000;
  shape.limit_s = 0.300;
  shape.target_share = 0.99;
  for (double rate = 100.0; rate <= 140.0; rate += 5.0) shape.ladder.push_back(rate);
  shape.ladder_count = 20000;
  return shape;
}

Result run_fleet_steady(const RunConfig& config) { return run_fleet(steady_shape(), config); }

Result run_fleet_faults(const RunConfig& config) {
  FleetShape shape;
  shape.shards = 2;
  // 80k requests steadied p99 further but left too few passes in a run for
  // steady host time.
  shape.rate_hz = 25.0;
  shape.count = 40000;
  shape.limit_s = 0.500;
  shape.target_share = 0.95;
  shape.faults = true;
  for (double rate = 20.0; rate <= 60.0; rate += 5.0) shape.ladder.push_back(rate);
  shape.ladder_count = 16000;
  return run_fleet(shape, config);
}

}  // namespace perfbench
