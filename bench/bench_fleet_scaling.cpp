// Fleet scaling bench: aggregate serving throughput of a ServiceFleet as
// the same 8-node cluster is carved into 1, 2 and 4 shards, under the
// PR 3 overload workload (arrival spacing far below service demand,
// bounded admission shedding the excess).
//
// Also measures work stealing: a skewed stream (model-affinity routing
// funnels everything onto one shard) with stealing on vs off.
//
// And node-churn failover: the same 2-shard fleet under an MTBF/MTTR
// availability trace hammering shard 0 (leader included), with
// FailoverPolicy on vs off. Failover must complete strictly more requests
// at a strictly lower p99 — the off-configuration parks/fails the dead
// shard's requests while the on-configuration evacuates them — and that
// claim is part of the bench's exit-code contract.
//
// And continuous batching: a same-model storm where coalescing arrivals
// into shared plans amortises per-layer dispatch overhead. Batched must
// complete strictly more at a no-worse p99, and max_batch=1 must be
// bit-identical to the default serving path (exit codes 6/7).
//
// And pipelined steady-state serving: a sustained same-model series where
// the stream rides one stage-resident pipeline plan. Pipelined must beat
// per-request planning on completed/s at a no-worse p99, and pipeline-off
// must be bit-identical to the per-request path (exit codes 8/9).
//
// And incremental delta re-planning: the churn trace plus a bursty radio
// collapse under failover, answered by in-place plan/cost-model repair vs
// by the cold wholesale flush. Delta must complete no fewer requests at an
// equal-or-lower p99 (exit code 10).
//
// Output: a human-readable table on stdout plus BENCH_fleet.json in the
// working directory. `--smoke` runs tiny request counts so CI can catch
// build rot without paying full measurement time.
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "runtime/churn.hpp"
#include "runtime/fleet.hpp"
#include "runtime/netfault.hpp"

namespace {

using namespace hidp;
using dnn::zoo::ModelId;

/// 4x (Orin NX + TX2) pairs: every 2-node shard gets the same hardware, so
/// shard-count sweeps compare topology, not device luck.
std::vector<platform::NodeModel> paired_cluster() {
  std::vector<platform::NodeModel> nodes;
  for (int i = 0; i < 4; ++i) {
    nodes.push_back(platform::make_device("Jetson Orin NX"));
    nodes.push_back(platform::make_device("Jetson TX2"));
  }
  return nodes;
}

struct FleetResult {
  std::string config;
  std::size_t shards = 0;
  std::size_t completed = 0;
  std::size_t rejected = 0;
  std::size_t dropped = 0;
  std::size_t failed = 0;
  std::size_t steals = 0;
  std::size_t evacuations = 0;
  std::size_t churn_events = 0;
  std::size_t groups = 0;
  std::size_t batched = 0;
  std::size_t pipelined = 0;
  std::size_t repaired_plans = 0;
  std::size_t cold_replans = 0;
  double makespan_s = 0.0;
  double completed_per_s = 0.0;
  double p50_s = 0.0;
  double p99_s = 0.0;
};

/// Per-run serving knobs beyond the shared shard shape (used by the
/// degradation study to contrast stale vs degradation-aware planning).
struct RunTuning {
  double transfer_timeout_factor = 0.0;
  bool stale_network_planning = false;
  std::size_t max_retries = 1;
  std::size_t max_batch = 1;
  double max_wait_s = 0.0;
  // Admission shape (defaults match the historical bounded overload runs).
  std::size_t max_in_flight = 2;
  std::size_t max_pending = 16;
  // Pipelined steady-state serving (the stream study).
  bool pipeline = false;
  const dnn::DnnGraph* pipeline_stream_model = nullptr;
  // The cold arm of the delta-replan study: answer churn/DVFS/link events
  // with wholesale flushes instead of in-place repair (ColdReplanStrategy).
  bool cold_replanning = false;
};

/// Forwards to a strategy but strips the post-event cluster state from
/// every node event, so the strategy cannot repair in place and takes its
/// wholesale fallback: the plan cache flushes and cost models rebuild.
class ColdReplanStrategy final : public runtime::IStrategy {
 public:
  explicit ColdReplanStrategy(runtime::IStrategy& inner) : inner_(&inner) {}

  std::string name() const override { return inner_->name(); }
  runtime::PlanResult plan(const runtime::PlanRequest& request) override {
    return inner_->plan(request);
  }
  bool supports_pipeline() const override { return inner_->supports_pipeline(); }
  void on_node_event(const runtime::NodeEvent& event) override {
    runtime::NodeEvent stripped = event;
    stripped.nodes = nullptr;
    stripped.network = nullptr;
    inner_->on_node_event(stripped);
  }
  runtime::PlannerDeltaStats planner_stats() const override { return inner_->planner_stats(); }

 private:
  runtime::IStrategy* inner_;
};

FleetResult run_fleet(const std::string& config, std::size_t shard_count,
                      const std::vector<runtime::RequestSpec>& stream,
                      runtime::RoutingPolicy& routing, bool work_stealing,
                      std::vector<runtime::ChurnProcess*> churn = {},
                      bool failover = false,
                      std::vector<runtime::NetDegradationProcess*> degradation = {},
                      RunTuning tuning = {},
                      std::vector<runtime::RequestRecord>* records_out = nullptr) {
  runtime::Cluster cluster(paired_cluster());
  std::vector<std::unique_ptr<core::HidpStrategy>> strategies;
  std::vector<std::unique_ptr<ColdReplanStrategy>> cold_wrappers;
  std::vector<runtime::FleetShard> shards;
  const std::size_t span = 8 / shard_count;
  for (std::size_t s = 0; s < shard_count; ++s) {
    strategies.push_back(std::make_unique<core::HidpStrategy>());
    runtime::FleetShard shard;
    shard.strategy = strategies.back().get();
    if (tuning.cold_replanning) {
      cold_wrappers.push_back(std::make_unique<ColdReplanStrategy>(*strategies.back()));
      shard.strategy = cold_wrappers.back().get();
    }
    for (std::size_t n = 0; n < span; ++n) shard.nodes.push_back(s * span + n);
    shard.leader = s * span + 1;  // the shard's TX2, per the paper convention
    shard.service.max_in_flight = tuning.max_in_flight;
    shard.service.max_pending = tuning.max_pending;
    shard.service.shed_policy = runtime::LoadShedPolicy::kRejectNewest;
    shard.service.transfer_timeout_factor = tuning.transfer_timeout_factor;
    shard.service.stale_network_planning = tuning.stale_network_planning;
    shard.service.max_retries = tuning.max_retries;
    shard.service.max_batch = tuning.max_batch;
    shard.service.max_wait_s = tuning.max_wait_s;
    shard.service.pipeline.enabled = tuning.pipeline;
    shard.service.pipeline.stream_model = tuning.pipeline_stream_model;
    shards.push_back(std::move(shard));
  }
  runtime::FleetOptions options;
  options.work_stealing = work_stealing;
  options.failover.enabled = failover;
  runtime::ServiceFleet fleet(cluster, shards, routing, options);
  // Keep trace memory bounded: the overload stream runs thousands of tasks.
  for (std::size_t s = 0; s < shard_count; ++s) fleet.shard(s).engine().set_trace_capacity(0);
  runtime::ReplayArrivals arrivals(stream);
  fleet.attach(&arrivals);
  std::vector<std::unique_ptr<runtime::ChurnInjector>> injectors;
  for (runtime::ChurnProcess* process : churn) {
    injectors.push_back(std::make_unique<runtime::ChurnInjector>(cluster, *process));
    injectors.back()->start();
  }
  std::vector<std::unique_ptr<runtime::NetFaultInjector>> net_injectors;
  for (runtime::NetDegradationProcess* process : degradation) {
    net_injectors.push_back(std::make_unique<runtime::NetFaultInjector>(cluster, *process));
    net_injectors.back()->start();
  }
  const auto records = fleet.run();
  if (records_out != nullptr) *records_out = records;
  const runtime::StreamMetrics metrics = runtime::summarize_run(records, cluster);
  const runtime::ServiceStats stats = fleet.stats();

  FleetResult result;
  result.config = config;
  result.shards = shard_count;
  result.completed = stats.completed;
  result.rejected = stats.rejected;
  result.dropped = stats.dropped;
  result.failed = stats.failed;
  result.steals = fleet.steals();
  result.evacuations = fleet.evacuations();
  result.groups = stats.groups_dispatched;
  result.batched = stats.batched_requests;
  result.pipelined = stats.pipelined_requests;
  result.repaired_plans = stats.repaired_plans;
  result.cold_replans = stats.cold_replans;
  for (const auto& injector : injectors) result.churn_events += injector->applied();
  for (const auto& injector : net_injectors) result.churn_events += injector->applied();
  result.makespan_s = metrics.makespan_s;
  result.completed_per_s =
      metrics.makespan_s > 0.0 ? static_cast<double>(stats.completed) / metrics.makespan_s : 0.0;
  result.p50_s = metrics.p50_latency_s;
  result.p99_s = metrics.p99_latency_s;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_fleet.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  runtime::ModelSet models;
  const int count = smoke ? 80 : 1500;
  // PR 3 overload shape: arrivals every 2 ms against tens-of-ms service
  // demand — far oversubscribed even for the 4-shard fleet, so completed
  // throughput measures saturation capacity, not offered load.
  util::Rng mix_rng(11);
  const auto stream = runtime::mixed_stream(
      models, {ModelId::kEfficientNetB0, ModelId::kResNet152}, count, 0.002, mix_rng);

  std::vector<FleetResult> results;
  for (const std::size_t shard_count : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    runtime::LeastLoadedRouting routing;
    results.push_back(run_fleet("overload-scaling", shard_count, stream, routing,
                                /*work_stealing=*/true));
  }
  const bool monotonic = results[1].completed_per_s > results[0].completed_per_s &&
                         results[2].completed_per_s > results[1].completed_per_s;

  // Skew study: model-affinity on a single-model stream funnels every
  // request to one shard of two; stealing should pull the tail in.
  util::Rng skew_rng(13);
  const auto skew_stream =
      runtime::mixed_stream(models, {ModelId::kEfficientNetB0}, count, 0.002, skew_rng);
  runtime::ModelAffinityRouting affinity_off, affinity_on;
  results.push_back(
      run_fleet("skew-no-steal", 2, skew_stream, affinity_off, /*work_stealing=*/false));
  results.push_back(
      run_fleet("skew-steal", 2, skew_stream, affinity_on, /*work_stealing=*/true));

  // Churn study: MTBF/MTTR failures-and-repairs over shard 0's four nodes
  // (leader included, so the shard periodically goes dead outright) under a
  // *moderate* stream the surviving shard could absorb — failover is a
  // resilience mechanism, not extra capacity, so the saturated overload
  // shape would only shuffle which requests are shed. Failover-off parks
  // the dead shard's requests until repair (tail blowup) and fails its
  // mid-task work; failover-on evacuates both to the surviving shard. A
  // final scripted repair wave closes the trace so parked work resolves
  // inside the run either way. Work stealing is off in both runs: parked
  // pending is stealable, so stealing would partially mask the failover
  // contrast being measured.
  util::Rng churn_rng(19);
  const auto churn_stream = runtime::mixed_stream(
      models, {ModelId::kEfficientNetB0, ModelId::kResNet152}, count, 0.04, churn_rng);
  const double churn_horizon_s = churn_stream.back().arrival_s;
  const auto make_churn = [&]() {
    runtime::MtbfChurn::Options churn_options;
    churn_options.mtbf_s = smoke ? 0.5 : 2.0;
    churn_options.mttr_s = smoke ? 0.5 : 1.5;
    churn_options.horizon_s = churn_horizon_s;
    churn_options.seed = 23;
    churn_options.nodes = {0, 1, 2, 3};  // all of shard 0
    return runtime::MtbfChurn(churn_options);
  };
  const auto make_final_repairs = [&]() {
    std::vector<runtime::ChurnEvent> repairs;
    for (std::size_t node = 0; node < 4; ++node) {
      repairs.push_back(
          {churn_horizon_s, node, runtime::ChurnEvent::Action::kRepair, 1.0});
    }
    return runtime::ScriptedChurn(std::move(repairs));
  };
  {
    runtime::LeastLoadedRouting routing_off, routing_on;
    auto churn_off = make_churn();
    auto repairs_off = make_final_repairs();
    results.push_back(run_fleet("churn-no-failover", 2, churn_stream, routing_off,
                                /*work_stealing=*/false, {&churn_off, &repairs_off},
                                /*failover=*/false));
    auto churn_on = make_churn();
    auto repairs_on = make_final_repairs();
    results.push_back(run_fleet("churn-failover", 2, churn_stream, routing_on,
                                /*work_stealing=*/false, {&churn_on, &repairs_on},
                                /*failover=*/true));
  }
  const FleetResult& churn_off = results[results.size() - 2];
  const FleetResult& churn_on = results[results.size() - 1];
  const bool failover_wins =
      churn_on.completed > churn_off.completed && churn_on.p99_s < churn_off.p99_s;

  // Degradation study: Gilbert–Elliott bursty radio collapse over shard 0's
  // non-leader nodes, same moderate stream shape as the churn study. The
  // stale configuration plans every request against construction-time betas
  // and never arms a transfer watchdog — it keeps shipping activations into
  // collapsed radios at healthy prices. The aware configuration plans
  // against the live spec (link events re-price its cost models) and a
  // 4x-expected-time watchdog turns silent mid-flight collapses into
  // bounded-retry replans. Aware must complete strictly more requests at a
  // strictly lower p99 — part of the exit-code contract below.
  // Tighter spacing than the churn study: the contrast needs enough offered
  // load that planning into collapsed radios overflows the bounded pending
  // queue (stale sheds), while live-priced plans keep up.
  util::Rng degrade_rng(29);
  const auto degrade_stream = runtime::mixed_stream(
      models, {ModelId::kEfficientNetB0, ModelId::kResNet152}, count, 0.01, degrade_rng);
  const double degrade_horizon_s = degrade_stream.back().arrival_s;
  const auto make_degradation = [&]() {
    runtime::GilbertElliottDegradation::Options options;
    // Both shards' workers degrade (leaders 1 and 5 stay healthy): with a
    // single sick shard, least-loaded routing would drain load to the
    // healthy one and mask the planning contrast being measured.
    options.nodes = {0, 2, 3, 4, 6, 7};
    options.good_s = smoke ? 0.3 : 1.0;
    options.bad_s = smoke ? 0.6 : 1.5;
    options.bad_bw_scale = 0.005;
    options.bad_latency_scale = 2.0;
    options.horizon_s = degrade_horizon_s;
    options.seed = 31;
    return runtime::GilbertElliottDegradation(options);
  };
  // Final heal wave (the degradation twin of the churn study's repair
  // wave): a node left mid-burst at the horizon would otherwise crawl
  // forever, and the bench wants tail latency, not an unbounded makespan.
  const auto make_final_heals = [&]() {
    std::vector<runtime::NetEvent> heals;
    for (const std::size_t node : {0, 2, 3, 4, 6, 7}) {
      runtime::NetEvent heal;
      heal.time_s = degrade_horizon_s;
      heal.action = runtime::NetEvent::Action::kRadioScale;
      heal.node = node;
      heal.bw_scale = 1.0;
      heal.latency_scale = 1.0;
      heals.push_back(heal);
    }
    return runtime::ScriptedDegradation(std::move(heals));
  };
  {
    runtime::LeastLoadedRouting routing_stale, routing_aware;
    auto degradation_stale = make_degradation();
    auto heals_stale = make_final_heals();
    RunTuning stale_tuning;
    stale_tuning.stale_network_planning = true;
    stale_tuning.max_retries = 3;
    results.push_back(run_fleet("degradation-stale", 2, degrade_stream, routing_stale,
                                /*work_stealing=*/false, {}, /*failover=*/false,
                                {&degradation_stale, &heals_stale}, stale_tuning));
    auto degradation_aware = make_degradation();
    auto heals_aware = make_final_heals();
    RunTuning aware_tuning;
    aware_tuning.transfer_timeout_factor = 4.0;
    aware_tuning.max_retries = 3;
    results.push_back(run_fleet("degradation-aware", 2, degrade_stream, routing_aware,
                                /*work_stealing=*/false, {}, /*failover=*/false,
                                {&degradation_aware, &heals_aware}, aware_tuning));
  }
  const FleetResult& degrade_stale = results[results.size() - 2];
  const FleetResult& degrade_aware = results[results.size() - 1];
  const bool degradation_aware_wins = degrade_aware.completed > degrade_stale.completed &&
                                      degrade_aware.p99_s < degrade_stale.p99_s;

  // Zero-degradation control: with no degradation injected, the stale and
  // aware configurations must produce bit-identical records — the watchdog
  // and the live-spec planning path cost nothing until a link actually
  // degrades.
  bool zero_degradation_identical = true;
  {
    runtime::LeastLoadedRouting routing_stale, routing_aware;
    std::vector<runtime::RequestRecord> stale_records, aware_records;
    RunTuning stale_tuning;
    stale_tuning.stale_network_planning = true;
    run_fleet("control-stale", 2, degrade_stream, routing_stale,
              /*work_stealing=*/false, {}, /*failover=*/false, {}, stale_tuning,
              &stale_records);
    RunTuning aware_tuning;
    aware_tuning.transfer_timeout_factor = 4.0;
    run_fleet("control-aware", 2, degrade_stream, routing_aware,
              /*work_stealing=*/false, {}, /*failover=*/false, {}, aware_tuning,
              &aware_records);
    zero_degradation_identical = stale_records.size() == aware_records.size();
    for (std::size_t i = 0; zero_degradation_identical && i < stale_records.size(); ++i) {
      zero_degradation_identical = stale_records[i].id == aware_records[i].id &&
                                   stale_records[i].outcome == aware_records[i].outcome &&
                                   stale_records[i].dispatch_s == aware_records[i].dispatch_s &&
                                   stale_records[i].finish_s == aware_records[i].finish_s &&
                                   stale_records[i].flops == aware_records[i].flops;
    }
  }

  // Batching study: a same-model storm (every request is EfficientNet-B0,
  // the dispatch-bound zoo member) against one whole-cluster shard, batched
  // vs unbatched under identical nodes and admission. Grouped requests
  // share one planned run, so the per-layer dispatch overhead — the
  // dominant cost for this model — is paid once per group instead of once
  // per request. Batched must complete strictly more at a no-worse p99,
  // and max_batch=1 must leave the serving path bit-identical to the
  // default options (the batching machinery is free until it is enabled) —
  // both claims are part of the exit-code contract below.
  std::vector<runtime::RequestRecord> storm_baseline_records;
  {
    runtime::LeastLoadedRouting routing_unbatched, routing_batched;
    results.push_back(run_fleet("storm-unbatched", 1, skew_stream, routing_unbatched,
                                /*work_stealing=*/false, {}, /*failover=*/false, {}, {},
                                &storm_baseline_records));
    RunTuning batched_tuning;
    batched_tuning.max_batch = 8;
    batched_tuning.max_wait_s = 0.004;  // two arrival intervals
    results.push_back(run_fleet("storm-batched", 1, skew_stream, routing_batched,
                                /*work_stealing=*/false, {}, /*failover=*/false, {},
                                batched_tuning));
  }
  const FleetResult& storm_unbatched = results[results.size() - 2];
  const FleetResult& storm_batched = results[results.size() - 1];
  const bool batching_wins = storm_batched.completed > storm_unbatched.completed &&
                             storm_batched.p99_s <= storm_unbatched.p99_s;

  // max_batch=1 control: with batching disabled the hold timer, group
  // formation and join paths must never engage — records bit-identical to
  // the default-options storm run above.
  bool batch_one_identical = true;
  {
    runtime::LeastLoadedRouting routing_one;
    std::vector<runtime::RequestRecord> one_records;
    RunTuning one_tuning;
    one_tuning.max_batch = 1;
    one_tuning.max_wait_s = 0.004;  // must be inert while max_batch <= 1
    run_fleet("control-batch-one", 1, skew_stream, routing_one,
              /*work_stealing=*/false, {}, /*failover=*/false, {}, one_tuning,
              &one_records);
    batch_one_identical = one_records.size() == storm_baseline_records.size();
    for (std::size_t i = 0; batch_one_identical && i < one_records.size(); ++i) {
      batch_one_identical =
          one_records[i].id == storm_baseline_records[i].id &&
          one_records[i].outcome == storm_baseline_records[i].outcome &&
          one_records[i].dispatch_s == storm_baseline_records[i].dispatch_s &&
          one_records[i].finish_s == storm_baseline_records[i].finish_s &&
          one_records[i].flops == storm_baseline_records[i].flops;
    }
  }

  // Pipeline study: a sustained same-model ResNet-152 series against one
  // whole-cluster shard with unlimited admission, per-request planning vs
  // per-model-stream pipelining. Per-request planning replays the cached
  // minimum-*latency* plan, whose busiest resource bounds sustained
  // throughput; the pipeline plan cuts the same model to minimise the
  // steady-state *period* (max stage / handoff time), so consecutive stream
  // requests overlap on different stages and drain faster at a bounded
  // tail. Pipelined must complete strictly more per second at a no-worse
  // p99, and pipeline-off must leave the serving path bit-identical — both
  // claims join the exit-code contract below.
  util::Rng pipe_rng(37);
  const auto pipeline_series =
      runtime::mixed_stream(models, {ModelId::kResNet152}, count, 0.01, pipe_rng);
  std::vector<runtime::RequestRecord> series_baseline_records;
  {
    runtime::LeastLoadedRouting routing_seq, routing_pipe;
    RunTuning series_tuning;
    series_tuning.max_in_flight = 0;  // unlimited: throughput, not shedding
    series_tuning.max_pending = 0;
    results.push_back(run_fleet("stream-per-request", 1, pipeline_series, routing_seq,
                                /*work_stealing=*/false, {}, /*failover=*/false, {},
                                series_tuning, &series_baseline_records));
    RunTuning pipe_tuning = series_tuning;
    pipe_tuning.pipeline = true;
    results.push_back(run_fleet("stream-pipelined", 1, pipeline_series, routing_pipe,
                                /*work_stealing=*/false, {}, /*failover=*/false, {},
                                pipe_tuning));
  }
  const FleetResult& stream_seq = results[results.size() - 2];
  const FleetResult& stream_pipe = results[results.size() - 1];
  const bool pipeline_wins = stream_pipe.completed_per_s > stream_seq.completed_per_s &&
                             stream_pipe.p99_s <= stream_seq.p99_s;

  // Pipeline-off control: with PipelineMode disabled (even with a stream
  // target configured) the records must be bit-identical to the per-request
  // run — the pipeline machinery is free until it is enabled.
  bool pipeline_off_identical = true;
  {
    runtime::LeastLoadedRouting routing_off;
    std::vector<runtime::RequestRecord> off_records;
    RunTuning off_tuning;
    off_tuning.max_in_flight = 0;
    off_tuning.max_pending = 0;
    off_tuning.pipeline = false;
    off_tuning.pipeline_stream_model = &models.graph(ModelId::kResNet152);
    run_fleet("control-pipeline-off", 1, pipeline_series, routing_off,
              /*work_stealing=*/false, {}, /*failover=*/false, {}, off_tuning,
              &off_records);
    pipeline_off_identical = off_records.size() == series_baseline_records.size();
    for (std::size_t i = 0; pipeline_off_identical && i < off_records.size(); ++i) {
      pipeline_off_identical =
          off_records[i].id == series_baseline_records[i].id &&
          off_records[i].outcome == series_baseline_records[i].outcome &&
          off_records[i].dispatch_s == series_baseline_records[i].dispatch_s &&
          off_records[i].finish_s == series_baseline_records[i].finish_s &&
          off_records[i].flops == series_baseline_records[i].flops;
    }
  }

  // Delta-replan failover study: the churn study's MTBF trace plus a
  // Gilbert–Elliott radio burst over both shards' workers, failover on, with
  // events answered by a cold flush vs by incremental delta repair. The cold
  // configuration (ColdReplanStrategy) answers every event with a wholesale
  // flush — each post-event request pays a fresh Explore+Map; the delta
  // configuration repairs cost models in place (per-node repricing) and keeps
  // cached entries whose plans the event provably cannot dethrone, so
  // post-event requests replay cached plans at hit-path planning charges.
  // Same events, same stream, same failover machinery — the contrast is
  // purely the replanning path, so delta must complete no fewer requests at
  // an equal-or-lower p99 (the exit-code contract below).
  const auto make_delta_degradation = [&]() {
    runtime::GilbertElliottDegradation::Options options;
    options.nodes = {0, 2, 3, 4, 6, 7};  // both shards' workers, leaders healthy
    options.good_s = smoke ? 0.3 : 1.0;
    options.bad_s = smoke ? 0.6 : 1.5;
    options.bad_bw_scale = 0.005;
    options.bad_latency_scale = 2.0;
    options.horizon_s = churn_horizon_s;
    options.seed = 41;
    return runtime::GilbertElliottDegradation(options);
  };
  const auto make_delta_heals = [&]() {
    std::vector<runtime::NetEvent> heals;
    for (const std::size_t node : {0, 2, 3, 4, 6, 7}) {
      runtime::NetEvent heal;
      heal.time_s = churn_horizon_s;
      heal.action = runtime::NetEvent::Action::kRadioScale;
      heal.node = node;
      heal.bw_scale = 1.0;
      heal.latency_scale = 1.0;
      heals.push_back(heal);
    }
    return runtime::ScriptedDegradation(std::move(heals));
  };
  // Thermal throttle waves (one Orin worker per shard): each throttle is a
  // compute degradation the delta path answers with per-node repricing —
  // the cold path rebuilds the affected cost models from scratch. Both
  // price identically (the equivalence the delta design guarantees), so the
  // serving records must not drift; the repaired/cold_replans counters in
  // the table show which path did the work.
  const auto make_dvfs_waves = [&]() {
    std::vector<runtime::ChurnEvent> waves;
    for (int k = 1; k <= 8; ++k) {
      const double t = churn_horizon_s * static_cast<double>(k) / 9.0;
      const double scale = (k % 2 != 0) ? 0.7 : 1.0;
      waves.push_back({t, 0, runtime::ChurnEvent::Action::kDvfs, scale});
      waves.push_back({t, 4, runtime::ChurnEvent::Action::kDvfs, scale});
    }
    return runtime::ScriptedChurn(std::move(waves));
  };
  bool delta_replan_no_worse = true;
  {
    runtime::LeastLoadedRouting routing_cold, routing_delta;
    auto churn_cold = make_churn();
    auto repairs_cold = make_final_repairs();
    auto dvfs_cold = make_dvfs_waves();
    auto degradation_cold = make_delta_degradation();
    auto heals_cold = make_delta_heals();
    RunTuning delta_tuning;
    delta_tuning.transfer_timeout_factor = 4.0;
    delta_tuning.max_retries = 3;
    RunTuning cold_tuning = delta_tuning;
    cold_tuning.cold_replanning = true;
    results.push_back(run_fleet("failover-cold-replan", 2, churn_stream, routing_cold,
                                /*work_stealing=*/false,
                                {&churn_cold, &repairs_cold, &dvfs_cold},
                                /*failover=*/true, {&degradation_cold, &heals_cold},
                                cold_tuning));
    auto churn_delta = make_churn();
    auto repairs_delta = make_final_repairs();
    auto dvfs_delta = make_dvfs_waves();
    auto degradation_delta = make_delta_degradation();
    auto heals_delta = make_delta_heals();
    results.push_back(run_fleet("failover-delta-replan", 2, churn_stream, routing_delta,
                                /*work_stealing=*/false,
                                {&churn_delta, &repairs_delta, &dvfs_delta},
                                /*failover=*/true, {&degradation_delta, &heals_delta},
                                delta_tuning));
    // Compute the contract immediately: references into `results` dangle
    // once later studies push_back (vector reallocation). Delta must serve
    // no worse AND must actually engage — at least one plan priced off a
    // repaired cost model, with the cold run never repairing.
    const FleetResult& replan_cold = results[results.size() - 2];
    const FleetResult& replan_delta = results[results.size() - 1];
    delta_replan_no_worse = replan_delta.completed >= replan_cold.completed &&
                            replan_delta.p99_s <= replan_cold.p99_s &&
                            replan_delta.repaired_plans > 0 &&
                            replan_cold.repaired_plans == 0;
  }

  std::cout << "fleet scaling (" << (smoke ? "smoke" : "full") << ", " << count
            << " requests)\n";
  for (const FleetResult& r : results) {
    std::cout << "  " << r.config << " shards=" << r.shards << " completed=" << r.completed
              << " rejected=" << r.rejected << " dropped=" << r.dropped
              << " failed=" << r.failed << " steals=" << r.steals
              << " evacuations=" << r.evacuations << " churn_events=" << r.churn_events
              << " groups=" << r.groups << " batched=" << r.batched
              << " pipelined=" << r.pipelined << " repaired=" << r.repaired_plans
              << " cold_replans=" << r.cold_replans << " completed/s=" << r.completed_per_s
              << " p50=" << r.p50_s << "s p99=" << r.p99_s << "s\n";
  }
  std::cout << "  1->2->4 shard throughput monotonic: " << (monotonic ? "yes" : "NO") << "\n";
  std::cout << "  failover completes more at lower p99 under churn: "
            << (failover_wins ? "yes" : "NO") << "\n";
  std::cout << "  degradation-aware planning beats stale betas: "
            << (degradation_aware_wins ? "yes" : "NO") << "\n";
  std::cout << "  zero-degradation stale/aware runs bit-identical: "
            << (zero_degradation_identical ? "yes" : "NO") << "\n";
  std::cout << "  batched storm completes more at no-worse p99: "
            << (batching_wins ? "yes" : "NO") << "\n";
  std::cout << "  max_batch=1 storm bit-identical to default options: "
            << (batch_one_identical ? "yes" : "NO") << "\n";
  std::cout << "  pipelined stream beats per-request planning: "
            << (pipeline_wins ? "yes" : "NO") << "\n";
  std::cout << "  pipeline-off stream bit-identical to per-request: "
            << (pipeline_off_identical ? "yes" : "NO") << "\n";
  std::cout << "  delta replanning no worse than cold under churn+degradation failover: "
            << (delta_replan_no_worse ? "yes" : "NO") << "\n";

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "error: cannot open " << out_path << " for writing\n";
    return 1;
  }
  out << "{\n  \"bench\": \"fleet_scaling\",\n  \"requests\": " << count
      << ",\n  \"smoke\": " << (smoke ? "true" : "false")
      << ",\n  \"throughput_monotonic_1_2_4\": " << (monotonic ? "true" : "false")
      << ",\n  \"failover_wins_under_churn\": " << (failover_wins ? "true" : "false")
      << ",\n  \"degradation_aware_wins\": " << (degradation_aware_wins ? "true" : "false")
      << ",\n  \"zero_degradation_identical\": "
      << (zero_degradation_identical ? "true" : "false")
      << ",\n  \"batching_wins\": " << (batching_wins ? "true" : "false")
      << ",\n  \"batch_one_identical\": " << (batch_one_identical ? "true" : "false")
      << ",\n  \"pipeline_wins\": " << (pipeline_wins ? "true" : "false")
      << ",\n  \"pipeline_off_identical\": " << (pipeline_off_identical ? "true" : "false")
      << ",\n  \"delta_replan_no_worse\": " << (delta_replan_no_worse ? "true" : "false")
      << ",\n  \"results\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const FleetResult& r = results[i];
    out << "    {\"config\": \"" << r.config << "\", \"shards\": " << r.shards
        << ", \"completed\": " << r.completed << ", \"rejected\": " << r.rejected
        << ", \"dropped\": " << r.dropped << ", \"failed\": " << r.failed
        << ", \"steals\": " << r.steals << ", \"evacuations\": " << r.evacuations
        << ", \"churn_events\": " << r.churn_events << ", \"groups\": " << r.groups
        << ", \"batched\": " << r.batched << ", \"pipelined\": " << r.pipelined
        << ", \"repaired_plans\": " << r.repaired_plans
        << ", \"cold_replans\": " << r.cold_replans
        << ", \"makespan_s\": " << r.makespan_s
        << ", \"completed_per_s\": " << r.completed_per_s << ", \"p50_s\": " << r.p50_s
        << ", \"p99_s\": " << r.p99_s << "}" << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::cout << "wrote " << out_path << "\n";
  // All eight claims are part of the bench's contract; fail loudly (CI runs
  // --smoke) if carving the same nodes into more shards stops paying off,
  // if failover stops beating failover-off under churn, if degradation-aware
  // planning stops beating stale betas, if the degradation machinery
  // perturbs healthy runs, if batching stops paying for the same-model
  // storm, if disabled batching perturbs the serving path, if the pipelined
  // stream stops beating per-request planning, if disabled pipelining
  // perturbs the serving path, or if delta replanning regresses the
  // churn+degradation failover tail versus cold flushes.
  if (!monotonic) return 2;
  if (!failover_wins) return 3;
  if (!degradation_aware_wins) return 4;
  if (!zero_degradation_identical) return 5;
  if (!batching_wins) return 6;
  if (!batch_one_identical) return 7;
  if (!pipeline_wins) return 8;
  if (!pipeline_off_identical) return 9;
  if (!delta_replan_no_worse) return 10;
  return 0;
}
