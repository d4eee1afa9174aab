// Figure 6: cluster performance (GFLOPS/s) over time under progressively
// increasing load: EfficientNetB0's request stream starts at t=0, and every
// 0.5 s another model's stream joins (InceptionV3, ResNet152, VGG-19), so
// from t=1.5 s all four DNNs run concurrently — the paper's scenario.
//
// Performance counts *delivered* model FLOPs (a strategy that recomputes
// halo rows does not get credit for wasted work). Paper shape to reproduce:
// HiDP delivers the highest performance throughout, completes everything
// within ~5 s, and gains ~39/54/56% over DisNet/OmniBoost/MoDNN.
#include <cstdio>
#include <map>

#include "bench_common.hpp"
#include "util/csv.hpp"

int main() {
  using namespace hidp;
  runtime::ModelSet models;
  constexpr double kStagger = 0.5;
  constexpr double kInterval = 0.12;  // per-model request period
  constexpr int kPerModel = 30;       // arrivals span ~5 s
  constexpr double kWindow = 0.5;

  std::map<std::string, double> model_flops;
  for (const auto id : models.ids()) {
    model_flops[dnn::zoo::model_name(id)] = models.graph(id).total_flops();
  }

  std::map<std::string, bench::StreamResult> runs;
  double horizon = 0.0;
  for (const std::string& name : bench::strategy_names()) {
    auto strategy = bench::make_strategy(name);
    runs[name] = bench::run_requests(
        *strategy, runtime::staggered_streams(models, dnn::zoo::all_models(), kStagger,
                                              kPerModel, kInterval));
    horizon = std::max(horizon, runs[name].metrics.makespan_s);
  }

  // Delivered-FLOPs correction: scale each request's trace FLOPs so the
  // request contributes exactly its model's FLOPs (no halo-recompute credit).
  auto delivered_traces = [&](const bench::StreamResult& run) {
    std::map<int, double> scale;
    for (const auto& r : run.records) {
      scale[r.id] = r.flops > 0.0 ? model_flops[r.model] / r.flops : 0.0;
    }
    std::vector<runtime::TaskTrace> traces = run.traces;
    for (auto& t : traces) t.flops *= scale[t.request];
    return traces;
  };

  util::Table table("Fig. 6 — delivered performance [GFLOPS/s]; streams join every 0.5 s");
  std::vector<std::string> header{"t [s]"};
  for (const auto& name : bench::strategy_names()) header.push_back(name);
  table.set_header(header);
  util::CsvWriter csv(header);

  std::map<std::string, std::vector<runtime::TimelinePoint>> series;
  for (const auto& name : bench::strategy_names()) {
    series[name] = runtime::gflops_timeline(delivered_traces(runs[name]), kWindow, horizon);
  }
  const std::size_t buckets = series[bench::strategy_names().front()].size();
  for (std::size_t b = 0; b < buckets; ++b) {
    std::vector<std::string> row{util::fmt(series["HiDP"][b].time_s, 2)};
    for (const auto& name : bench::strategy_names()) {
      row.push_back(b < series[name].size() ? util::fmt(series[name][b].gflops, 1) : "0");
    }
    csv.add_row(row);
    table.add_row(row);
  }
  std::printf("%s\n", table.to_string().c_str());

  util::Table summary("Completion time and mean delivered performance");
  summary.set_header({"strategy", "all done at [s]", "delivered GFLOPS/s", "HiDP gain"});
  const double total_delivered =
      static_cast<double>(kPerModel) *
      (model_flops["EfficientNetB0"] + model_flops["InceptionNetV3"] +
       model_flops["ResNet152"] + model_flops["VGG-19"]);
  const double hidp_rate = total_delivered / runs["HiDP"].metrics.makespan_s / 1e9;
  for (const auto& name : bench::strategy_names()) {
    const double rate = total_delivered / runs[name].metrics.makespan_s / 1e9;
    summary.add_row({name, util::fmt(runs[name].metrics.makespan_s, 2), util::fmt(rate, 1),
                     name == "HiDP" ? std::string("-")
                                    : std::string("+").append(
                                          util::fmt_pct((hidp_rate - rate) / rate))});
  }
  std::printf("%s\n", summary.to_string().c_str());
  std::printf("Paper: HiDP completes all inferences within 5 s; 39/54/56%% higher\n"
              "performance than DisNet/OmniBoost/MoDNN.\n");
  csv.write_file("fig6_performance_timeline.csv");
  return 0;
}
