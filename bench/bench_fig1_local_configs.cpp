// Figure 1: normalized inference latency of the four DNN models under the
// local partitioning configurations P1-P9 on the Jetson TX2.
//
// P1 is the framework-default placement (whole model, single GPU stream) —
// the configuration every SoA distributed strategy uses on the local node.
// The paper's observations to reproduce:
//  * every model runs faster in some configuration other than P1;
//  * the best configuration is model-dependent (P7 for ResNet-152 and
//    VGG-19, P6 for InceptionNet-V3, P9 for EfficientNet-B0);
//  * reductions are large (paper: 65/40/25/75% for Inception/ResNet/VGG/
//    EfficientNet).
#include <cstdio>

#include "bench_common.hpp"
#include "partition/local_config.hpp"
#include "platform/device_db.hpp"

int main() {
  using namespace hidp;
  const platform::NodeModel tx2 = platform::make_jetson_tx2();
  util::Table table("Fig. 1 — normalized local inference latency on Jetson TX2 (P1 = 1.00)");
  std::vector<std::string> header{"model"};
  for (int p = 1; p <= 9; ++p) header.push_back(std::string("P").append(std::to_string(p)));
  header.push_back("best");
  header.push_back("vs P1");
  table.set_header(header);

  for (const auto id : dnn::zoo::all_models()) {
    const dnn::DnnGraph graph = dnn::zoo::build_model(id);
    const auto work = platform::WorkProfile::from_graph(graph);
    const std::int64_t io = graph.input_shape().bytes(4) + graph.output_shape().bytes(4);
    const auto configs = partition::paper_local_configs(tx2, work);
    std::vector<double> latency;
    for (const auto& config : configs) {
      latency.push_back(partition::estimate_local_latency(tx2, work, config, io));
    }
    const double p1 = latency.front();
    std::vector<std::string> row{dnn::zoo::model_name(id)};
    std::size_t best = 0;
    for (std::size_t i = 0; i < latency.size(); ++i) {
      row.push_back(util::fmt(latency[i] / p1, 3));
      if (latency[i] < latency[best]) best = i;
    }
    row.push_back(configs[best].label);
    row.push_back(std::string("-").append(util::fmt_pct((p1 - latency[best]) / p1, 1)));
    table.add_row(row);
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf("Paper anchors: ResNet-152/VGG-19 best at P7, InceptionNet-V3 at P6,\n"
              "EfficientNet-B0 at P9; reductions 40/25/65/75%% vs the default P1.\n");
  return 0;
}
