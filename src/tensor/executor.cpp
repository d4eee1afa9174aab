#include "tensor/executor.hpp"

#include <stdexcept>

namespace hidp::tensor {

using dnn::Layer;
using dnn::LayerKind;

WeightStore::WeightStore(const dnn::DnnGraph& graph, std::uint64_t seed) {
  weights_.resize(graph.size());
  for (const Layer& layer : graph.layers()) {
    util::Rng rng(seed ^ (0x9E3779B97F4A7C15ULL * static_cast<std::uint64_t>(layer.id + 1)));
    LayerWeights& w = weights_[static_cast<std::size_t>(layer.id)];
    const dnn::Shape in_shape =
        layer.inputs.empty() ? dnn::Shape{} : graph.layer(layer.inputs.front()).output;
    auto fill = [&rng](std::vector<float>& v, std::size_t n, double lo, double hi) {
      v.resize(n);
      for (auto& x : v) x = static_cast<float>(rng.uniform(lo, hi));
    };
    // Draws an [out][fan_in] matrix in row order straight into its panel
    // slots (pack_panels layout), with no unpacked copy.
    auto fill_panels = [&rng](std::vector<float>& v, int out, std::size_t fan_in, double lo,
                              double hi) {
      v.assign(panel_floats(out, fan_in), 0.0f);
      for (int oc = 0; oc < out; ++oc) {
        for (std::size_t r = 0; r < fan_in; ++r) {
          v[panel_index(oc, r, fan_in)] = static_cast<float>(rng.uniform(lo, hi));
        }
      }
    };
    switch (layer.kind) {
      case LayerKind::kConv2D: {
        const auto fan_in = static_cast<std::size_t>(layer.params.kernel) *
                            layer.params.kernel_width() * in_shape.channels;
        fill_panels(w.conv, layer.params.out_channels, fan_in, -0.1, 0.1);
        if (layer.params.use_bias) fill(w.bias, static_cast<std::size_t>(layer.params.out_channels), -0.05f, 0.05f);
        break;
      }
      case LayerKind::kDepthwiseConv2D: {
        const auto n = static_cast<std::size_t>(layer.params.kernel) *
                       layer.params.kernel_width() * in_shape.channels;
        fill(w.conv, n, -0.2, 0.2);
        if (layer.params.use_bias) fill(w.bias, static_cast<std::size_t>(in_shape.channels), -0.05f, 0.05f);
        break;
      }
      case LayerKind::kBatchNorm: {
        const auto c = static_cast<std::size_t>(in_shape.channels);
        fill(w.bn_gamma, c, 0.5f, 1.5f);
        fill(w.bn_beta, c, -0.2f, 0.2f);
        fill(w.bn_mean, c, -0.5f, 0.5f);
        fill(w.bn_var, c, 0.2f, 1.5f);
        break;
      }
      case LayerKind::kSqueezeExcite: {
        const auto c = static_cast<std::size_t>(in_shape.channels);
        const int r = layer.params.out_channels > 0 ? layer.params.out_channels
                                                    : std::max<int>(1, in_shape.channels / 4);
        fill_panels(w.se_reduce, r, c, -0.3f, 0.3f);
        fill(w.se_reduce_bias, static_cast<std::size_t>(r), -0.05f, 0.05f);
        fill_panels(w.se_expand, in_shape.channels, static_cast<std::size_t>(r), -0.3f, 0.3f);
        fill(w.se_expand_bias, c, -0.05f, 0.05f);
        break;
      }
      case LayerKind::kDense: {
        const auto in_f = static_cast<std::size_t>(in_shape.elements());
        const int out_f = layer.params.out_channels;
        fill_panels(w.dense, out_f, in_f, -0.05f, 0.05f);
        if (layer.params.use_bias) fill(w.bias, static_cast<std::size_t>(out_f), -0.05f, 0.05f);
        break;
      }
      default:
        break;
    }
  }
}

ReferenceExecutor::ReferenceExecutor(const dnn::DnnGraph& graph, std::uint64_t weight_seed)
    : graph_(&graph), store_(std::make_unique<WeightStore>(graph, weight_seed)) {}

Tensor ReferenceExecutor::execute_layer(const Layer& layer,
                                        const std::vector<Tensor>& outputs) const {
  const LayerWeights& w = store_->weights(layer.id);
  std::vector<RowWindow> windows;
  std::vector<const RowWindow*> window_ptrs;
  windows.reserve(layer.inputs.size());
  for (int in : layer.inputs) {
    windows.push_back(RowWindow::full(outputs[static_cast<std::size_t>(in)]));
  }
  for (const RowWindow& win : windows) window_ptrs.push_back(&win);
  const int out_h = layer.output.height;

  switch (layer.kind) {
    case LayerKind::kInput:
      throw std::logic_error("input layer is not executable");
    case LayerKind::kConv2D:
      return conv2d_rows(layer, windows[0], w, 0, out_h);
    case LayerKind::kDepthwiseConv2D:
      return depthwise_conv2d_rows(layer, windows[0], w, 0, out_h);
    case LayerKind::kMaxPool2D:
      return pool2d_rows(layer, windows[0], 0, out_h, /*max_pool=*/true);
    case LayerKind::kAvgPool2D:
      return pool2d_rows(layer, windows[0], 0, out_h, /*max_pool=*/false);
    case LayerKind::kBatchNorm:
      return batch_norm_rows(layer, windows[0], w, 0, out_h);
    case LayerKind::kActivation:
      return activation_rows(layer, windows[0], 0, out_h);
    case LayerKind::kAdd:
      return add_rows(layer, window_ptrs, 0, out_h);
    case LayerKind::kConcat:
      return concat_rows(window_ptrs, 0, out_h);
    case LayerKind::kSqueezeExcite: {
      const Tensor& in = outputs[static_cast<std::size_t>(layer.inputs.front())];
      const auto sums = se_partial_sums(windows[0], 0, in.height());
      const auto gate = se_gate(layer, w, sums,
                                static_cast<std::int64_t>(in.height()) * in.width());
      return se_scale_rows(layer, windows[0], gate, 0, in.height());
    }
    case LayerKind::kGlobalAvgPool:
      return global_avg_pool(outputs[static_cast<std::size_t>(layer.inputs.front())]);
    case LayerKind::kFlatten:
      return flatten(outputs[static_cast<std::size_t>(layer.inputs.front())]);
    case LayerKind::kDense:
      return dense(layer, outputs[static_cast<std::size_t>(layer.inputs.front())], w);
    case LayerKind::kSoftmax:
      return softmax(outputs[static_cast<std::size_t>(layer.inputs.front())]);
  }
  throw std::logic_error("unknown layer kind");
}

std::vector<Tensor> ReferenceExecutor::run_prefix(const Tensor& input, int end) const {
  if (!(input.shape() == graph_->input_shape())) {
    throw std::invalid_argument("input shape mismatch");
  }
  std::vector<Tensor> outputs(graph_->size());
  outputs[0] = input;
  const int n = std::min<int>(end, static_cast<int>(graph_->size()));
  for (int i = 1; i < n; ++i) {
    outputs[static_cast<std::size_t>(i)] =
        execute_layer(graph_->layers()[static_cast<std::size_t>(i)], outputs);
  }
  return outputs;
}

Tensor ReferenceExecutor::run(const Tensor& input) const {
  auto outputs = run_prefix(input, static_cast<int>(graph_->size()));
  return outputs.back();
}

Tensor ReferenceExecutor::run_suffix(std::vector<Tensor> outputs_by_id, int begin) const {
  for (int i = begin; i < static_cast<int>(graph_->size()); ++i) {
    outputs_by_id[static_cast<std::size_t>(i)] =
        execute_layer(graph_->layers()[static_cast<std::size_t>(i)], outputs_by_id);
  }
  return outputs_by_id.back();
}

}  // namespace hidp::tensor
