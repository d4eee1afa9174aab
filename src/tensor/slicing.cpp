#include "tensor/slicing.hpp"

#include <algorithm>
#include <stdexcept>

namespace hidp::tensor {

using dnn::Layer;
using dnn::LayerKind;
using dnn::RowRange;

Tensor PartitionedExecutor::run(const Tensor& input, int sigma) const {
  const dnn::DnnGraph& graph = reference_->graph();
  const int split = dnn::data_partition_point(graph);
  if (split <= 0 || sigma <= 1) return reference_->run(input);
  const int target_rows = graph.layer(split - 1).output.height;
  const int bands_count = std::min(sigma, target_rows);
  std::vector<RowRange> bands;
  bands.reserve(static_cast<std::size_t>(bands_count));
  int cursor = 0;
  for (int s = 0; s < bands_count; ++s) {
    const int end = target_rows * (s + 1) / bands_count;
    bands.push_back(RowRange{cursor, end});
    cursor = end;
  }
  return run_with_bands(input, bands);
}

Tensor PartitionedExecutor::run_with_bands(const Tensor& input,
                                           const std::vector<RowRange>& bands) const {
  const dnn::DnnGraph& graph = reference_->graph();
  const int split = dnn::data_partition_point(graph);
  if (split <= 0 || bands.empty()) return reference_->run(input);
  const int target = split - 1;
  const int target_rows = graph.layer(target).output.height;

  // Validate that bands partition the target rows.
  int cursor = 0;
  for (const RowRange& band : bands) {
    if (band.begin != cursor || band.end < band.begin) {
      throw std::invalid_argument("bands must be contiguous and ordered");
    }
    cursor = band.end;
  }
  if (cursor != target_rows) throw std::invalid_argument("bands must cover the target rows");

  const std::size_t sigma = bands.size();
  report_ = SliceReport{};
  report_.sigma = static_cast<int>(sigma);
  report_.split_layer = split;

  // Per-slice required rows for every prefix layer.
  std::vector<std::vector<RowRange>> required(sigma);
  for (std::size_t s = 0; s < sigma; ++s) {
    required[s] = dnn::backpropagate_rows(graph, split, bands[s]);
    for (int l = 0; l < split; ++l) {
      report_.total_rows += required[s][static_cast<std::size_t>(l)].size();
    }
  }
  for (int l = 0; l < split; ++l) report_.owned_rows += graph.layer(l).output.height;

  // windows[s][l]: materialised rows of layer l held by slice s.
  std::vector<std::vector<RowWindow>> windows(sigma,
                                              std::vector<RowWindow>(graph.size()));
  for (std::size_t s = 0; s < sigma; ++s) {
    const RowRange need = required[s][0];
    if (need.empty()) continue;
    RowWindow& w = windows[s][0];
    w.data = input.rows(need.begin, need.end);
    w.row_offset = need.begin;
    w.full_height = input.height();
  }

  // Layer-major lockstep execution across slices (matches the distributed
  // exchange pattern: SqueezeExcite reduces across slices mid-flight).
  for (int l = 1; l < split; ++l) {
    const Layer& layer = graph.layers()[static_cast<std::size_t>(l)];
    const LayerWeights& lw = reference_->store().weights(l);

    if (layer.kind == LayerKind::kSqueezeExcite) {
      const int producer = layer.inputs.front();
      const int in_h = graph.layer(producer).output.height;
      // Disjoint row ownership over the producer: the proportional share of
      // each slice's target band (guaranteed to be materialised by
      // backpropagate_rows) — each slice contributes its owned rows once.
      std::vector<double> sums(static_cast<std::size_t>(layer.output.channels), 0.0);
      int owned_cursor = 0;
      for (std::size_t s = 0; s < sigma; ++s) {
        const RowRange own = dnn::proportional_share(in_h, bands[s], target_rows);
        if (own.empty()) continue;
        const RowRange need = required[s][static_cast<std::size_t>(producer)];
        if (own.begin < need.begin || own.end > need.end) {
          throw std::logic_error("SqueezeExcite ownership not materialised by slice");
        }
        const auto partial =
            se_partial_sums(windows[s][static_cast<std::size_t>(producer)], own.begin, own.end);
        for (std::size_t c = 0; c < sums.size(); ++c) sums[c] += partial[c];
        if (own.begin != owned_cursor) {
          throw std::logic_error("SqueezeExcite ownership is not contiguous");
        }
        owned_cursor = own.end;
      }
      if (owned_cursor != in_h) {
        throw std::logic_error("SqueezeExcite ownership does not cover the tensor");
      }
      const auto gate = se_gate(layer, lw, sums,
                                static_cast<std::int64_t>(in_h) * layer.output.width);
      for (std::size_t s = 0; s < sigma; ++s) {
        const RowRange out_rows = required[s][static_cast<std::size_t>(l)];
        if (out_rows.empty()) continue;
        RowWindow& out = windows[s][static_cast<std::size_t>(l)];
        out.data = se_scale_rows(layer, windows[s][static_cast<std::size_t>(producer)], gate,
                                 out_rows.begin, out_rows.end);
        out.row_offset = out_rows.begin;
        out.full_height = layer.output.height;
      }
      continue;
    }

    for (std::size_t s = 0; s < sigma; ++s) {
      const RowRange out_rows = required[s][static_cast<std::size_t>(l)];
      if (out_rows.empty()) continue;
      std::vector<const RowWindow*> inputs;
      inputs.reserve(layer.inputs.size());
      for (int in : layer.inputs) inputs.push_back(&windows[s][static_cast<std::size_t>(in)]);
      Tensor result;
      switch (layer.kind) {
        case LayerKind::kConv2D:
          result = conv2d_rows(layer, *inputs[0], lw, out_rows.begin, out_rows.end);
          break;
        case LayerKind::kDepthwiseConv2D:
          result = depthwise_conv2d_rows(layer, *inputs[0], lw, out_rows.begin, out_rows.end);
          break;
        case LayerKind::kMaxPool2D:
          result = pool2d_rows(layer, *inputs[0], out_rows.begin, out_rows.end, true);
          break;
        case LayerKind::kAvgPool2D:
          result = pool2d_rows(layer, *inputs[0], out_rows.begin, out_rows.end, false);
          break;
        case LayerKind::kBatchNorm:
          result = batch_norm_rows(layer, *inputs[0], lw, out_rows.begin, out_rows.end);
          break;
        case LayerKind::kActivation:
          result = activation_rows(layer, *inputs[0], out_rows.begin, out_rows.end);
          break;
        case LayerKind::kAdd:
          result = add_rows(layer, inputs, out_rows.begin, out_rows.end);
          break;
        case LayerKind::kConcat:
          result = concat_rows(inputs, out_rows.begin, out_rows.end);
          break;
        default:
          throw std::logic_error("non-local layer inside the spatial prefix");
      }
      RowWindow& out = windows[s][static_cast<std::size_t>(l)];
      out.data = std::move(result);
      out.row_offset = out_rows.begin;
      out.full_height = layer.output.height;
    }
  }

  // Gather band outputs of the split layer into the full activation.
  Tensor gathered(graph.layer(target).output);
  for (std::size_t s = 0; s < sigma; ++s) {
    const RowRange band = bands[s];
    if (band.empty()) continue;
    const RowWindow& window = windows[s][static_cast<std::size_t>(target)];
    window.require_rows(band.begin, band.end);
    for (int c = 0; c < gathered.channels(); ++c) {
      std::copy_n(window.row(c, band.begin), band.size() * gathered.width(),
                  &gathered.at(c, band.begin, 0));
    }
  }

  // Classifier head runs whole on the gathered tensor.
  std::vector<Tensor> outputs(graph.size());
  outputs[static_cast<std::size_t>(target)] = std::move(gathered);
  return reference_->run_suffix(std::move(outputs), split);
}

}  // namespace hidp::tensor
