// Window-aware kernels for every LayerKind.
//
// Each op computes output rows [out_begin, out_end) (global coordinates)
// from input RowWindows, so the same code path executes whole tensors
// (window = everything) and data-partitioned slices (window = band + halo).
// Running both through identical arithmetic makes whole-vs-partitioned
// comparisons bit-exact for everything except SqueezeExcite's partial-sum
// reduction, which is associativity-sensitive (tested with tolerance).
//
// The spatial kernels are direct: one window check per call, then raw row
// pointers. Convolutions accumulate 8 output channels x 4 output columns
// at a time, and a 1x1 convolution is one matrix product over contiguous
// channel planes (shared with dense layers and the SqueezeExcite gate).
// Products of fewer than 4 columns (1x1 spatial maps, the SE gate, dense
// layers) vectorise over 8 output channels instead, two panels at a time.
// Every weight those kernels read is packed into 8-channel panels (see
// pack_panels), so a block's weights for one input tap are 8 contiguous
// floats. Every output element still sums in the order of the plain
// scalar loops (bias, then ic, ky, kx ascending), so the kernels reproduce
// those loops bit for bit up to the sign of a zero. The loops live on as
// the test oracle in tests/oracle_kernels.hpp. No threads.
#pragma once

#include <cstddef>
#include <vector>

#include "dnn/layer.hpp"
#include "tensor/tensor.hpp"

namespace hidp::tensor {

/// Output channels per weight panel.
inline constexpr int kPanelWidth = 8;

/// Floats in the panels of an [out][fan_in] weight matrix: ceil(out / 8)
/// panels of fan_in x 8, the last one zero-padded past `out`.
constexpr std::size_t panel_floats(int out, std::size_t fan_in) noexcept {
  return static_cast<std::size_t>((out + kPanelWidth - 1) / kPanelWidth) * fan_in * kPanelWidth;
}

/// Where weight (oc, r) of an [out][fan_in] matrix lives in its panels:
/// panel oc / 8, row r, lane oc % 8.
constexpr std::size_t panel_index(int oc, std::size_t r, std::size_t fan_in) noexcept {
  return (static_cast<std::size_t>(oc / kPanelWidth) * fan_in + r) * kPanelWidth +
         static_cast<std::size_t>(oc % kPanelWidth);
}

/// Packs plain [out][fan_in] rows into panels (padding lanes are 0).
std::vector<float> pack_panels(const std::vector<float>& rows, int out, std::size_t fan_in);

/// Layer weights (deterministic pseudo-random stand-ins for trained ones;
/// equivalence of partitioned execution does not depend on the values).
/// "Panels" means the pack_panels layout of the named [out][fan_in] matrix.
struct LayerWeights {
  /// Conv2D: panels of [out][in * kh * kw] (fan-in ordered ic, ky, kx).
  /// Depthwise: plain [c][kh][kw].
  std::vector<float> conv;
  std::vector<float> bias;
  std::vector<float> bn_gamma, bn_beta, bn_mean, bn_var;
  std::vector<float> se_reduce, se_reduce_bias;  ///< panels of [r][c]
  std::vector<float> se_expand, se_expand_bias;  ///< panels of [c][r]
  std::vector<float> dense;                      ///< panels of [out][in]
};

/// conv / depthwise-conv / pool over output rows [out_begin, out_end).
/// `out` receives a tensor of (out_end - out_begin) rows.
Tensor conv2d_rows(const dnn::Layer& layer, const RowWindow& input,
                   const LayerWeights& weights, int out_begin, int out_end);
Tensor depthwise_conv2d_rows(const dnn::Layer& layer, const RowWindow& input,
                             const LayerWeights& weights, int out_begin, int out_end);
Tensor pool2d_rows(const dnn::Layer& layer, const RowWindow& input, int out_begin, int out_end,
                   bool max_pool);

/// Element-wise ops over rows [begin, end).
Tensor batch_norm_rows(const dnn::Layer& layer, const RowWindow& input,
                       const LayerWeights& weights, int begin, int end);
Tensor activation_rows(const dnn::Layer& layer, const RowWindow& input, int begin, int end);
Tensor add_rows(const dnn::Layer& layer, const std::vector<const RowWindow*>& inputs, int begin,
                int end);
Tensor concat_rows(const std::vector<const RowWindow*>& inputs, int begin, int end);

/// SqueezeExcite split into its distributed phases:
///  1. per-slice partial channel sums;
///  2. gate computation from the global mean (the all-reduce result);
///  3. per-slice rescale.
std::vector<double> se_partial_sums(const RowWindow& input, int begin, int end);
std::vector<float> se_gate(const dnn::Layer& layer, const LayerWeights& weights,
                           const std::vector<double>& channel_sums, std::int64_t count_per_channel);
Tensor se_scale_rows(const dnn::Layer& layer, const RowWindow& input,
                     const std::vector<float>& gate, int begin, int end);

/// Head (non-spatial) ops on full tensors.
Tensor global_avg_pool(const Tensor& input);
Tensor flatten(const Tensor& input);
Tensor dense(const dnn::Layer& layer, const Tensor& input, const LayerWeights& weights);
Tensor softmax(const Tensor& input);

/// Fused activation applied in place (conv/dense/bn carry one).
void apply_activation(Tensor& t, dnn::Activation act);

}  // namespace hidp::tensor
