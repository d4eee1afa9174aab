// Test oracle for the direct window kernels and the panel products in
// src/tensor/ops.cpp: the plain scalar loops they replaced, one checked
// element read per tap. Every output element sums bias, then ic, ky and kx
// ascending, and pooling visits taps in ky, kx order; the kernels must
// reproduce these loops bit for bit (up to the sign of a zero: the loops
// add padded taps as 0 * w where the kernels may skip them). The oracle
// reads weights in their plain layouts, not pack_panels panels: Conv2D
// [oc][ic][kh][kw], depthwise [c][kh][kw], dense [out][in], SqueezeExcite
// reduce [r][c] and expand [c][r].
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "tensor/ops.hpp"

namespace hidp::tensor::oracle {

/// Element (c, global_y, x) of a window in global row coordinates: zero
/// outside the tensor, std::logic_error for a row inside the tensor that
/// the window does not hold.
inline float at_global(const RowWindow& w, int c, int global_y, int x) {
  if (global_y < 0 || global_y >= w.full_height) return 0.0f;  // zero padding
  if (x < 0 || x >= w.data.width()) return 0.0f;
  w.require_rows(global_y, global_y + 1);
  return w.row(c, global_y)[x];
}

inline Tensor conv2d_rows(const dnn::Layer& layer, const RowWindow& input,
                          const LayerWeights& weights, int out_begin, int out_end) {
  const auto& p = layer.params;
  const int in_c = input.data.channels();
  const int in_w = input.data.width();
  const int kh = p.kernel;
  const int kw = p.kernel_width();
  const int pad_h = dnn::resolved_padding(p, input.full_height);
  const int pad_w = dnn::resolved_padding_w(p, in_w);
  const int out_c = layer.output.channels;
  const int out_w = layer.output.width;
  Tensor out(out_c, out_end - out_begin, out_w);
  const float* w = weights.conv.data();
  for (int oc = 0; oc < out_c; ++oc) {
    const float b = weights.bias.empty() ? 0.0f : weights.bias[static_cast<std::size_t>(oc)];
    for (int oy = out_begin; oy < out_end; ++oy) {
      for (int ox = 0; ox < out_w; ++ox) {
        float acc = b;
        for (int ic = 0; ic < in_c; ++ic) {
          for (int ky = 0; ky < kh; ++ky) {
            const int iy = oy * p.stride - pad_h + ky;
            for (int kx = 0; kx < kw; ++kx) {
              const int ix = ox * p.stride - pad_w + kx;
              const float v = at_global(input, ic, iy, ix);
              const float weight =
                  w[((static_cast<std::size_t>(oc) * in_c + ic) * kh + ky) * kw + kx];
              acc += v * weight;
            }
          }
        }
        out.at(oc, oy - out_begin, ox) = acc;
      }
    }
  }
  apply_activation(out, p.activation);  // element-wise on each finished sum
  return out;
}

inline Tensor depthwise_conv2d_rows(const dnn::Layer& layer, const RowWindow& input,
                                    const LayerWeights& weights, int out_begin, int out_end) {
  const auto& p = layer.params;
  const int channels = input.data.channels();
  const int in_w = input.data.width();
  const int kh = p.kernel;
  const int kw = p.kernel_width();
  const int pad_h = dnn::resolved_padding(p, input.full_height);
  const int pad_w = dnn::resolved_padding_w(p, in_w);
  const int out_w = layer.output.width;
  Tensor out(channels, out_end - out_begin, out_w);
  const float* w = weights.conv.data();
  for (int c = 0; c < channels; ++c) {
    const float b = weights.bias.empty() ? 0.0f : weights.bias[static_cast<std::size_t>(c)];
    for (int oy = out_begin; oy < out_end; ++oy) {
      for (int ox = 0; ox < out_w; ++ox) {
        float acc = b;
        for (int ky = 0; ky < kh; ++ky) {
          const int iy = oy * p.stride - pad_h + ky;
          for (int kx = 0; kx < kw; ++kx) {
            const int ix = ox * p.stride - pad_w + kx;
            acc += at_global(input, c, iy, ix) *
                   w[(static_cast<std::size_t>(c) * kh + ky) * kw + kx];
          }
        }
        out.at(c, oy - out_begin, ox) = acc;
      }
    }
  }
  apply_activation(out, p.activation);
  return out;
}

inline Tensor pool2d_rows(const dnn::Layer& layer, const RowWindow& input, int out_begin,
                          int out_end, bool max_pool) {
  const auto& p = layer.params;
  const int channels = input.data.channels();
  const int in_w = input.data.width();
  const int k = p.kernel;
  const int kw = p.kernel_width();
  const int pad_h = dnn::resolved_padding(p, input.full_height);
  const int pad_w = dnn::resolved_padding_w(p, in_w);
  const int out_w = layer.output.width;
  Tensor out(channels, out_end - out_begin, out_w);
  for (int c = 0; c < channels; ++c) {
    for (int oy = out_begin; oy < out_end; ++oy) {
      for (int ox = 0; ox < out_w; ++ox) {
        float best = -std::numeric_limits<float>::infinity();
        float sum = 0.0f;
        int count = 0;
        for (int ky = 0; ky < k; ++ky) {
          const int iy = oy * p.stride - pad_h + ky;
          if (iy < 0 || iy >= input.full_height) continue;  // pooling ignores pad
          for (int kx = 0; kx < kw; ++kx) {
            const int ix = ox * p.stride - pad_w + kx;
            if (ix < 0 || ix >= in_w) continue;
            const float v = at_global(input, c, iy, ix);
            best = std::max(best, v);
            sum += v;
            ++count;
          }
        }
        out.at(c, oy - out_begin, ox) =
            max_pool ? best : (count > 0 ? sum / static_cast<float>(count) : 0.0f);
      }
    }
  }
  return out;
}

/// y[o] = bias[o] + sum over i ascending of w[o][i] * x[i], then the
/// layer's activation.
inline Tensor dense(const dnn::Layer& layer, const Tensor& input, const LayerWeights& weights) {
  const auto in_f = static_cast<std::size_t>(input.shape().elements());
  const int out_f = layer.output.channels;
  Tensor out(out_f, 1, 1);
  for (int o = 0; o < out_f; ++o) {
    float acc = weights.bias.empty() ? 0.0f : weights.bias[static_cast<std::size_t>(o)];
    for (std::size_t i = 0; i < in_f; ++i) {
      acc += input.data()[i] * weights.dense[static_cast<std::size_t>(o) * in_f + i];
    }
    out.at(o, 0, 0) = acc;
  }
  apply_activation(out, layer.params.activation);
  return out;
}

/// The SqueezeExcite gate from global channel sums: mean, reduce + swish,
/// expand + sigmoid, each product summing bias then inputs ascending.
inline std::vector<float> se_gate(const dnn::Layer& layer, const LayerWeights& weights,
                                  const std::vector<double>& channel_sums,
                                  std::int64_t count_per_channel) {
  const int channels = static_cast<int>(channel_sums.size());
  const int reduced = layer.params.out_channels > 0 ? layer.params.out_channels
                                                    : std::max(1, channels / 4);
  Tensor hidden(reduced, 1, 1);
  for (int r = 0; r < reduced; ++r) {
    float acc = weights.se_reduce_bias[static_cast<std::size_t>(r)];
    for (int c = 0; c < channels; ++c) {
      const auto mean = static_cast<float>(channel_sums[static_cast<std::size_t>(c)] /
                                           static_cast<double>(count_per_channel));
      acc += mean * weights.se_reduce[static_cast<std::size_t>(r) * channels + c];
    }
    hidden.at(r, 0, 0) = acc;
  }
  apply_activation(hidden, dnn::Activation::kSwish);
  Tensor gate(channels, 1, 1);
  for (int c = 0; c < channels; ++c) {
    float acc = weights.se_expand_bias[static_cast<std::size_t>(c)];
    for (int r = 0; r < reduced; ++r) {
      acc += hidden.at(r, 0, 0) * weights.se_expand[static_cast<std::size_t>(c) * reduced + r];
    }
    gate.at(c, 0, 0) = acc;
  }
  apply_activation(gate, dnn::Activation::kSigmoid);
  return std::vector<float>(gate.data(), gate.data() + gate.size());
}

}  // namespace hidp::tensor::oracle
