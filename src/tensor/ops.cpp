#include "tensor/ops.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <type_traits>
#include <vector>

namespace hidp::tensor {

using dnn::Activation;
using dnn::Layer;

namespace {

float activate(float v, Activation act) noexcept {
  switch (act) {
    case Activation::kNone: return v;
    case Activation::kRelu: return v > 0.0f ? v : 0.0f;
    case Activation::kRelu6: return std::clamp(v, 0.0f, 6.0f);
    case Activation::kSwish: return v / (1.0f + std::exp(-v)) ;
    case Activation::kSigmoid: return 1.0f / (1.0f + std::exp(-v));
  }
  return v;
}

}  // namespace

std::vector<float> pack_panels(const std::vector<float>& rows, int out, std::size_t fan_in) {
  if (out < 0 || rows.size() != static_cast<std::size_t>(out) * fan_in) {
    throw std::invalid_argument("pack_panels: rows is not an out x fan_in matrix");
  }
  std::vector<float> panels(panel_floats(out, fan_in), 0.0f);
  for (int oc = 0; oc < out; ++oc) {
    for (std::size_t r = 0; r < fan_in; ++r) {
      panels[panel_index(oc, r, fan_in)] = rows[static_cast<std::size_t>(oc) * fan_in + r];
    }
  }
  return panels;
}

void apply_activation(Tensor& t, Activation act) {
  if (act == Activation::kNone) return;
  float* data = t.data();
  for (std::size_t i = 0; i < t.size(); ++i) data[i] = activate(data[i], act);
}

namespace {

constexpr int kOcBlock = kPanelWidth;  ///< output channels accumulated together
constexpr int kColBlock = 4;           ///< output columns per accumulator tile

/// Index range [lo, hi).
struct Range {
  int lo = 0;
  int hi = 0;
};

/// Output columns whose tap at input column ox * stride + shift lies inside
/// [0, in_w).
Range valid_columns(int shift, int stride, int in_w, int out_w) noexcept {
  const int lo = shift >= 0 ? 0 : (stride - 1 - shift) / stride;
  // The division truncates toward zero, so a tap that reaches past the row's
  // end for every output must be cut off before it, not rounded into ox = 0.
  const int hi = shift > in_w - 1 ? 0 : std::min(out_w, (in_w - 1 - shift) / stride + 1);
  return {std::min(lo, hi), hi};
}

/// Window geometry shared by conv, depthwise conv and pooling: the padding,
/// and each kernel column's valid output range, computed once per call.
struct WindowGeometry {
  int kh, kw, stride, pad_h, pad_w, in_w, out_w;
  std::vector<Range> columns;  ///< per kx

  WindowGeometry(const Layer& layer, const RowWindow& input)
      : kh(layer.params.kernel),
        kw(layer.params.kernel_width()),
        stride(layer.params.stride),
        pad_h(dnn::resolved_padding(layer.params, input.full_height)),
        pad_w(dnn::resolved_padding_w(layer.params, input.data.width())),
        in_w(input.data.width()),
        out_w(layer.output.width) {
    columns.reserve(static_cast<std::size_t>(kw));
    for (int kx = 0; kx < kw; ++kx) {
      columns.push_back(valid_columns(kx - pad_w, stride, in_w, out_w));
    }
  }

  /// Input row read by kernel row 0 of output row oy.
  int first_row(int oy) const noexcept { return oy * stride - pad_h; }

  /// Kernel rows [lo, hi) of output row oy that read inside the tensor.
  Range kernel_rows(int oy, int full_height) const noexcept {
    const int lo = std::max(0, -first_row(oy));
    return {lo, std::max(lo, std::min(kh, full_height - first_row(oy)))};
  }

  /// The one window check: every input row output rows [out_begin,
  /// out_end) read must be materialised unless it is zero padding.
  void require(const RowWindow& input, int out_begin, int out_end) const {
    if (out_begin < out_end) input.require_rows(first_row(out_begin), first_row(out_end - 1) + kh);
  }
};

/// NT output columns of one accumulator: four lanes of a GCC/Clang vector,
/// or a lone float. Lane-wise multiply and add round exactly like the scalar
/// statements they stand for, so vectorising across columns keeps each
/// element's summation as it is.
using f32x4 = float __attribute__((vector_size(4 * sizeof(float))));
static_assert(kColBlock == 4);
template <int NT>
using Lanes = std::conditional_t<NT == 1, float, f32x4>;

template <int NT>
Lanes<NT> splat(float v) noexcept {
  if constexpr (NT == 1) {
    return v;
  } else {
    return f32x4{v, v, v, v};
  }
}

/// p[0..4), unaligned.
f32x4 load4(const float* p) noexcept {
  f32x4 v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

/// p[0], p[stride], ... for each lane.
template <int NT>
Lanes<NT> load_lanes(const float* p, int stride) noexcept {
  if constexpr (NT == 1) {
    return *p;
  } else if (stride == 1) {
    return load4(p);
  } else {
    return f32x4{p[0], p[stride], p[2 * stride], p[3 * stride]};
  }
}

template <int NT>
void store_lanes(float (&out)[kColBlock], Lanes<NT> v) noexcept {  // first NT columns
  std::memcpy(out, &v, sizeof v);
}

/// The weights (pack_panels layout) of a layer whose kernel reads them, after
/// a check that they are packed for out_c x fan_in.
const float* panels_of(const std::vector<float>& w, int out_c, std::size_t fan_in) {
  if (w.size() != panel_floats(out_c, fan_in)) {
    throw std::invalid_argument("weights are not packed as out_c x fan_in panels");
  }
  return w.data();
}

/// Output channels [oc0, oc0 + 8): their weight panel, w(j, r) at
/// panel[r * 8 + j], and their biases. Lanes past out_c have zero weights
/// and bias; only `count` rows are stored.
struct ChannelBlock {
  const float* panel;
  float bias[kOcBlock];
  int count;

  ChannelBlock(const float* w, std::size_t fan_in, const std::vector<float>& b, int oc0,
               int out_c)
      : panel(w + panel_index(oc0, 0, fan_in)), count(std::min(kOcBlock, out_c - oc0)) {
    for (int j = 0; j < kOcBlock; ++j) {
      bias[j] = j < count && !b.empty() ? b[static_cast<std::size_t>(oc0 + j)] : 0.0f;
    }
  }
};

using Tile = float[kOcBlock][kColBlock];

/// Covers columns [0, n) with 4-column tiles, then single columns:
/// tile(NT, t0, acc) fills acc, whose rows go to y + j * y_plane + t0.
template <typename TileFn>
void for_each_tile(std::size_t n, const ChannelBlock& block, float* y, std::size_t y_plane,
                   TileFn&& tile) {
  Tile acc;
  for (std::size_t t0 = 0; t0 < n;) {
    const std::size_t tn = n - t0 >= kColBlock ? kColBlock : 1;
    if (tn == kColBlock) {
      tile(std::integral_constant<int, kColBlock>{}, t0, acc);
    } else {
      tile(std::integral_constant<int, 1>{}, t0, acc);
    }
    for (int j = 0; j < block.count; ++j) {
      std::copy_n(acc[j], tn, y + static_cast<std::size_t>(j) * y_plane + t0);
    }
    t0 += tn;
  }
}

/// Columns [t0, t0 + NT) of y[oc][t] = bias[oc] + sum over ic ascending of
/// w[oc][ic] * x[ic][t], for one channel block.
template <int NT>
void matmul_tile(const ChannelBlock& block, const float* x, std::size_t x_plane, int in_c,
                 std::size_t t0, Tile& acc) {
  Lanes<NT> a[kOcBlock];
  for (int j = 0; j < kOcBlock; ++j) a[j] = splat<NT>(block.bias[j]);
  const float* xr = x + t0;
  const float* w = block.panel;
  for (int ic = 0; ic < in_c; ++ic, xr += x_plane, w += kOcBlock) {
    const Lanes<NT> xv = load_lanes<NT>(xr, 1);
    for (int j = 0; j < kOcBlock; ++j) a[j] += xv * w[j];
  }
  for (int j = 0; j < kOcBlock; ++j) store_lanes<NT>(acc[j], a[j]);
}

/// One column of y for NP consecutive channel blocks, vectorised over each
/// block's 8 channels: two f32x4 accumulators per panel, NP panels in flight
/// so their add chains overlap. Lane j sums bias, then ic ascending, exactly
/// as the column tiles do. x[ic * x_plane] is the column's input ic; row j
/// of block p goes to y[(p * 8 + j) * y_plane].
template <int NP>
void matvec_blocks(const ChannelBlock* blocks, const float* x, std::size_t x_plane, int in_c,
                   float* y, std::size_t y_plane) {
  f32x4 lo[NP], hi[NP];
  for (int p = 0; p < NP; ++p) {
    lo[p] = load4(blocks[p].bias);
    hi[p] = load4(blocks[p].bias + 4);
  }
  for (int ic = 0; ic < in_c; ++ic, x += x_plane) {
    const f32x4 xv = splat<kColBlock>(*x);
    const auto r = static_cast<std::size_t>(ic) * kOcBlock;
    for (int p = 0; p < NP; ++p) {
      lo[p] += xv * load4(blocks[p].panel + r);
      hi[p] += xv * load4(blocks[p].panel + r + 4);
    }
  }
  for (int p = 0; p < NP; ++p) {
    float acc[kOcBlock];
    std::memcpy(acc, &lo[p], sizeof lo[p]);
    std::memcpy(acc + 4, &hi[p], sizeof hi[p]);
    float* yp = y + static_cast<std::size_t>(p) * kOcBlock * y_plane;
    for (int j = 0; j < blocks[p].count; ++j) yp[static_cast<std::size_t>(j) * y_plane] = acc[j];
  }
}

/// y[oc][t] = bias[oc] + w[oc][:] . x[:][t]: the [out_c x in_c] . [in_c x n]
/// product behind pointwise convolution, the SqueezeExcite gate and dense
/// layers. x holds in_c planes of n contiguous columns, x_plane apart; the
/// weights are out_c x in_c panels.
void matmul(const float* x, std::size_t x_plane, std::size_t n, int in_c,
            const std::vector<float>& weights, const std::vector<float>& bias, int out_c,
            float* y) {
  const auto fan_in = static_cast<std::size_t>(in_c);
  const float* w = panels_of(weights, out_c, fan_in);
  if (n < kColBlock) {  // too few columns to fill a tile: vectorise over channels
    for (std::size_t t = 0; t < n; ++t) {
      for (int oc0 = 0; oc0 < out_c; oc0 += 2 * kOcBlock) {
        const ChannelBlock blocks[2] = {
            {w, fan_in, bias, oc0, out_c},
            {w, fan_in, bias, std::min(oc0 + kOcBlock, out_c), out_c}};
        float* yt = y + static_cast<std::size_t>(oc0) * n + t;
        if (blocks[1].count > 0) {
          matvec_blocks<2>(blocks, x + t, x_plane, in_c, yt, n);
        } else {
          matvec_blocks<1>(blocks, x + t, x_plane, in_c, yt, n);
        }
      }
    }
    return;
  }
  for (int oc0 = 0; oc0 < out_c; oc0 += kOcBlock) {
    const ChannelBlock block(w, fan_in, bias, oc0, out_c);
    for_each_tile(n, block, y + static_cast<std::size_t>(oc0) * n, n,
                  [&](auto nt, std::size_t t0, Tile& acc) {
                    matmul_tile<nt()>(block, x, x_plane, in_c, t0, acc);
                  });
  }
}

/// Columns [t0, t0 + NT) of output row oy of a spatial convolution for one
/// channel block: bias, then ic, ky, kx ascending over the taps inside the
/// tensor (a lane whose tap falls in the padding adds 0 * w, as the scalar
/// loops do). Weights are panels of [oc][ic][kh][kw], so the block's eight
/// weights for one tap are contiguous.
template <int NT>
void conv_tile(const WindowGeometry& g, const RowWindow& input, int in_c, int oy,
               const ChannelBlock& block, int t0, Tile& acc) {
  Lanes<NT> a[kOcBlock];
  for (int j = 0; j < kOcBlock; ++j) a[j] = splat<NT>(block.bias[j]);
  const Range kys = g.kernel_rows(oy, input.full_height);
  const std::size_t taps = static_cast<std::size_t>(g.kh) * static_cast<std::size_t>(g.kw);
  for (int ic = 0; ic < in_c; ++ic) {
    for (int ky = kys.lo; ky < kys.hi; ++ky) {
      const float* xr = input.row(ic, g.first_row(oy) + ky);
      const std::size_t r0 = static_cast<std::size_t>(ic) * taps +
                             static_cast<std::size_t>(ky) * static_cast<std::size_t>(g.kw);
      for (int kx = 0; kx < g.kw; ++kx) {
        const Range cols = g.columns[static_cast<std::size_t>(kx)];
        if (t0 + NT <= cols.lo || t0 >= cols.hi) continue;  // every lane is padding
        const int x0 = t0 * g.stride + kx - g.pad_w;
        Lanes<NT> xv = splat<NT>(0.0f);
        if (t0 >= cols.lo && t0 + NT <= cols.hi) {
          xv = load_lanes<NT>(xr + x0, g.stride);
        } else if constexpr (NT > 1) {
          for (int t = std::max(0, cols.lo - t0); t < std::min(NT, cols.hi - t0); ++t) {
            xv[t] = xr[x0 + t * g.stride];
          }
        }
        const std::size_t r = r0 + static_cast<std::size_t>(kx);
        const float* w = block.panel + r * kOcBlock;
        for (int j = 0; j < kOcBlock; ++j) a[j] += xv * w[j];
      }
    }
  }
  for (int j = 0; j < kOcBlock; ++j) store_lanes<NT>(acc[j], a[j]);
}

/// Raw rows [begin, end) of a window after one window check. Rows outside
/// [0, full_height) read as a zero row: they are padding.
class RowReader {
 public:
  RowReader(const RowWindow& input, int begin, int end) : input_(input) {
    input.require_rows(begin, end);
    if (begin < 0 || end > input.full_height) {
      zeros_.assign(static_cast<std::size_t>(input.data.width()), 0.0f);
    }
  }
  const float* operator()(int c, int y) const noexcept {
    return y < 0 || y >= input_.full_height ? zeros_.data() : input_.row(c, y);
  }

 private:
  const RowWindow& input_;
  std::vector<float> zeros_;
};

}  // namespace

Tensor conv2d_rows(const Layer& layer, const RowWindow& input, const LayerWeights& weights,
                   int out_begin, int out_end) {
  const WindowGeometry g(layer, input);
  const int in_c = input.data.channels();
  const int out_c = layer.output.channels;
  const int rows = out_end - out_begin;
  Tensor out(out_c, rows, g.out_w);
  g.require(input, out_begin, out_end);
  if (rows <= 0) return out;
  const auto out_plane = static_cast<std::size_t>(rows) * static_cast<std::size_t>(g.out_w);

  if (g.kh == 1 && g.kw == 1 && g.stride == 1 && g.pad_h == 0 && g.pad_w == 0) {
    // Output row oy reads input row oy, so each channel's rows are contiguous.
    const auto in_plane =
        static_cast<std::size_t>(input.data.height()) * static_cast<std::size_t>(g.in_w);
    matmul(input.row(0, out_begin), in_plane, out_plane, in_c, weights.conv, weights.bias,
           out_c, out.data());
    apply_activation(out, layer.params.activation);
    return out;
  }

  // Blocks of 8 output channels x tiles of one output row's columns.
  const std::size_t fan_in = static_cast<std::size_t>(in_c) * g.kh * g.kw;
  const float* w = panels_of(weights.conv, out_c, fan_in);
  for (int oc0 = 0; oc0 < out_c; oc0 += kOcBlock) {
    const ChannelBlock block(w, fan_in, weights.bias, oc0, out_c);
    for (int oy = out_begin; oy < out_end; ++oy) {
      float* y = out.data() + static_cast<std::size_t>(oc0) * out_plane +
                 static_cast<std::size_t>(oy - out_begin) * g.out_w;
      for_each_tile(static_cast<std::size_t>(g.out_w), block, y, out_plane,
                    [&](auto nt, std::size_t t0, Tile& acc) {
                      conv_tile<nt()>(g, input, in_c, oy, block, static_cast<int>(t0), acc);
                    });
    }
  }
  apply_activation(out, layer.params.activation);
  return out;
}

Tensor depthwise_conv2d_rows(const Layer& layer, const RowWindow& input,
                             const LayerWeights& weights, int out_begin, int out_end) {
  const WindowGeometry g(layer, input);
  const int channels = input.data.channels();
  const int rows = out_end - out_begin;
  Tensor out(channels, rows, g.out_w);
  g.require(input, out_begin, out_end);
  if (rows <= 0) return out;
  const float* w = weights.conv.data();
  float* yr = out.data();
  for (int c = 0; c < channels; ++c) {
    const float b = weights.bias.empty() ? 0.0f : weights.bias[static_cast<std::size_t>(c)];
    const float* wc = w + static_cast<std::size_t>(c) * g.kh * g.kw;
    for (int oy = out_begin; oy < out_end; ++oy, yr += g.out_w) {
      std::fill_n(yr, g.out_w, b);
      const Range kys = g.kernel_rows(oy, input.full_height);
      for (int ky = kys.lo; ky < kys.hi; ++ky) {
        const float* xr = input.row(c, g.first_row(oy) + ky);
        for (int kx = 0; kx < g.kw; ++kx) {
          const Range cols = g.columns[static_cast<std::size_t>(kx)];
          const int shift = kx - g.pad_w;
          const float wv = wc[ky * g.kw + kx];
          if (g.stride == 1) {
            for (int ox = cols.lo; ox < cols.hi; ++ox) yr[ox] += xr[ox + shift] * wv;
          } else {
            for (int ox = cols.lo; ox < cols.hi; ++ox) yr[ox] += xr[ox * g.stride + shift] * wv;
          }
        }
      }
    }
  }
  apply_activation(out, layer.params.activation);
  return out;
}

Tensor pool2d_rows(const Layer& layer, const RowWindow& input, int out_begin, int out_end,
                   bool max_pool) {
  const WindowGeometry g(layer, input);
  const int channels = input.data.channels();
  Tensor out(channels, out_end - out_begin, g.out_w);
  g.require(input, out_begin, out_end);
  float* yr = out.data();
  for (int c = 0; c < channels; ++c) {
    for (int oy = out_begin; oy < out_end; ++oy, yr += g.out_w) {
      // Pooling ignores padding: only taps inside the tensor count.
      const Range kys = g.kernel_rows(oy, input.full_height);
      for (int ox = 0; ox < g.out_w; ++ox) {
        const int ix0 = ox * g.stride - g.pad_w;
        const int kx_lo = std::max(0, -ix0);
        const int kx_hi = std::min(g.kw, g.in_w - ix0);
        float best = -std::numeric_limits<float>::infinity();
        float sum = 0.0f;
        int count = 0;
        for (int ky = kys.lo; ky < kys.hi; ++ky) {
          const float* xr = input.row(c, g.first_row(oy) + ky);
          for (int kx = kx_lo; kx < kx_hi; ++kx) {
            const float v = xr[ix0 + kx];
            best = std::max(best, v);
            sum += v;
            ++count;
          }
        }
        yr[ox] = max_pool ? best : (count > 0 ? sum / static_cast<float>(count) : 0.0f);
      }
    }
  }
  return out;
}

Tensor batch_norm_rows(const Layer& layer, const RowWindow& input, const LayerWeights& weights,
                       int begin, int end) {
  const int channels = input.data.channels();
  const int w = input.data.width();
  const RowReader rows(input, begin, end);
  Tensor out(channels, end - begin, w);
  float* yr = out.data();
  for (int c = 0; c < channels; ++c) {
    const auto ci = static_cast<std::size_t>(c);
    const float inv_std = 1.0f / std::sqrt(weights.bn_var[ci] + 1e-5f);
    for (int y = begin; y < end; ++y, yr += w) {
      const float* xr = rows(c, y);
      for (int x = 0; x < w; ++x) {
        const float v = (xr[x] - weights.bn_mean[ci]) * inv_std;
        yr[x] = activate(v * weights.bn_gamma[ci] + weights.bn_beta[ci], layer.params.activation);
      }
    }
  }
  return out;
}

Tensor activation_rows(const Layer& layer, const RowWindow& input, int begin, int end) {
  const int channels = input.data.channels();
  const int w = input.data.width();
  const RowReader rows(input, begin, end);
  Tensor out(channels, end - begin, w);
  float* yr = out.data();
  for (int c = 0; c < channels; ++c) {
    for (int y = begin; y < end; ++y, yr += w) {
      const float* xr = rows(c, y);
      for (int x = 0; x < w; ++x) yr[x] = activate(xr[x], layer.params.activation);
    }
  }
  return out;
}

Tensor add_rows(const Layer& layer, const std::vector<const RowWindow*>& inputs, int begin,
                int end) {
  if (inputs.empty()) throw std::invalid_argument("add_rows: no inputs");
  const int channels = inputs.front()->data.channels();
  const int w = inputs.front()->data.width();
  std::vector<RowReader> rows;
  rows.reserve(inputs.size());
  for (const RowWindow* in : inputs) rows.emplace_back(*in, begin, end);
  Tensor out(channels, end - begin, w);
  float* yr = out.data();
  for (int c = 0; c < channels; ++c) {
    for (int y = begin; y < end; ++y, yr += w) {
      for (const RowReader& in : rows) {
        const float* xr = in(c, y);
        for (int x = 0; x < w; ++x) yr[x] += xr[x];
      }
      for (int x = 0; x < w; ++x) yr[x] = activate(yr[x], layer.params.activation);
    }
  }
  return out;
}

Tensor concat_rows(const std::vector<const RowWindow*>& inputs, int begin, int end) {
  if (inputs.empty()) throw std::invalid_argument("concat_rows: no inputs");
  int channels = 0;
  for (const RowWindow* in : inputs) channels += in->data.channels();
  const int w = inputs.front()->data.width();
  Tensor out(channels, end - begin, w);
  float* yr = out.data();
  for (const RowWindow* in : inputs) {
    const RowReader rows(*in, begin, end);
    for (int c = 0; c < in->data.channels(); ++c) {
      for (int y = begin; y < end; ++y, yr += w) std::copy_n(rows(c, y), w, yr);
    }
  }
  return out;
}

std::vector<double> se_partial_sums(const RowWindow& input, int begin, int end) {
  std::vector<double> sums(static_cast<std::size_t>(input.data.channels()), 0.0);
  const RowReader rows(input, begin, end);
  for (int c = 0; c < input.data.channels(); ++c) {
    double& sum = sums[static_cast<std::size_t>(c)];
    for (int y = begin; y < end; ++y) {
      const float* xr = rows(c, y);
      for (int x = 0; x < input.data.width(); ++x) sum += xr[x];
    }
  }
  return sums;
}

std::vector<float> se_gate(const Layer& layer, const LayerWeights& weights,
                           const std::vector<double>& channel_sums,
                           std::int64_t count_per_channel) {
  const auto channels = channel_sums.size();
  const auto reduced = static_cast<std::size_t>(
      layer.params.out_channels > 0 ? layer.params.out_channels
                                    : std::max<int>(1, static_cast<int>(channels) / 4));
  std::vector<float> mean(channels);
  for (std::size_t c = 0; c < channels; ++c) {
    mean[c] = static_cast<float>(channel_sums[c] / static_cast<double>(count_per_channel));
  }
  std::vector<float> hidden(reduced);
  matmul(mean.data(), 1, 1, static_cast<int>(channels), weights.se_reduce,
         weights.se_reduce_bias, static_cast<int>(reduced), hidden.data());
  for (float& h : hidden) h = activate(h, Activation::kSwish);
  std::vector<float> gate(channels);
  matmul(hidden.data(), 1, 1, static_cast<int>(reduced), weights.se_expand,
         weights.se_expand_bias, static_cast<int>(channels), gate.data());
  for (float& g : gate) g = activate(g, Activation::kSigmoid);
  return gate;
}

Tensor se_scale_rows(const Layer& layer, const RowWindow& input, const std::vector<float>& gate,
                     int begin, int end) {
  (void)layer;
  const int channels = input.data.channels();
  const int w = input.data.width();
  const RowReader rows(input, begin, end);
  Tensor out(channels, end - begin, w);
  float* yr = out.data();
  for (int c = 0; c < channels; ++c) {
    const float g = gate[static_cast<std::size_t>(c)];
    for (int y = begin; y < end; ++y, yr += w) {
      const float* xr = rows(c, y);
      for (int x = 0; x < w; ++x) yr[x] = xr[x] * g;
    }
  }
  return out;
}

Tensor global_avg_pool(const Tensor& input) {
  Tensor out(input.channels(), 1, 1);
  const auto denom = static_cast<double>(input.height()) * input.width();
  for (int c = 0; c < input.channels(); ++c) {
    double acc = 0.0;
    for (int y = 0; y < input.height(); ++y) {
      for (int x = 0; x < input.width(); ++x) acc += input.at(c, y, x);
    }
    out.at(c, 0, 0) = static_cast<float>(acc / denom);
  }
  return out;
}

Tensor flatten(const Tensor& input) {
  Tensor out(static_cast<int>(input.shape().elements()), 1, 1);
  std::copy(input.data(), input.data() + input.size(), out.data());
  return out;
}

Tensor dense(const Layer& layer, const Tensor& input, const LayerWeights& weights) {
  const auto in_f = static_cast<std::size_t>(input.shape().elements());
  const auto out_f = static_cast<std::size_t>(layer.output.channels);
  Tensor out(static_cast<int>(out_f), 1, 1);
  matmul(input.data(), 1, 1, static_cast<int>(in_f), weights.dense, weights.bias,
         static_cast<int>(out_f), out.data());
  apply_activation(out, layer.params.activation);
  return out;
}

Tensor softmax(const Tensor& input) {
  Tensor out(input.shape());
  float max_v = -std::numeric_limits<float>::infinity();
  for (std::size_t i = 0; i < input.size(); ++i) max_v = std::max(max_v, input.data()[i]);
  double total = 0.0;
  for (std::size_t i = 0; i < input.size(); ++i) {
    const float e = std::exp(input.data()[i] - max_v);
    out.data()[i] = e;
    total += e;
  }
  for (std::size_t i = 0; i < out.size(); ++i) {
    out.data()[i] = static_cast<float>(out.data()[i] / total);
  }
  return out;
}

}  // namespace hidp::tensor
