// Unit tests for the tensor ops: hand-computed golden values, seeded
// property tests holding the direct window kernels and the panel products
// bit-identical to the scalar oracle loops, and the window check that
// catches slicing bugs.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "oracle_kernels.hpp"
#include "tensor/ops.hpp"

namespace hidp::tensor {
namespace {

using dnn::Activation;
using dnn::Layer;
using dnn::LayerKind;

Layer conv_layer(int in_c, int out_c, int k, int stride, bool same,
                 Activation act = Activation::kNone) {
  Layer l;
  l.kind = LayerKind::kConv2D;
  l.params.kernel = k;
  l.params.stride = stride;
  l.params.same_padding = same;
  l.params.out_channels = out_c;
  l.params.use_bias = true;
  l.params.activation = act;
  l.output = dnn::infer_output_shape(l.kind, l.params, {dnn::Shape{in_c, 4, 4}});
  return l;
}

TEST(Tensor, IndexingRoundTrips) {
  Tensor t(2, 3, 4);
  t.at(1, 2, 3) = 42.0f;
  EXPECT_FLOAT_EQ(t.at(1, 2, 3), 42.0f);
  EXPECT_EQ(t.size(), 24u);
}

TEST(Tensor, RowsExtractsBand) {
  Tensor t(1, 4, 2);
  for (int y = 0; y < 4; ++y)
    for (int x = 0; x < 2; ++x) t.at(0, y, x) = static_cast<float>(y * 10 + x);
  const Tensor band = t.rows(1, 3);
  EXPECT_EQ(band.height(), 2);
  EXPECT_FLOAT_EQ(band.at(0, 0, 1), 11.0f);
  EXPECT_FLOAT_EQ(band.at(0, 1, 0), 20.0f);
  EXPECT_THROW(t.rows(-1, 2), std::out_of_range);
}

TEST(Tensor, AllcloseAndDiff) {
  Tensor a(1, 1, 2), b(1, 1, 2);
  a.at(0, 0, 0) = 1.0f;
  b.at(0, 0, 0) = 1.0f + 1e-7f;
  EXPECT_TRUE(a.allclose(b));
  b.at(0, 0, 1) = 0.5f;
  EXPECT_FALSE(a.allclose(b));
  EXPECT_NEAR(a.max_abs_diff(b), 0.5, 1e-6);
}

TEST(RowWindow, GlobalAccessAndPadding) {
  Tensor t(1, 2, 2);
  t.at(0, 0, 0) = 7.0f;
  RowWindow w;
  w.data = t;
  w.row_offset = 3;
  w.full_height = 8;
  EXPECT_FLOAT_EQ(w.row(0, 3)[0], 7.0f);
  EXPECT_NO_THROW(w.require_rows(3, 5));
  EXPECT_NO_THROW(w.require_rows(-2, 0));  // zero pad above tensor
  EXPECT_NO_THROW(w.require_rows(8, 10));  // zero pad below tensor
  EXPECT_THROW(w.require_rows(1, 4), std::logic_error);  // inside tensor, outside window
  EXPECT_THROW(w.require_rows(4, 9), std::logic_error);
  // The oracle's element read keeps the same contract.
  EXPECT_FLOAT_EQ(oracle::at_global(w, 0, 3, 0), 7.0f);
  EXPECT_FLOAT_EQ(oracle::at_global(w, 0, -1, 0), 0.0f);  // zero pad above tensor
  EXPECT_FLOAT_EQ(oracle::at_global(w, 0, 8, 0), 0.0f);   // zero pad below tensor
  EXPECT_FLOAT_EQ(oracle::at_global(w, 0, 3, -1), 0.0f);  // width pad
  EXPECT_THROW(oracle::at_global(w, 0, 1, 0), std::logic_error);
}

TEST(Ops, Conv1x1IsChannelMix) {
  // 1x1 conv with known weights: out = 2*in0 + 3*in1 + bias(1).
  Layer l = conv_layer(2, 1, 1, 1, true);
  LayerWeights w;
  w.conv = pack_panels({2.0f, 3.0f}, 1, 2);
  w.bias = {1.0f};
  Tensor in(2, 4, 4);
  in.at(0, 1, 1) = 5.0f;
  in.at(1, 1, 1) = 7.0f;
  const Tensor out = conv2d_rows(l, RowWindow::full(in), w, 0, 4);
  EXPECT_FLOAT_EQ(out.at(0, 1, 1), 2.0f * 5.0f + 3.0f * 7.0f + 1.0f);
  EXPECT_FLOAT_EQ(out.at(0, 0, 0), 1.0f);  // bias only elsewhere
}

TEST(Ops, Conv3x3IdentityKernel) {
  // Kernel with 1 at centre reproduces the input (same padding).
  Layer l = conv_layer(1, 1, 3, 1, true);
  std::vector<float> kernel(9, 0.0f);
  kernel[4] = 1.0f;  // centre tap
  LayerWeights w;
  w.conv = pack_panels(kernel, 1, 9);
  w.bias = {0.0f};
  util::Rng rng(3);
  const Tensor in = Tensor::random(dnn::Shape{1, 4, 4}, rng);
  const Tensor out = conv2d_rows(l, RowWindow::full(in), w, 0, 4);
  EXPECT_LT(out.max_abs_diff(in), 1e-6);
}

TEST(Ops, ConvReluClampsNegative) {
  Layer l = conv_layer(1, 1, 1, 1, true, Activation::kRelu);
  LayerWeights w;
  w.conv = pack_panels({-1.0f}, 1, 1);
  w.bias = {0.0f};
  Tensor in(1, 4, 4);
  in.at(0, 0, 0) = 3.0f;
  const Tensor out = conv2d_rows(l, RowWindow::full(in), w, 0, 4);
  EXPECT_FLOAT_EQ(out.at(0, 0, 0), 0.0f);
}

TEST(Ops, DepthwiseKeepsChannelsSeparate) {
  Layer l;
  l.kind = LayerKind::kDepthwiseConv2D;
  l.params.kernel = 1;
  l.params.stride = 1;
  l.params.same_padding = true;
  l.params.use_bias = false;
  l.output = dnn::Shape{2, 2, 2};
  LayerWeights w;
  w.conv = {10.0f, 100.0f};  // depthwise weights stay plain [c][kh][kw]
  Tensor in(2, 2, 2);
  in.at(0, 0, 0) = 1.0f;
  in.at(1, 0, 0) = 1.0f;
  const Tensor out = depthwise_conv2d_rows(l, RowWindow::full(in), w, 0, 2);
  EXPECT_FLOAT_EQ(out.at(0, 0, 0), 10.0f);
  EXPECT_FLOAT_EQ(out.at(1, 0, 0), 100.0f);
}

TEST(Ops, MaxAndAvgPool) {
  Layer l;
  l.kind = LayerKind::kMaxPool2D;
  l.params.kernel = 2;
  l.params.stride = 2;
  l.output = dnn::Shape{1, 1, 1};
  Tensor in(1, 2, 2);
  in.at(0, 0, 0) = 1.0f;
  in.at(0, 0, 1) = 2.0f;
  in.at(0, 1, 0) = 3.0f;
  in.at(0, 1, 1) = 4.0f;
  EXPECT_FLOAT_EQ(pool2d_rows(l, RowWindow::full(in), 0, 1, true).at(0, 0, 0), 4.0f);
  EXPECT_FLOAT_EQ(pool2d_rows(l, RowWindow::full(in), 0, 1, false).at(0, 0, 0), 2.5f);
}

TEST(Ops, AvgPoolIgnoresPadding) {
  // 3x3 same avg pool at a corner averages only the valid 2x2 values
  // (count-based divisor, TF semantics).
  Layer l;
  l.kind = LayerKind::kAvgPool2D;
  l.params.kernel = 3;
  l.params.stride = 1;
  l.params.same_padding = true;
  l.output = dnn::Shape{1, 2, 2};
  Tensor in(1, 2, 2);
  in.at(0, 0, 0) = 4.0f;
  in.at(0, 0, 1) = 4.0f;
  in.at(0, 1, 0) = 4.0f;
  in.at(0, 1, 1) = 4.0f;
  const Tensor out = pool2d_rows(l, RowWindow::full(in), 0, 2, false);
  EXPECT_FLOAT_EQ(out.at(0, 0, 0), 4.0f);
}

TEST(Ops, BatchNormFolds) {
  Layer l;
  l.kind = LayerKind::kBatchNorm;
  l.output = dnn::Shape{1, 1, 1};
  LayerWeights w;
  w.bn_gamma = {2.0f};
  w.bn_beta = {1.0f};
  w.bn_mean = {3.0f};
  w.bn_var = {4.0f};
  Tensor in(1, 1, 1);
  in.at(0, 0, 0) = 5.0f;
  const Tensor out = batch_norm_rows(l, RowWindow::full(in), w, 0, 1);
  EXPECT_NEAR(out.at(0, 0, 0), 2.0f * (5.0f - 3.0f) / std::sqrt(4.0f + 1e-5f) + 1.0f, 1e-5);
}

TEST(Ops, AddAndConcat) {
  Layer add;
  add.kind = LayerKind::kAdd;
  add.output = dnn::Shape{1, 1, 1};
  Tensor a(1, 1, 1), b(1, 1, 1);
  a.at(0, 0, 0) = 2.0f;
  b.at(0, 0, 0) = 3.0f;
  const RowWindow wa = RowWindow::full(a), wb = RowWindow::full(b);
  EXPECT_FLOAT_EQ(add_rows(add, {&wa, &wb}, 0, 1).at(0, 0, 0), 5.0f);
  const Tensor cat = concat_rows({&wa, &wb}, 0, 1);
  EXPECT_EQ(cat.channels(), 2);
  EXPECT_FLOAT_EQ(cat.at(1, 0, 0), 3.0f);
}

TEST(Ops, GlobalAvgPoolAveragesAll) {
  Tensor in(1, 2, 2);
  in.at(0, 0, 0) = 1.0f;
  in.at(0, 1, 1) = 3.0f;
  EXPECT_FLOAT_EQ(global_avg_pool(in).at(0, 0, 0), 1.0f);
}

TEST(Ops, DenseMatvec) {
  Layer l;
  l.kind = LayerKind::kDense;
  l.params.out_channels = 2;
  l.output = dnn::Shape{2, 1, 1};
  LayerWeights w;
  w.dense = pack_panels({1.0f, 2.0f, 3.0f, 4.0f}, 2, 2);  // [out][in]
  w.bias = {0.5f, -0.5f};
  Tensor in(2, 1, 1);
  in.at(0, 0, 0) = 10.0f;
  in.at(1, 0, 0) = 20.0f;
  const Tensor out = dense(l, in, w);
  EXPECT_FLOAT_EQ(out.at(0, 0, 0), 1.0f * 10 + 2.0f * 20 + 0.5f);
  EXPECT_FLOAT_EQ(out.at(1, 0, 0), 3.0f * 10 + 4.0f * 20 - 0.5f);
}

TEST(Ops, SoftmaxNormalises) {
  Tensor in(3, 1, 1);
  in.at(0, 0, 0) = 1.0f;
  in.at(1, 0, 0) = 2.0f;
  in.at(2, 0, 0) = 3.0f;
  const Tensor out = softmax(in);
  float total = 0.0f;
  for (int c = 0; c < 3; ++c) total += out.at(c, 0, 0);
  EXPECT_NEAR(total, 1.0f, 1e-6);
  EXPECT_GT(out.at(2, 0, 0), out.at(1, 0, 0));
}

TEST(Ops, SePartialSumsSplitAgreesWithWhole) {
  util::Rng rng(5);
  const Tensor in = Tensor::random(dnn::Shape{3, 8, 4}, rng);
  const RowWindow w = RowWindow::full(in);
  const auto whole = se_partial_sums(w, 0, 8);
  auto upper = se_partial_sums(w, 0, 3);
  const auto lower = se_partial_sums(w, 3, 8);
  for (std::size_t c = 0; c < whole.size(); ++c) {
    EXPECT_NEAR(upper[c] + lower[c], whole[c], 1e-9);
  }
}

TEST(Ops, ActivationsApplied) {
  Tensor t(1, 1, 3);
  t.at(0, 0, 0) = -1.0f;
  t.at(0, 0, 1) = 3.0f;
  t.at(0, 0, 2) = 9.0f;
  Tensor relu6 = t;
  apply_activation(relu6, Activation::kRelu6);
  EXPECT_FLOAT_EQ(relu6.at(0, 0, 0), 0.0f);
  EXPECT_FLOAT_EQ(relu6.at(0, 0, 1), 3.0f);
  EXPECT_FLOAT_EQ(relu6.at(0, 0, 2), 6.0f);
  Tensor sig = t;
  apply_activation(sig, Activation::kSigmoid);
  EXPECT_NEAR(sig.at(0, 0, 1), 1.0f / (1.0f + std::exp(-3.0f)), 1e-6);
}

TEST(PackPanels, LaysOutEightChannelPanelsAndZeroPadsTheLast) {
  // 9 x 2 matrix with w(oc, r) = 10 * oc + r + 1: two panels of 2 x 8.
  std::vector<float> rows;
  for (int oc = 0; oc < 9; ++oc) {
    for (int r = 0; r < 2; ++r) rows.push_back(static_cast<float>(10 * oc + r + 1));
  }
  const std::vector<float> panels = pack_panels(rows, 9, 2);
  ASSERT_EQ(panels.size(), 32u);
  EXPECT_EQ(panels.size(), panel_floats(9, 2));
  EXPECT_FLOAT_EQ(panels[0], 1.0f);    // (0, 0)
  EXPECT_FLOAT_EQ(panels[1], 11.0f);   // (1, 0): next lane
  EXPECT_FLOAT_EQ(panels[7], 71.0f);   // (7, 0)
  EXPECT_FLOAT_EQ(panels[8], 2.0f);    // (0, 1): next row
  EXPECT_FLOAT_EQ(panels[15], 72.0f);  // (7, 1)
  EXPECT_FLOAT_EQ(panels[16], 81.0f);  // (8, 0): second panel
  EXPECT_FLOAT_EQ(panels[24], 82.0f);  // (8, 1)
  for (int lane = 1; lane < 8; ++lane) {
    EXPECT_EQ(panels[16 + lane], 0.0f);
    EXPECT_EQ(panels[24 + lane], 0.0f);
  }
  for (int oc = 0; oc < 9; ++oc) {
    for (std::size_t r = 0; r < 2; ++r) {
      EXPECT_EQ(panels[panel_index(oc, r, 2)], rows[static_cast<std::size_t>(oc) * 2 + r]);
    }
  }
  EXPECT_THROW(pack_panels(rows, 9, 3), std::invalid_argument);
}

TEST(PackPanels, KernelsRejectUnpackedWeights) {
  // 9 output channels pad to 16 panel lanes, so plain rows have the wrong size.
  Layer l = conv_layer(2, 9, 1, 1, true);
  LayerWeights w;
  w.conv.assign(9 * 2, 0.5f);
  const Tensor in(2, 4, 4);
  EXPECT_THROW(conv2d_rows(l, RowWindow::full(in), w, 0, 4), std::invalid_argument);
  w.conv = pack_panels(w.conv, 9, 2);
  EXPECT_NO_THROW(conv2d_rows(l, RowWindow::full(in), w, 0, 4));
}

// ---- direct kernels vs the scalar oracle -----------------------------------

struct WindowCase {
  LayerKind kind = LayerKind::kConv2D;
  int in_c = 1, out_c = 1, height = 1, width = 1;
  int kernel = 1, kernel_w = 0, stride = 1, padding = 0;
  bool same = true;
  Activation act = Activation::kNone;

  std::string describe() const {
    std::ostringstream os;
    os << "kind=" << static_cast<int>(kind) << " in_c=" << in_c << " out_c=" << out_c
       << " h=" << height << " w=" << width << " k=" << kernel << "x"
       << (kernel_w > 0 ? kernel_w : kernel) << " s=" << stride
       << (same ? " same" : " pad=") << (same ? "" : std::to_string(padding));
    return os.str();
  }
};

/// The case's layer, or false when valid padding leaves no output.
bool make_layer(const WindowCase& wc, Layer& l) {
  l.kind = wc.kind;
  l.params.kernel = wc.kernel;
  l.params.kernel_w = wc.kernel_w;
  l.params.stride = wc.stride;
  l.params.padding = wc.padding;
  l.params.same_padding = wc.same;
  l.params.out_channels = wc.kind == LayerKind::kConv2D ? wc.out_c : 0;
  l.params.activation = wc.act;
  const int kw = l.params.kernel_width();
  if (!wc.same && (wc.height + 2 * wc.padding < wc.kernel || wc.width + 2 * wc.padding < kw)) {
    return false;
  }
  l.output = dnn::infer_output_shape(l.kind, l.params, {dnn::Shape{wc.in_c, wc.height, wc.width}});
  return true;
}

/// n values drawn as Tensor::random draws them.
std::vector<float> random_values(std::size_t n, util::Rng& rng) {
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  return v;
}

/// Random weights in the oracle's plain layout ([oc][ic][kh][kw] or
/// [c][kh][kw]).
LayerWeights random_weights(const WindowCase& wc, util::Rng& rng) {
  const int kw = wc.kernel_w > 0 ? wc.kernel_w : wc.kernel;
  const int filters = wc.kind == LayerKind::kConv2D ? wc.out_c : wc.in_c;
  const int fan_in = wc.kind == LayerKind::kConv2D ? wc.in_c : 1;
  LayerWeights w;
  w.conv = random_values(static_cast<std::size_t>(filters * fan_in * wc.kernel * kw), rng);
  if (rng.uniform(0.0, 1.0) < 0.7) {
    for (int i = 0; i < filters; ++i) w.bias.push_back(static_cast<float>(rng.uniform(-1, 1)));
  }
  return w;
}

/// The kernels' copy of plain weights: Conv2D weights packed into panels.
LayerWeights packed(const Layer& l, int in_c, LayerWeights plain) {
  if (l.kind == LayerKind::kConv2D) {
    const auto fan_in = static_cast<std::size_t>(in_c) * static_cast<std::size_t>(l.params.kernel) *
                        static_cast<std::size_t>(l.params.kernel_width());
    plain.conv = pack_panels(plain.conv, l.output.channels, fan_in);
  }
  return plain;
}

/// Bit patterns equal, with +0 and -0 treated as the same value.
bool same_bits(const Tensor& a, const Tensor& b, std::string& where) {
  if (!(a.shape() == b.shape())) {
    where = "shape";
    return false;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    const float x = a.data()[i] == 0.0f ? 0.0f : a.data()[i];
    const float y = b.data()[i] == 0.0f ? 0.0f : b.data()[i];
    if (std::bit_cast<std::uint32_t>(x) != std::bit_cast<std::uint32_t>(y)) {
      where = "element " + std::to_string(i) + ": " + std::to_string(a.data()[i]) + " vs " +
              std::to_string(b.data()[i]);
      return false;
    }
  }
  return true;
}

/// Runs the kernel and the oracle on the full window and on row bands with
/// their halos (exact, and widened by a spare row where the tensor has one).
void expect_matches_oracle(const WindowCase& wc, util::Rng& rng) {
  Layer l;
  if (!make_layer(wc, l)) return;
  const LayerWeights w = random_weights(wc, rng);
  const LayerWeights pw = packed(l, wc.in_c, w);
  const Tensor full = Tensor::random(dnn::Shape{wc.in_c, wc.height, wc.width}, rng);
  const int out_h = l.output.height;
  const int kh = l.params.kernel;
  const int pad_h = dnn::resolved_padding(l.params, wc.height);

  auto check = [&](const RowWindow& window, int ob, int oe, const char* label) {
    Tensor got, want;
    switch (wc.kind) {
      case LayerKind::kConv2D:
        got = conv2d_rows(l, window, pw, ob, oe);
        want = oracle::conv2d_rows(l, window, w, ob, oe);
        break;
      case LayerKind::kDepthwiseConv2D:
        got = depthwise_conv2d_rows(l, window, pw, ob, oe);
        want = oracle::depthwise_conv2d_rows(l, window, w, ob, oe);
        break;
      default: {
        const bool max_pool = wc.kind == LayerKind::kMaxPool2D;
        got = pool2d_rows(l, window, ob, oe, max_pool);
        want = oracle::pool2d_rows(l, window, ob, oe, max_pool);
      }
    }
    std::string where;
    EXPECT_TRUE(same_bits(got, want, where))
        << wc.describe() << " " << label << " rows [" << ob << "," << oe << "): " << where;
  };

  check(RowWindow::full(full), 0, out_h, "full");
  for (int band = 0; band < 3; ++band) {
    const int ob = static_cast<int>(rng.uniform_int(0, out_h - 1));
    const int oe = static_cast<int>(rng.uniform_int(ob + 1, out_h));
    int lo = std::max(0, ob * wc.stride - pad_h);
    int hi = std::min(wc.height, (oe - 1) * wc.stride - pad_h + kh);
    if (band == 2) {  // a spare halo row on each side, where the tensor has one
      lo = std::max(0, lo - 1);
      hi = std::min(wc.height, hi + 1);
    }
    if (lo >= hi) continue;  // the band reads only padding
    RowWindow window;
    window.data = full.rows(lo, hi);
    window.row_offset = lo;
    window.full_height = wc.height;
    check(window, ob, oe, "band");
  }
}

WindowCase random_case(util::Rng& rng) {
  static const LayerKind kKinds[] = {LayerKind::kConv2D, LayerKind::kConv2D,
                                     LayerKind::kDepthwiseConv2D, LayerKind::kMaxPool2D,
                                     LayerKind::kAvgPool2D};
  static const Activation kActs[] = {Activation::kNone, Activation::kRelu, Activation::kSwish};
  static const int kKernels[] = {1, 3, 5, 7};
  WindowCase wc;
  wc.kind = kKinds[rng.uniform_int(0, 4)];
  wc.in_c = static_cast<int>(rng.uniform_int(1, 19));
  wc.out_c = static_cast<int>(rng.uniform_int(1, 19));
  wc.height = static_cast<int>(rng.uniform_int(1, 9));
  wc.width = static_cast<int>(rng.uniform_int(1, 9));
  wc.kernel = kKernels[rng.uniform_int(0, 3)];
  if (rng.uniform(0.0, 1.0) < 0.3) wc.kernel_w = kKernels[rng.uniform_int(0, 3)];
  wc.stride = static_cast<int>(rng.uniform_int(1, 2));
  wc.same = rng.uniform(0.0, 1.0) < 0.6;
  if (!wc.same && rng.uniform(0.0, 1.0) < 0.3) wc.padding = 1;
  if (wc.kind == LayerKind::kConv2D || wc.kind == LayerKind::kDepthwiseConv2D) {
    wc.act = kActs[rng.uniform_int(0, 2)];
  }
  return wc;
}

TEST(DirectKernels, MatchOracleBitwiseOnSeededCases) {
  util::Rng rng(20240611);
  for (int i = 0; i < 600; ++i) expect_matches_oracle(random_case(rng), rng);
}

TEST(DirectKernels, MatchOracleAtNarrowStridedWidths) {
  // Stride 2 over rows narrower than the kernel's reach: a tap past the
  // row's end must not be rounded into column 0 (it would read the next
  // row). Covers in_w 2 with kernel 5 and every narrow width besides.
  util::Rng rng(7);
  for (LayerKind kind : {LayerKind::kConv2D, LayerKind::kDepthwiseConv2D,
                         LayerKind::kMaxPool2D, LayerKind::kAvgPool2D}) {
    for (int width = 1; width <= 9; ++width) {
      for (int kernel : {1, 3, 5, 7}) {
        for (int stride : {1, 2}) {
          for (bool same : {true, false}) {
            WindowCase wc;
            wc.kind = kind;
            wc.in_c = 3;
            wc.out_c = 9;
            wc.height = 5;
            wc.width = width;
            wc.kernel = kernel;
            wc.stride = stride;
            wc.same = same;
            expect_matches_oracle(wc, rng);
            wc.kernel_w = kernel == 1 ? 3 : 1;  // non-square
            expect_matches_oracle(wc, rng);
          }
        }
      }
    }
  }
}

TEST(DirectKernels, PointwiseMatchesOracleOnOddChannelCounts) {
  // The 1x1 fast path: channel counts around the 8-channel block and column
  // counts around the 4-column tile.
  util::Rng rng(11);
  for (int in_c : {1, 7, 8, 9, 33}) {
    for (int out_c : {1, 7, 8, 9, 17}) {
      for (int width : {1, 3, 4, 5, 9}) {
        WindowCase wc;
        wc.in_c = in_c;
        wc.out_c = out_c;
        wc.height = 6;
        wc.width = width;
        expect_matches_oracle(wc, rng);
      }
    }
  }
}

TEST(PanelProducts, MatchOracleBitwiseAroundPanelAndTileEdges) {
  // The products that read weight panels: 1x1 convolution, dense layers and
  // the SqueezeExcite gate, at channel counts around the 8-channel panel
  // (pairs of panels and a lone last one) and column counts on both sides
  // of the 4-column tile, so the channel-vectorised path, the column tiles
  // and their ragged tail all run.
  util::Rng rng(20261019);
  static const Activation kActs[] = {Activation::kNone, Activation::kRelu, Activation::kSwish};
  for (int out : {1, 7, 8, 9, 17, 33}) {
    for (int in : {1, 3, 64, 1152}) {
      const Activation act = kActs[rng.uniform_int(0, 2)];
      for (int cols : {1, 2, 3, 4, 5, 9}) {
        Layer conv = conv_layer(in, out, 1, 1, true, act);
        conv.output = dnn::Shape{out, 1, cols};
        LayerWeights plain;
        plain.conv = random_values(static_cast<std::size_t>(out) * in, rng);
        plain.bias = random_values(static_cast<std::size_t>(out), rng);
        LayerWeights pw = plain;
        pw.conv = pack_panels(plain.conv, out, static_cast<std::size_t>(in));
        const RowWindow x = RowWindow::full(Tensor::random(dnn::Shape{in, 1, cols}, rng));
        std::string where;
        EXPECT_TRUE(same_bits(conv2d_rows(conv, x, pw, 0, 1),
                              oracle::conv2d_rows(conv, x, plain, 0, 1), where))
            << "1x1 conv out=" << out << " in=" << in << " cols=" << cols << ": " << where;
      }

      Layer fc;
      fc.kind = LayerKind::kDense;
      fc.params.out_channels = out;
      fc.params.activation = act;
      fc.output = dnn::Shape{out, 1, 1};
      LayerWeights plain;
      plain.dense = random_values(static_cast<std::size_t>(out) * in, rng);
      if (rng.uniform(0.0, 1.0) < 0.7) plain.bias = random_values(static_cast<std::size_t>(out), rng);
      LayerWeights pw = plain;
      pw.dense = pack_panels(plain.dense, out, static_cast<std::size_t>(in));
      const Tensor x = Tensor::random(dnn::Shape{in, 1, 1}, rng);
      std::string where;
      EXPECT_TRUE(same_bits(dense(fc, x, pw), oracle::dense(fc, x, plain), where))
          << "dense out=" << out << " in=" << in << ": " << where;

      // SE over `in` channels reduced to `out`: reduce is out x in, expand
      // in x out.
      Layer se;
      se.kind = LayerKind::kSqueezeExcite;
      se.params.out_channels = out;
      LayerWeights se_plain;
      se_plain.se_reduce = random_values(static_cast<std::size_t>(out) * in, rng);
      se_plain.se_reduce_bias = random_values(static_cast<std::size_t>(out), rng);
      se_plain.se_expand = random_values(static_cast<std::size_t>(in) * out, rng);
      se_plain.se_expand_bias = random_values(static_cast<std::size_t>(in), rng);
      LayerWeights se_packed = se_plain;
      se_packed.se_reduce = pack_panels(se_plain.se_reduce, out, static_cast<std::size_t>(in));
      se_packed.se_expand = pack_panels(se_plain.se_expand, in, static_cast<std::size_t>(out));
      std::vector<double> sums(static_cast<std::size_t>(in));
      for (double& s : sums) s = rng.uniform(-20.0, 20.0);
      const auto count = rng.uniform_int(1, 40);
      const std::vector<float> got = se_gate(se, se_packed, sums, count);
      const std::vector<float> want = oracle::se_gate(se, se_plain, sums, count);
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t c = 0; c < got.size(); ++c) {
        EXPECT_EQ(std::bit_cast<std::uint32_t>(got[c]), std::bit_cast<std::uint32_t>(want[c]))
            << "se_gate out=" << out << " in=" << in << " channel " << c << ": " << got[c]
            << " vs " << want[c];
      }
    }
  }
}

// ---- the window check ------------------------------------------------------

RowWindow window_rows(const Tensor& full, int lo, int hi) {
  RowWindow w;
  w.data = full.rows(lo, hi);
  w.row_offset = lo;
  w.full_height = full.height();
  return w;
}

TEST(WindowCheck, KernelsThrowOnMissingRowAndAcceptPaddingOnlyGaps) {
  // 3x3 same, stride 1, over 8 rows: output rows [2, 5) read input [1, 6).
  util::Rng rng(3);
  const Tensor full = Tensor::random(dnn::Shape{2, 8, 5}, rng);
  Layer conv = conv_layer(2, 3, 3, 1, true);
  conv.output = dnn::Shape{3, 8, 5};
  Layer dw = conv;
  dw.kind = LayerKind::kDepthwiseConv2D;
  dw.params.out_channels = 0;
  dw.output = dnn::Shape{2, 8, 5};
  Layer pool = dw;
  pool.kind = LayerKind::kMaxPool2D;
  LayerWeights cw;
  cw.conv = pack_panels(random_values(3 * 2 * 9, rng), 3, 2 * 9);
  LayerWeights dww;
  dww.conv = random_values(2 * 9, rng);

  auto run_all = [&](const RowWindow& w, int ob, int oe) {
    conv2d_rows(conv, w, cw, ob, oe);
    depthwise_conv2d_rows(dw, w, dww, ob, oe);
    pool2d_rows(pool, w, ob, oe, true);
    pool2d_rows(pool, w, ob, oe, false);
  };
  auto each_throws = [&](const RowWindow& w, int ob, int oe) {
    EXPECT_THROW(conv2d_rows(conv, w, cw, ob, oe), std::logic_error);
    EXPECT_THROW(depthwise_conv2d_rows(dw, w, dww, ob, oe), std::logic_error);
    EXPECT_THROW(pool2d_rows(pool, w, ob, oe, true), std::logic_error);
    EXPECT_THROW(pool2d_rows(pool, w, ob, oe, false), std::logic_error);
  };

  EXPECT_NO_THROW(run_all(window_rows(full, 1, 6), 2, 5));
  each_throws(window_rows(full, 2, 6), 2, 5);  // top halo row 1 missing
  each_throws(window_rows(full, 1, 5), 2, 5);  // bottom halo row 5 missing
  // Rows -1 and 8 are zero padding, not missing data.
  EXPECT_NO_THROW(run_all(window_rows(full, 0, 4), 0, 3));
  EXPECT_NO_THROW(run_all(window_rows(full, 4, 8), 5, 8));
  each_throws(window_rows(full, 0, 3), 0, 3);  // row 3 is inside the tensor

  // The 1x1 path checks the same way.
  Layer pointwise = conv_layer(2, 3, 1, 1, true);
  pointwise.output = dnn::Shape{3, 8, 5};
  LayerWeights pw;
  pw.conv = pack_panels(random_values(3 * 2, rng), 3, 2);
  EXPECT_NO_THROW(conv2d_rows(pointwise, window_rows(full, 2, 5), pw, 2, 5));
  EXPECT_THROW(conv2d_rows(pointwise, window_rows(full, 2, 5), pw, 2, 6), std::logic_error);
}

TEST(WindowCheck, ElementwiseOpsThrowOnMissingRow) {
  util::Rng rng(4);
  const Tensor full = Tensor::random(dnn::Shape{2, 6, 3}, rng);
  const RowWindow w = window_rows(full, 2, 4);
  Layer act;
  act.kind = LayerKind::kActivation;
  act.params.activation = Activation::kRelu;
  EXPECT_NO_THROW(activation_rows(act, w, 2, 4));
  EXPECT_THROW(activation_rows(act, w, 1, 4), std::logic_error);
  EXPECT_THROW(se_partial_sums(w, 2, 5), std::logic_error);
  EXPECT_THROW(concat_rows({&w}, 3, 5), std::logic_error);
}

}  // namespace
}  // namespace hidp::tensor
