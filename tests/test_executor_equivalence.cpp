// The paper's accuracy claim (§IV-B): partitioned execution must produce
// the same predictions as whole-model execution. These tests verify
// bit-level / tolerance-level equivalence of data-partitioned runs across
// synthetic CNNs and the real zoo architectures at reduced resolution.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "dnn/zoo/zoo.hpp"
#include "tensor/slicing.hpp"
#include "util/rng.hpp"

namespace hidp::tensor {
namespace {

using dnn::Activation;
using dnn::DnnGraph;

DnnGraph mixed_graph() {
  DnnGraph g("mixed");
  int x = g.add_input(3, 33, 33);
  x = g.conv(x, 8, 3, 1, true, Activation::kRelu, "c1");
  int a = g.conv(x, 8, 3, 1, true, Activation::kNone, "c2");
  x = g.add({a, x}, Activation::kRelu, "res");
  int b1 = g.conv(x, 8, 1, 1, true, Activation::kRelu);
  int b2 = g.conv(x, 8, 5, 1, true, Activation::kRelu);
  x = g.concat({b1, b2});
  x = g.max_pool(x, 2, 2, false);
  x = g.squeeze_excite(x, 4);
  x = g.conv(x, 16, 3, 2, true, Activation::kSwish);
  x = g.global_avg_pool(x);
  x = g.dense(x, 10);
  g.softmax(x);
  return g;
}

TEST(Equivalence, MixedGraphBitExactAcrossSigmas) {
  const DnnGraph g = mixed_graph();
  ReferenceExecutor ref(g, 5);
  PartitionedExecutor part(ref);
  util::Rng rng(99);
  const Tensor input = Tensor::random(g.input_shape(), rng);
  const Tensor whole = ref.run(input);
  for (int sigma : {2, 3, 4, 5, 8}) {
    const Tensor sliced = part.run(input, sigma);
    EXPECT_TRUE(whole.allclose(sliced, 1e-5, 1e-4)) << "sigma=" << sigma;
    // Everything except the SE all-reduce is bit-exact; with double
    // accumulation the reduction is too in practice.
    EXPECT_LT(whole.max_abs_diff(sliced), 1e-6) << "sigma=" << sigma;
  }
}

TEST(Equivalence, SigmaOneFallsBackToReference) {
  const DnnGraph g = mixed_graph();
  ReferenceExecutor ref(g, 5);
  PartitionedExecutor part(ref);
  util::Rng rng(1);
  const Tensor input = Tensor::random(g.input_shape(), rng);
  EXPECT_DOUBLE_EQ(ref.run(input).max_abs_diff(part.run(input, 1)), 0.0);
}

TEST(Equivalence, UnevenBandsStillExact) {
  const DnnGraph g = mixed_graph();
  ReferenceExecutor ref(g, 5);
  PartitionedExecutor part(ref);
  util::Rng rng(7);
  const Tensor input = Tensor::random(g.input_shape(), rng);
  const Tensor whole = ref.run(input);
  const int target_rows = g.layer(dnn::data_partition_point(g) - 1).output.height;
  // Deliberately skewed bands (1 row / rest split 1:3).
  std::vector<dnn::RowRange> bands{{0, 1},
                                   {1, 1 + (target_rows - 1) / 4},
                                   {1 + (target_rows - 1) / 4, target_rows}};
  const Tensor sliced = part.run_with_bands(input, bands);
  EXPECT_LT(whole.max_abs_diff(sliced), 1e-6);
}

TEST(Equivalence, RejectsNonCoveringBands) {
  const DnnGraph g = mixed_graph();
  ReferenceExecutor ref(g, 5);
  PartitionedExecutor part(ref);
  util::Rng rng(7);
  const Tensor input = Tensor::random(g.input_shape(), rng);
  EXPECT_THROW(part.run_with_bands(input, {{0, 3}, {3, 5}}), std::invalid_argument);
  EXPECT_THROW(part.run_with_bands(input, {{1, 4}}), std::invalid_argument);
}

TEST(Equivalence, OverlapGrowsWithSigma) {
  const DnnGraph g = mixed_graph();
  ReferenceExecutor ref(g, 5);
  PartitionedExecutor part(ref);
  util::Rng rng(3);
  const Tensor input = Tensor::random(g.input_shape(), rng);
  part.run(input, 2);
  const double overlap2 = part.last_report().overlap_fraction();
  part.run(input, 4);
  const double overlap4 = part.last_report().overlap_fraction();
  EXPECT_GT(overlap4, overlap2);
  EXPECT_GT(overlap2, 0.0);  // halo recompute is never free
}

// Property sweep: random conv/pool/residual stacks stay equivalent.
class RandomStackEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(RandomStackEquivalence, SlicedMatchesWhole) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam() * 77 + 1));
  DnnGraph g("rand");
  int x = g.add_input(3, 24 + GetParam() % 3, 24 + GetParam() % 3);
  const int depth = 3 + GetParam() % 3;
  for (int i = 0; i < depth; ++i) {
    const double pick = rng.uniform();
    const int channels = g.layer(x).output.channels;
    if (pick < 0.5) {
      const int kernel = 1 + 2 * static_cast<int>(rng.uniform_int(0, 2));
      x = g.conv(x, 4 + static_cast<int>(rng.uniform_int(0, 4)), kernel,
                 rng.uniform() < 0.25 ? 2 : 1, true, Activation::kRelu);
    } else if (pick < 0.65 && g.layer(x).output.height >= 4) {
      x = g.max_pool(x, 2, 2, false);
    } else if (pick < 0.8) {
      const int a = g.conv(x, channels, 3, 1, true, Activation::kNone);
      x = g.add({a, x}, Activation::kRelu);
    } else {
      x = g.squeeze_excite(x, std::max(1, channels / 4));
    }
  }
  x = g.global_avg_pool(x);
  x = g.dense(x, 7);
  g.softmax(x);

  ReferenceExecutor ref(g, static_cast<std::uint64_t>(GetParam()));
  PartitionedExecutor part(ref);
  const Tensor input = Tensor::random(g.input_shape(), rng);
  const Tensor whole = ref.run(input);
  const int sigma = 2 + GetParam() % 3;
  const Tensor sliced = part.run(input, sigma);
  EXPECT_TRUE(whole.allclose(sliced, 1e-5, 1e-4))
      << "param=" << GetParam() << " maxdiff=" << whole.max_abs_diff(sliced);
}

INSTANTIATE_TEST_SUITE_P(RandomStacks, RandomStackEquivalence, ::testing::Range(0, 10));

// The real zoo architectures at reduced resolution (full-res reference
// convolutions would take minutes; the structure is what matters).
TEST(Equivalence, EfficientNetB0WithSqueezeExcite) {
  const DnnGraph g = dnn::zoo::build_efficientnet_b0(64, 10);
  ReferenceExecutor ref(g, 11);
  PartitionedExecutor part(ref);
  util::Rng rng(13);
  const Tensor input = Tensor::random(g.input_shape(), rng);
  const Tensor whole = ref.run(input);
  const Tensor sliced = part.run(input, 3);
  EXPECT_TRUE(whole.allclose(sliced, 1e-5, 1e-4));
  EXPECT_EQ(part.last_report().split_layer, dnn::data_partition_point(g));
}

TEST(Equivalence, Vgg19ReducedResolution) {
  const DnnGraph g = dnn::zoo::build_vgg19(48, 10);
  ReferenceExecutor ref(g, 17);
  PartitionedExecutor part(ref);
  util::Rng rng(19);
  const Tensor input = Tensor::random(g.input_shape(), rng);
  const Tensor whole = ref.run(input);
  const Tensor sliced = part.run(input, 2);
  EXPECT_LT(whole.max_abs_diff(sliced), 1e-6);
}

TEST(Equivalence, ResNetStyleStridedResiduals) {
  // conv7/2 + pool + two bottlenecks with projection, then head.
  DnnGraph g("resnet-ish");
  int x = g.add_input(3, 40, 40);
  x = g.conv(x, 8, 7, 2, true, Activation::kRelu);
  x = g.max_pool(x, 3, 2, true);
  for (int stride : {1, 2}) {
    const int c1 = g.conv(x, 4, 1, 1, true, Activation::kRelu);
    const int c2 = g.conv(c1, 4, 3, stride, true, Activation::kRelu);
    const int c3 = g.conv(c2, 16, 1, 1, true, Activation::kNone);
    const int proj = g.conv(x, 16, 1, stride, true, Activation::kNone);
    x = g.add({c3, proj}, Activation::kRelu);
  }
  x = g.global_avg_pool(x);
  x = g.dense(x, 5);
  g.softmax(x);

  ReferenceExecutor ref(g, 23);
  PartitionedExecutor part(ref);
  util::Rng rng(29);
  const Tensor input = Tensor::random(g.input_shape(), rng);
  const Tensor whole = ref.run(input);
  for (int sigma : {2, 4}) {
    EXPECT_LT(whole.max_abs_diff(part.run(input, sigma)), 1e-6) << "sigma=" << sigma;
  }
}

TEST(Equivalence, TopPredictionUnchanged) {
  // The actual accuracy statement: argmax (Top-1) identical.
  const DnnGraph g = dnn::zoo::build_efficientnet_b0(64, 10);
  ReferenceExecutor ref(g, 31);
  PartitionedExecutor part(ref);
  util::Rng rng(37);
  for (int trial = 0; trial < 3; ++trial) {
    const Tensor input = Tensor::random(g.input_shape(), rng);
    const Tensor whole = ref.run(input);
    const Tensor sliced = part.run(input, 2 + trial);
    int argmax_whole = 0, argmax_sliced = 0;
    for (int c = 1; c < whole.channels(); ++c) {
      if (whole.at(c, 0, 0) > whole.at(argmax_whole, 0, 0)) argmax_whole = c;
      if (sliced.at(c, 0, 0) > sliced.at(argmax_sliced, 0, 0)) argmax_sliced = c;
    }
    EXPECT_EQ(argmax_whole, argmax_sliced);
  }
}

// ---- packed weights --------------------------------------------------------

/// Checks `panels` against plain [out][fan_in] `rows`: weight (oc, r) sits
/// in panel oc / 8 at row r, lane oc % 8 (spelled out here rather than
/// taken from the library), and every slot no weight fills is 0.
void expect_panels_hold(const std::vector<float>& panels, const std::vector<float>& rows,
                        int out, std::size_t fan_in, const std::string& what) {
  const auto n_panels = static_cast<std::size_t>((out + 7) / 8);
  ASSERT_EQ(panels.size(), n_panels * fan_in * 8) << what;
  std::vector<bool> filled(panels.size(), false);
  std::size_t wrong = 0;
  for (int oc = 0; oc < out; ++oc) {
    for (std::size_t r = 0; r < fan_in; ++r) {
      const std::size_t slot =
          (static_cast<std::size_t>(oc / 8) * fan_in + r) * 8 + static_cast<std::size_t>(oc % 8);
      filled[slot] = true;
      const float want = rows[static_cast<std::size_t>(oc) * fan_in + r];
      if (std::bit_cast<std::uint32_t>(panels[slot]) != std::bit_cast<std::uint32_t>(want)) {
        ++wrong;
      }
    }
  }
  std::size_t dirty_padding = 0;
  for (std::size_t i = 0; i < panels.size(); ++i) {
    if (!filled[i] && std::bit_cast<std::uint32_t>(panels[i]) != 0u) ++dirty_padding;
  }
  EXPECT_EQ(wrong, 0u) << what << ": weights that differ from the plain draw";
  EXPECT_EQ(dirty_padding, 0u) << what << ": nonzero padding slots";
}

TEST(WeightStore, PanelsHoldThePlainRowOrderDraw) {
  // Regenerates each layer's weights as the store drew them before packing
  // (same per-layer seed, same order: [oc][r] row by row) and unpacks every
  // Conv2D, SqueezeExcite and Dense panel against them.
  constexpr std::uint64_t kSeed = 1234;
  int checked = 0, padded = 0;
  for (const DnnGraph& g : {dnn::zoo::build_efficientnet_b0(16, 1000), mixed_graph()}) {
    const WeightStore store(g, kSeed);
    for (const dnn::Layer& layer : g.layers()) {
      util::Rng rng(kSeed ^ (0x9E3779B97F4A7C15ULL * static_cast<std::uint64_t>(layer.id + 1)));
      auto draw = [&rng](std::size_t n, double lo, double hi) {
        std::vector<float> v(n);
        for (float& x : v) x = static_cast<float>(rng.uniform(lo, hi));
        return v;
      };
      const dnn::Shape in = layer.inputs.empty() ? dnn::Shape{} : g.layer(layer.inputs.front()).output;
      const LayerWeights& w = store.weights(layer.id);
      const std::string what = g.name() + " layer " + std::to_string(layer.id);
      auto check = [&](const std::vector<float>& panels, const std::vector<float>& rows, int out,
                       std::size_t fan_in, const std::string& part) {
        expect_panels_hold(panels, rows, out, fan_in, what + " " + part);
        ++checked;
        if (out % 8 != 0) ++padded;
      };
      switch (layer.kind) {
        case dnn::LayerKind::kConv2D: {
          const auto fan_in = static_cast<std::size_t>(layer.params.kernel) *
                              static_cast<std::size_t>(layer.params.kernel_width()) *
                              static_cast<std::size_t>(in.channels);
          const int out = layer.params.out_channels;
          check(w.conv, draw(static_cast<std::size_t>(out) * fan_in, -0.1, 0.1), out, fan_in,
                "conv");
          break;
        }
        case dnn::LayerKind::kSqueezeExcite: {
          const int c = in.channels;
          const int r = layer.params.out_channels > 0 ? layer.params.out_channels
                                                      : std::max(1, c / 4);
          const auto cz = static_cast<std::size_t>(c);
          const auto rz = static_cast<std::size_t>(r);
          check(w.se_reduce, draw(rz * cz, -0.3f, 0.3f), r, cz, "se_reduce");
          (void)draw(rz, -0.05f, 0.05f);  // reduce bias
          check(w.se_expand, draw(cz * rz, -0.3f, 0.3f), c, rz, "se_expand");
          break;
        }
        case dnn::LayerKind::kDense: {
          const auto in_f = static_cast<std::size_t>(in.elements());
          const int out = layer.params.out_channels;
          check(w.dense, draw(in_f * static_cast<std::size_t>(out), -0.05f, 0.05f), out, in_f,
                "dense");
          break;
        }
        default:
          break;
      }
    }
  }
  EXPECT_GT(checked, 50);
  EXPECT_GT(padded, 0);  // some matrices have a ragged last panel
}

}  // namespace
}  // namespace hidp::tensor
