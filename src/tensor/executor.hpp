// Reference (whole-model) executor with deterministic pseudo-random weights.
#pragma once

#include <memory>
#include <vector>

#include "dnn/graph.hpp"
#include "tensor/ops.hpp"

namespace hidp::tensor {

/// Generates and owns per-layer weights for a graph. Weights are derived
/// from (seed, layer id) so two stores with the same seed agree — the
/// partitioned executor shares the reference executor's store. Matrices
/// are drawn in plain [out][fan_in] row order, each value straight into its
/// pack_panels slot.
class WeightStore {
 public:
  WeightStore(const dnn::DnnGraph& graph, std::uint64_t seed);
  const LayerWeights& weights(int layer_id) const { return weights_.at(static_cast<std::size_t>(layer_id)); }

 private:
  std::vector<LayerWeights> weights_;
};

class ReferenceExecutor {
 public:
  ReferenceExecutor(const dnn::DnnGraph& graph, std::uint64_t weight_seed = 1234);

  const dnn::DnnGraph& graph() const noexcept { return *graph_; }
  const WeightStore& store() const noexcept { return *store_; }

  /// Runs the whole model; returns the final layer's output.
  Tensor run(const Tensor& input) const;

  /// Runs layers [0, end) and returns every layer's output (index = id).
  /// Used by tests that compare intermediate activations.
  std::vector<Tensor> run_prefix(const Tensor& input, int end) const;

  /// Runs layers [begin, n) given the producer outputs `boundary` (outputs
  /// of all layers with id < begin that are consumed at or after begin;
  /// indexed by layer id). Returns the final output.
  Tensor run_suffix(std::vector<Tensor> outputs_by_id, int begin) const;

 private:
  Tensor execute_layer(const dnn::Layer& layer, const std::vector<Tensor>& outputs) const;

  const dnn::DnnGraph* graph_;
  std::unique_ptr<WeightStore> store_;
};

}  // namespace hidp::tensor
