// Data partitioner: band sizing, exact slice FLOPs, halo overlap, head.
#include <gtest/gtest.h>

#include <algorithm>

#include "dnn/zoo/zoo.hpp"
#include "partition/data_partitioner.hpp"
#include "platform/device_db.hpp"

namespace hidp::partition {
namespace {

struct Fixture {
  dnn::DnnGraph graph = dnn::zoo::build_vgg19();
  std::vector<platform::NodeModel> nodes = platform::paper_cluster();
  net::NetworkSpec network{nodes};
  ClusterCostModel cost{graph, nodes, network, NodeExecutionPolicy::kHierarchicalLocal};
};

TEST(ProportionalBands, ExactCoverAndProportionality) {
  const auto bands = proportional_row_bands(100, {3.0, 1.0});
  ASSERT_EQ(bands.size(), 2u);
  EXPECT_EQ(bands[0].begin, 0);
  EXPECT_EQ(bands[0].end, 75);
  EXPECT_EQ(bands[1].end, 100);
}

TEST(ProportionalBands, LargestRemainderExactTotal) {
  const auto bands = proportional_row_bands(10, {1.0, 1.0, 1.0});
  int total = 0;
  for (const auto& b : bands) total += b.size();
  EXPECT_EQ(total, 10);
  EXPECT_EQ(bands.back().end, 10);
}

TEST(ProportionalBands, ZeroWeightGetsNothingOrRemainder) {
  const auto bands = proportional_row_bands(10, {1.0, 0.0});
  EXPECT_EQ(bands[0].size() + bands[1].size(), 10);
  EXPECT_GE(bands[0].size(), 9);
}

TEST(ProportionalBands, DegenerateInputs) {
  EXPECT_TRUE(proportional_row_bands(0, {1.0}).front().empty());
  EXPECT_TRUE(proportional_row_bands(10, {}).empty());
}

TEST(DataPartitioner, SlicesCoverTargetRows) {
  Fixture f;
  const auto result = plan_data_partition(f.cost, {0, 1, 2}, 0);
  ASSERT_TRUE(result.valid);
  const int split = result.split_layer;
  EXPECT_EQ(split, dnn::data_partition_point(f.graph));
  int covered = 0;
  for (const auto& slice : result.slices) covered += slice.target_rows.size();
  EXPECT_EQ(covered, f.graph.layer(split - 1).output.height);
}

TEST(DataPartitioner, SliceWorkExceedsProportionalShare) {
  // Halo recomputation means the sum of slice FLOPs exceeds the prefix
  // FLOPs. At the deepest split the receptive field is large, so the
  // overlap is substantial but bounded.
  Fixture f;
  const auto result = plan_data_partition(f.cost, {0, 1}, 0);
  ASSERT_TRUE(result.valid);
  const double prefix_flops = f.graph.range_flops(0, result.split_layer);
  double total = 0.0;
  for (const auto& slice : result.slices) total += slice.work.total();
  EXPECT_GT(total, prefix_flops);
  EXPECT_LT(total, prefix_flops * 2.0);
}

TEST(DataPartitioner, SplitSweepReducesLatency) {
  // The DSE's split sweep must never be worse than the fixed deepest split
  // and should find a strictly cheaper shallower split for VGG (where the
  // deep receptive field makes the deepest split expensive).
  Fixture f;
  const auto fixed = plan_data_partition(f.cost, {0, 1, 2}, 0);
  const auto swept = plan_best_data_partition(f.cost, {0, 1, 2}, 0);
  ASSERT_TRUE(fixed.valid && swept.valid);
  EXPECT_LE(swept.latency_s, fixed.latency_s + 1e-12);
  EXPECT_LT(swept.split_layer, fixed.split_layer);
}

TEST(DataPartitioner, SplitCandidatesAreCleanSpatialCuts) {
  Fixture f;
  const auto candidates = data_split_candidates(f.graph, 12);
  ASSERT_FALSE(candidates.empty());
  EXPECT_LE(candidates.size(), 12u);
  EXPECT_EQ(candidates.back(), dnn::data_partition_point(f.graph));
  for (int c : candidates) {
    EXPECT_GT(f.graph.layer(c - 1).output.height, 1);
    EXPECT_LE(c, f.graph.spatial_prefix_end());
  }
}

TEST(DataPartitioner, SplitCandidateThinningSweep) {
  // Regression for the thinning NaN/dup bug: max_candidates == 1 used to
  // divide by zero (step = inf, 0 * inf = NaN cast to an index — UB), and
  // rounding plus the forced last element could select a candidate twice.
  Fixture f;
  const auto full = data_split_candidates(f.graph, 0);  // 0 = unthinned
  ASSERT_GE(full.size(), 2u);
  for (int max = 1; max <= static_cast<int>(full.size()) + 2; ++max) {
    const auto thinned = data_split_candidates(f.graph, max);
    ASSERT_FALSE(thinned.empty()) << "max=" << max;
    EXPECT_LE(static_cast<int>(thinned.size()), max) << "max=" << max;
    EXPECT_EQ(thinned.back(), dnn::data_partition_point(f.graph)) << "max=" << max;
    for (std::size_t i = 0; i < thinned.size(); ++i) {
      if (i > 0) {
        EXPECT_LT(thinned[i - 1], thinned[i]) << "max=" << max;  // sorted, no dups
      }
      EXPECT_TRUE(std::find(full.begin(), full.end(), thinned[i]) != full.end())
          << "max=" << max << " candidate " << thinned[i] << " not a clean spatial cut";
    }
  }
}

TEST(DataPartitioner, SingleCandidateKeepsDeepestSplit) {
  Fixture f;
  const auto thinned = data_split_candidates(f.graph, 1);
  ASSERT_EQ(thinned.size(), 1u);
  EXPECT_EQ(thinned.front(), dnn::data_partition_point(f.graph));
  // The sweep with one candidate must still produce a valid plan.
  const auto result = plan_best_data_partition(f.cost, {0, 1}, 0, 1);
  EXPECT_TRUE(result.valid);
  EXPECT_EQ(result.split_layer, dnn::data_partition_point(f.graph));
}

TEST(DataPartitioner, CandidateListMemoMatchesFreeFunction) {
  Fixture f;
  for (int max : {1, 2, 5, 12, 100}) {
    EXPECT_EQ(f.cost.data_split_candidate_list(max), data_split_candidates(f.graph, max))
        << "max=" << max;
  }
}

TEST(DataPartitioner, ExplicitSplitRespected) {
  Fixture f;
  const auto candidates = data_split_candidates(f.graph, 12);
  ASSERT_GE(candidates.size(), 2u);
  const int shallow = candidates.front();
  const auto result = plan_data_partition(f.cost, {0, 1}, 0, shallow);
  ASSERT_TRUE(result.valid);
  EXPECT_EQ(result.split_layer, shallow);
}

TEST(DataPartitioner, InvalidSplitRejected) {
  Fixture f;
  EXPECT_FALSE(plan_data_partition(f.cost, {0, 1}, 0, static_cast<int>(f.graph.size())).valid);
}

TEST(DataPartitioner, FasterNodeGetsMoreRows) {
  Fixture f;
  // Use a shallow split (56-row target) so both nodes receive rows.
  const auto candidates = data_split_candidates(f.graph, 12);
  const auto result = plan_data_partition(f.cost, {0, 4}, 0, candidates.front());
  ASSERT_TRUE(result.valid);
  ASSERT_EQ(result.slices.size(), 2u);
  EXPECT_GT(result.slices[0].target_rows.size(), result.slices[1].target_rows.size() * 3);
}

TEST(DataPartitioner, LeaderSlicePaysNoRadio) {
  Fixture f;
  const auto result = plan_data_partition(f.cost, {0, 1}, 0);
  ASSERT_TRUE(result.valid);
  const auto& leader_slice = result.slices[0];
  ASSERT_EQ(leader_slice.node, 0u);
  EXPECT_NEAR(leader_slice.total_s, leader_slice.compute_s, 1e-12);
  const auto& remote_slice = result.slices[1];
  EXPECT_GT(remote_slice.total_s, remote_slice.compute_s);
}

TEST(DataPartitioner, HeadRunsOnLeader) {
  Fixture f;
  const auto result = plan_data_partition(f.cost, {0, 1, 2}, 0);
  ASSERT_TRUE(result.valid);
  EXPECT_EQ(result.head_node, 0u);
  EXPECT_GT(result.head_s, 0.0);  // VGG's FC head is heavy
  EXPECT_GE(result.latency_s, result.head_s);
}

TEST(DataPartitioner, SqueezeExciteChargesSyncBytes) {
  const auto graph = dnn::zoo::build_efficientnet_b0();
  const auto nodes = platform::paper_cluster();
  const net::NetworkSpec network(nodes);
  ClusterCostModel cost(graph, nodes, network, NodeExecutionPolicy::kHierarchicalLocal);
  const auto result = plan_data_partition(cost, {0, 1}, 0);
  ASSERT_TRUE(result.valid);
  for (const auto& slice : result.slices) {
    EXPECT_GT(slice.sync_bytes, 0) << "EfficientNet slices must all-reduce SE";
  }
}

TEST(DataPartitioner, VggHasNoSyncBytes) {
  Fixture f;
  const auto result = plan_data_partition(f.cost, {0, 1}, 0);
  ASSERT_TRUE(result.valid);
  for (const auto& slice : result.slices) EXPECT_EQ(slice.sync_bytes, 0);
}

TEST(DataPartitioner, NoWorkersInvalid) {
  Fixture f;
  EXPECT_FALSE(plan_data_partition(f.cost, {}, 0).valid);
}

TEST(DataPartitioner, HeadOnlyGraphInvalid) {
  dnn::DnnGraph g("head-only");
  int x = g.add_input(64, 1, 1);
  x = g.dense(x, 10);
  g.softmax(x);
  const auto nodes = platform::paper_cluster(2);
  const net::NetworkSpec network(nodes);
  ClusterCostModel cost(g, nodes, network, NodeExecutionPolicy::kDefaultProcessor);
  EXPECT_FALSE(plan_data_partition(cost, {0, 1}, 0).valid);
}

TEST(DataPartitioner, DefaultPolicyUsesDefaultPlacement) {
  Fixture f;
  ClusterCostModel dflt(f.graph, f.nodes, f.network, NodeExecutionPolicy::kDefaultProcessor);
  const auto hier = plan_data_partition(f.cost, {0, 1}, 0);
  const auto base = plan_data_partition(dflt, {0, 1}, 0);
  ASSERT_TRUE(hier.valid && base.valid);
  EXPECT_LT(hier.latency_s, base.latency_s);  // hierarchical local tier wins
  for (const auto& slice : base.slices) {
    EXPECT_EQ(slice.local.config.mode, LocalMode::kSingleProcessor);
  }
}

}  // namespace
}  // namespace hidp::partition
