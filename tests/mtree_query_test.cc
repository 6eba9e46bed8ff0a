// Query correctness: range and k-NN results must agree exactly with a
// linear scan for vector and string spaces, with and without the witness
// cascade; computed + avoided evaluations must equal the sum of entries of
// accessed nodes (the quantity Eq. 7 models).

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "mcm/dataset/text_datasets.h"
#include "mcm/dataset/vector_datasets.h"
#include "mcm/metric/traits.h"
#include "mcm/mtree/bulk_load.h"
#include "mcm/mtree/mtree.h"

namespace mcm {
namespace {

using VecTraits = VectorTraits<LInfDistance>;
using StrTraits = StringTraits<>;

template <typename Object, typename Metric>
std::vector<std::pair<double, uint64_t>> ScanRange(
    const std::vector<Object>& data, const Metric& metric, const Object& q,
    double radius) {
  std::vector<std::pair<double, uint64_t>> out;
  for (size_t i = 0; i < data.size(); ++i) {
    const double d = metric(q, data[i]);
    if (d <= radius) out.emplace_back(d, i);
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// How hard the search prunes. It always applies the stored-parent-distance
/// filter: kBasic runs that filter alone (witness capacity 0); kOptimized
/// adds the ancestor witness cascade on top of it.
enum class PruningMode { kBasic, kOptimized };

class PruningModeTest : public ::testing::TestWithParam<PruningMode> {
 protected:
  template <typename Traits>
  static MTree<Traits> Build(const std::vector<typename Traits::Object>& data,
                             typename Traits::Metric metric) {
    MTreeOptions options;
    options.node_size_bytes = 512;
    const bool cascade = GetParam() == PruningMode::kOptimized;
    options.witness_capacity = cascade ? 8 : 0;
    auto tree = MTree<Traits>::BulkLoad(data, metric, options);
    if (cascade) tree.InstallWitnessCascade();
    return tree;
  }
};

TEST_P(PruningModeTest, RangeMatchesLinearScanVectors) {
  const auto data = GenerateClustered(800, 6, 23);
  auto tree = Build<VecTraits>(data, LInfDistance{});
  const auto queries =
      GenerateVectorQueries(VectorDatasetKind::kClustered, 25, 6, 23);
  const LInfDistance metric;
  for (const auto& q : queries) {
    for (double radius : {0.0, 0.05, 0.2, 0.5, 1.0}) {
      const auto expected = ScanRange(data, metric, q, radius);
      const auto got = tree.RangeSearch(q, radius);
      ASSERT_EQ(got.size(), expected.size()) << "radius=" << radius;
      // Same oid set and sorted distances.
      std::multiset<uint64_t> want_ids, got_ids;
      for (const auto& [d, id] : expected) want_ids.insert(id);
      for (const auto& r : got) got_ids.insert(r.oid);
      EXPECT_EQ(got_ids, want_ids);
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_NEAR(got[i].distance, expected[i].first, 1e-9);
      }
    }
  }
}

TEST_P(PruningModeTest, KnnMatchesLinearScanVectors) {
  const auto data = GenerateClustered(600, 8, 29);
  auto tree = Build<VecTraits>(data, LInfDistance{});
  const auto queries =
      GenerateVectorQueries(VectorDatasetKind::kClustered, 20, 8, 29);
  const LInfDistance metric;
  for (const auto& q : queries) {
    for (size_t k : {1u, 5u, 20u}) {
      std::vector<double> all;
      for (const auto& p : data) all.push_back(metric(q, p));
      std::sort(all.begin(), all.end());
      const auto got = tree.KnnSearch(q, k);
      ASSERT_EQ(got.size(), k);
      for (size_t i = 0; i < k; ++i) {
        EXPECT_NEAR(got[i].distance, all[i], 1e-9) << "k=" << k << " i=" << i;
      }
    }
  }
}

TEST_P(PruningModeTest, RangeMatchesLinearScanStrings) {
  const auto words = GenerateKeywords(700, 31);
  auto tree = Build<StrTraits>(words, EditDistanceMetric{});
  const auto queries = GenerateKeywordQueries(15, 31);
  const EditDistanceMetric metric;
  for (const auto& q : queries) {
    for (double radius : {0.0, 1.0, 3.0, 6.0}) {
      const auto expected = ScanRange(words, metric, q, radius);
      const auto got = tree.RangeSearch(q, radius);
      ASSERT_EQ(got.size(), expected.size())
          << "q=" << q << " radius=" << radius;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, PruningModeTest,
                         ::testing::Values(PruningMode::kBasic,
                                           PruningMode::kOptimized),
                         [](const auto& info) {
                           return info.param == PruningMode::kBasic
                                      ? "Basic"
                                      : "Optimized";
                         });

/// Σ e(N) over the nodes a range(Q, radius) search must access: the
/// basic search that evaluates every entry of every accessed node, run
/// here by hand over the store (Eq. 7's quantity). Returns {nodes, dists}.
std::pair<uint64_t, uint64_t> BasicRangeCounts(const MTree<VecTraits>& tree,
                                               const FloatVector& q,
                                               double radius) {
  const LInfDistance metric;
  uint64_t nodes = 0;
  uint64_t dists = 0;
  std::vector<NodeId> pending{tree.root()};
  while (!pending.empty()) {
    const auto node = tree.store().Read(pending.back());
    pending.pop_back();
    ++nodes;
    dists += node.NumEntries();
    for (const auto& e : node.routing_entries) {
      if (metric(q, e.object) - e.covering_radius <= radius) {
        pending.push_back(e.child);
      }
    }
  }
  return {nodes, dists};
}

TEST(MTreeQuery, BasicModeDistancesEqualEntriesOfAccessedNodes) {
  // Computed + avoided == Σ e(N) over accessed nodes — the exact quantity
  // Eq. 7 predicts — and the node reads are the basic search's.
  MTreeOptions options;
  options.node_size_bytes = 512;
  const auto data = GenerateClustered(500, 5, 37);
  auto tree = MTree<VecTraits>::BulkLoad(data, LInfDistance{}, options);
  const auto queries =
      GenerateVectorQueries(VectorDatasetKind::kClustered, 10, 5, 37);
  for (const auto& q : queries) {
    QueryStats stats;
    tree.store().ResetAccessCount();
    tree.RangeSearch(q, 0.15, &stats);
    EXPECT_EQ(stats.nodes_accessed, tree.store().access_count());
    const auto [nodes, dists] = BasicRangeCounts(tree, q, 0.15);
    EXPECT_EQ(stats.nodes_accessed, nodes);
    EXPECT_EQ(stats.PricedDistances(), dists);
  }
}

TEST(MTreeQuery, OptimizedModeNeverComputesMoreDistances) {
  // The parent filter computes no more than the basic count and saves
  // something overall.
  MTreeOptions options;
  options.node_size_bytes = 512;
  const auto data = GenerateClustered(800, 6, 41);
  auto tree = MTree<VecTraits>::BulkLoad(data, LInfDistance{}, options);
  const auto queries =
      GenerateVectorQueries(VectorDatasetKind::kClustered, 30, 6, 41);
  uint64_t saved = 0;
  for (const auto& q : queries) {
    QueryStats st;
    tree.RangeSearch(q, 0.2, &st);
    const auto [nodes, dists] = BasicRangeCounts(tree, q, 0.2);
    EXPECT_EQ(st.nodes_accessed, nodes);  // Same I/O.
    EXPECT_LE(st.distance_computations, dists);
    saved += st.distance_calcs_avoided_by_witness;
  }
  EXPECT_GT(saved, 0u);
}

TEST(MTreeQuery, KnnAccessesMatchRangeAtKthDistance) {
  // The optimal k-NN algorithm accesses exactly the nodes a range query
  // with the k-th NN distance would access.
  MTreeOptions options;
  options.node_size_bytes = 512;
  const auto data = GenerateClustered(700, 7, 43);
  auto tree = MTree<VecTraits>::BulkLoad(data, LInfDistance{}, options);
  const auto queries =
      GenerateVectorQueries(VectorDatasetKind::kClustered, 20, 7, 43);
  for (const auto& q : queries) {
    QueryStats knn_stats;
    const auto knn = tree.KnnSearch(q, 5, &knn_stats);
    ASSERT_EQ(knn.size(), 5u);
    QueryStats range_stats;
    tree.RangeSearch(q, knn.back().distance, &range_stats);
    EXPECT_EQ(knn_stats.nodes_accessed, range_stats.nodes_accessed);
  }
}

TEST(MTreeQuery, EmptyTreeAndDegenerateArguments) {
  MTree<VecTraits> tree(LInfDistance{}, MTreeOptions{});
  EXPECT_TRUE(tree.RangeSearch({0.5f}, 1.0).empty());
  EXPECT_TRUE(tree.KnnSearch({0.5f}, 3).empty());
  tree.Insert({0.5f}, 0);
  EXPECT_TRUE(tree.KnnSearch({0.5f}, 0).empty());
  EXPECT_TRUE(tree.RangeSearch({0.5f}, -1.0).empty());
}

TEST(MTreeQuery, KnnWithKLargerThanDatasetReturnsAll) {
  MTreeOptions options;
  options.node_size_bytes = 256;
  const auto data = GenerateUniform(20, 3, 47);
  auto tree = MTree<VecTraits>::BulkLoad(data, LInfDistance{}, options);
  const auto got = tree.KnnSearch({0.5f, 0.5f, 0.5f}, 50);
  EXPECT_EQ(got.size(), 20u);
  for (size_t i = 1; i < got.size(); ++i) {
    EXPECT_GE(got[i].distance, got[i - 1].distance);
  }
}

TEST(MTreeQuery, InsertedTreeAnswersLikeBulkLoadedTree) {
  MTreeOptions options;
  options.node_size_bytes = 512;
  const auto data = GenerateClustered(400, 5, 53);
  auto bulk = MTree<VecTraits>::BulkLoad(data, LInfDistance{}, options);
  MTree<VecTraits> incremental(LInfDistance{}, options);
  for (size_t i = 0; i < data.size(); ++i) incremental.Insert(data[i], i);

  const auto queries =
      GenerateVectorQueries(VectorDatasetKind::kClustered, 15, 5, 53);
  for (const auto& q : queries) {
    const auto a = bulk.RangeSearch(q, 0.25);
    const auto b = incremental.RangeSearch(q, 0.25);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_NEAR(a[i].distance, b[i].distance, 1e-9);
    }
  }
}

TEST(MTreeQuery, RangeWithFullRadiusReturnsEverything) {
  MTreeOptions options;
  options.node_size_bytes = 256;
  const auto data = GenerateUniform(150, 4, 59);
  auto tree = MTree<VecTraits>::BulkLoad(data, LInfDistance{}, options);
  QueryStats stats;
  const auto all = tree.RangeSearch({0.5f, 0.5f, 0.5f, 0.5f}, 1.0, &stats);
  EXPECT_EQ(all.size(), 150u);
  // Every node must have been read.
  EXPECT_EQ(stats.nodes_accessed, tree.store().NumNodes());
  // Computed + avoided is one distance per entry of every accessed node:
  // n leaf entries plus one routing entry per non-root node.
  EXPECT_EQ(stats.PricedDistances(), 150u + tree.store().NumNodes() - 1u);
}

}  // namespace
}  // namespace mcm
