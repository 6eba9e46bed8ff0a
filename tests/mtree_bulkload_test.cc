// BulkLoading tests: structural invariants, balance, utilization, and the
// equivalence of the memory-resident and page-resident node stores.

#include <memory>

#include <gtest/gtest.h>

#include "mcm/dataset/text_datasets.h"
#include "mcm/dataset/vector_datasets.h"
#include "mcm/metric/traits.h"
#include "mcm/mtree/bulk_load.h"
#include "mcm/check/check_mtree.h"
#include "temp_dir.h"

namespace mcm {
namespace {

using VecTraits = VectorTraits<LInfDistance>;
using StrTraits = StringTraits<>;

TEST(BulkLoad, InvariantsOnClusteredVectors) {
  MTreeOptions options;  // Paper defaults: 4 KB nodes, 30% utilization.
  const auto data = GenerateClustered(5000, 10, 61);
  auto tree = MTree<VecTraits>::BulkLoad(data, LInfDistance{}, options);
  EXPECT_EQ(tree.size(), 5000u);
  const auto result = check::CheckMTree(tree);
  EXPECT_TRUE(result.ok()) << result.Summary();
}

TEST(BulkLoad, InvariantsOnKeywords) {
  MTreeOptions options;
  const auto words = GenerateKeywords(4000, 67);
  auto tree = MTree<StrTraits>::BulkLoad(words, EditDistanceMetric{}, options);
  EXPECT_EQ(tree.size(), 4000u);
  const auto result = check::CheckMTree(tree);
  EXPECT_TRUE(result.ok()) << result.Summary();
}

TEST(BulkLoad, EmptyAndTinyInputs) {
  MTreeOptions options;
  auto empty = MTree<VecTraits>::BulkLoad({}, LInfDistance{}, options);
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_EQ(empty.height(), 0u);

  auto tiny =
      MTree<VecTraits>::BulkLoad({{0.1f, 0.1f}, {0.9f, 0.9f}}, LInfDistance{},
                                 options);
  EXPECT_EQ(tiny.size(), 2u);
  EXPECT_EQ(tiny.height(), 1u);  // Both fit in the root leaf.
  EXPECT_EQ(tiny.RangeSearch({0.0f, 0.0f}, 1.0).size(), 2u);
}

TEST(BulkLoad, MinimumUtilizationMostlyRespected) {
  MTreeOptions options;
  options.node_size_bytes = 1024;
  options.min_utilization = 0.3;
  const auto data = GenerateUniform(4000, 6, 71);
  auto tree = MTree<VecTraits>::BulkLoad(data, LInfDistance{}, options);
  const auto stats = tree.CollectStats(1.0);
  const size_t entry = MTreeNode<VecTraits>::LeafEntrySize(data[0]);
  const size_t capacity =
      options.node_size_bytes - MTreeNode<VecTraits>::HeaderSize();
  size_t under = 0, leaves = 0;
  for (const auto& node : stats.nodes) {
    if (!node.is_leaf) continue;
    ++leaves;
    const size_t bytes = node.num_entries * entry;
    if (static_cast<double>(bytes) <
        options.min_utilization * static_cast<double>(capacity)) {
      ++under;
    }
  }
  // The repair pass should leave (almost) no under-filled leaves.
  EXPECT_LE(under, leaves / 20);
}

TEST(BulkLoad, BalancedHeightMatchesCollectStats) {
  MTreeOptions options;
  options.node_size_bytes = 512;
  const auto data = GenerateUniform(3000, 4, 73);
  auto tree = MTree<VecTraits>::BulkLoad(data, LInfDistance{}, options);
  const auto stats = tree.CollectStats(1.0);
  EXPECT_EQ(stats.height, tree.height());
  EXPECT_EQ(stats.levels.size(), tree.height());
  EXPECT_EQ(stats.levels.front().num_nodes, 1u);  // Root level.
}

TEST(BulkLoad, PagedStoreProducesIdenticalAnswers) {
  MTreeOptions options;
  options.node_size_bytes = 1024;
  const auto data = GenerateClustered(1500, 8, 79);

  auto memory_tree = MTree<VecTraits>::BulkLoad(data, LInfDistance{}, options);
  auto paged_store = std::make_unique<PagedNodeStore<VecTraits>>(
      std::make_unique<InMemoryPageFile>(options.node_size_bytes),
      options.buffer_pool_frames);
  auto paged_tree = MTree<VecTraits>::BulkLoad(data, LInfDistance{}, options,
                                               std::move(paged_store));

  EXPECT_TRUE(check::CheckMTree(paged_tree).ok());
  const auto queries =
      GenerateVectorQueries(VectorDatasetKind::kClustered, 20, 8, 79);
  for (const auto& q : queries) {
    QueryStats sm, sp;
    const auto rm = memory_tree.RangeSearch(q, 0.2, &sm);
    const auto rp = paged_tree.RangeSearch(q, 0.2, &sp);
    ASSERT_EQ(rm.size(), rp.size());
    for (size_t i = 0; i < rm.size(); ++i) {
      EXPECT_EQ(rm[i].oid, rp[i].oid);
    }
    // Same construction seed => identical tree => identical cost counters.
    EXPECT_EQ(sm.nodes_accessed, sp.nodes_accessed);
    EXPECT_EQ(sm.distance_computations, sp.distance_computations);
  }
}

TEST(BulkLoad, WorksOnRealDiskFile) {
  MTreeOptions options;
  options.node_size_bytes = 1024;
  options.buffer_pool_frames = 8;  // Tiny pool forces real page traffic.
  const test::ScopedTempDir dir;
  const std::string path = dir.File("bulk_disk.bin");
  auto store = std::make_unique<PagedNodeStore<VecTraits>>(
      std::make_unique<StdioPageFile>(path, options.node_size_bytes),
      options.buffer_pool_frames);
  const auto data = GenerateClustered(800, 5, 83);
  auto tree = MTree<VecTraits>::BulkLoad(data, LInfDistance{}, options,
                                         std::move(store));
  EXPECT_EQ(tree.size(), 800u);
  EXPECT_EQ(tree.RangeSearch(data[0], 0.0).size(),
            static_cast<size_t>(std::count(data.begin(), data.end(),
                                           data[0])));
}

TEST(BulkLoad, AllDuplicateObjectsHandled) {
  MTreeOptions options;
  options.node_size_bytes = 256;
  const std::vector<FloatVector> data(500, FloatVector{0.5f, 0.5f});
  auto tree = MTree<VecTraits>::BulkLoad(data, LInfDistance{}, options);
  EXPECT_EQ(tree.size(), 500u);
  EXPECT_EQ(tree.RangeSearch({0.5f, 0.5f}, 0.0).size(), 500u);
  EXPECT_TRUE(check::CheckMTree(tree).ok());
}

TEST(BulkLoad, ExplicitOidsPreserved) {
  MTreeOptions options;
  const std::vector<FloatVector> data = {{0.1f}, {0.2f}, {0.3f}};
  const std::vector<uint64_t> oids = {100, 200, 300};
  auto tree = BulkLoader<VecTraits>::Load(data, oids, LInfDistance{}, options,
                                          nullptr);
  const auto r = tree.RangeSearch({0.2f}, 0.0);
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0].oid, 200u);
}

TEST(BulkLoad, OidSizeMismatchRejected) {
  const std::vector<FloatVector> data = {{0.1f}, {0.2f}};
  EXPECT_THROW(BulkLoader<VecTraits>::Load(data, {1}, LInfDistance{},
                                           MTreeOptions{}, nullptr),
               std::invalid_argument);
}

TEST(BulkLoad, NodeSizeControlsTreeHeight) {
  const auto data = GenerateUniform(2000, 6, 89);
  MTreeOptions small_nodes;
  small_nodes.node_size_bytes = 256;
  MTreeOptions big_nodes;
  big_nodes.node_size_bytes = 8192;
  auto small_tree =
      MTree<VecTraits>::BulkLoad(data, LInfDistance{}, small_nodes);
  auto big_tree = MTree<VecTraits>::BulkLoad(data, LInfDistance{}, big_nodes);
  EXPECT_GT(small_tree.height(), big_tree.height());
  EXPECT_GT(small_tree.store().NumNodes(), big_tree.store().NumNodes());
}

}  // namespace
}  // namespace mcm
