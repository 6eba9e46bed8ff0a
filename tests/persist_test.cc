// Persistence tests: save/reopen round trips across object types and node
// stores, metadata validation, and continued mutation after reopening.

#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "mcm/dataset/text_datasets.h"
#include "mcm/dataset/vector_datasets.h"
#include "mcm/metric/traits.h"
#include "mcm/mtree/bulk_load.h"
#include "mcm/mtree/persist.h"
#include "mcm/check/check_mtree.h"
#include "temp_dir.h"

namespace mcm {
namespace {

using VecTraits = VectorTraits<LInfDistance>;
using StrTraits = StringTraits<>;

class PersistTest : public ::testing::Test {
 protected:
  std::string Path(const std::string& name) const { return dir_.File(name); }

  test::ScopedTempDir dir_;
};

TEST_F(PersistTest, VectorTreeRoundTrip) {
  MTreeOptions options;
  options.node_size_bytes = 1024;
  const auto data = GenerateClustered(1200, 6, 229);
  auto tree = MTree<VecTraits>::BulkLoad(data, LInfDistance{}, options);
  const std::string path = Path("vec.mtree");
  SaveMTree(tree, path);

  auto reopened = OpenMTree<VecTraits>(path, LInfDistance{}, options);
  EXPECT_EQ(reopened.size(), tree.size());
  EXPECT_EQ(reopened.height(), tree.height());
  EXPECT_TRUE(check::CheckMTree(reopened).ok());

  const auto queries =
      GenerateVectorQueries(VectorDatasetKind::kClustered, 15, 6, 229);
  for (const auto& q : queries) {
    QueryStats s1, s2;
    const auto r1 = tree.RangeSearch(q, 0.2, &s1);
    const auto r2 = reopened.RangeSearch(q, 0.2, &s2);
    ASSERT_EQ(r1.size(), r2.size());
    for (size_t i = 0; i < r1.size(); ++i) {
      EXPECT_EQ(r1[i].oid, r2[i].oid);
      EXPECT_DOUBLE_EQ(r1[i].distance, r2[i].distance);
    }
    EXPECT_EQ(s1.nodes_accessed, s2.nodes_accessed);
    EXPECT_EQ(s1.distance_computations, s2.distance_computations);
  }
}

TEST_F(PersistTest, StringTreeRoundTrip) {
  MTreeOptions options;
  const auto words = GenerateKeywords(2000, 233);
  auto tree = MTree<StrTraits>::BulkLoad(words, EditDistanceMetric{}, options);
  const std::string path = Path("str.mtree");
  SaveMTree(tree, path);
  auto reopened = OpenMTree<StrTraits>(path, EditDistanceMetric{}, options);
  EXPECT_EQ(reopened.size(), 2000u);
  for (const auto& q : GenerateKeywordQueries(10, 233)) {
    EXPECT_EQ(tree.RangeSearch(q, 2.0).size(),
              reopened.RangeSearch(q, 2.0).size());
  }
}

TEST_F(PersistTest, ReopenedTreeAcceptsInsertsAndDeletes) {
  MTreeOptions options;
  options.node_size_bytes = 512;
  const auto data = GenerateUniform(300, 4, 239);
  auto tree = MTree<VecTraits>::BulkLoad(data, LInfDistance{}, options);
  const std::string path = Path("mut.mtree");
  SaveMTree(tree, path);

  auto reopened = OpenMTree<VecTraits>(path, LInfDistance{}, options);
  reopened.Insert({0.25f, 0.25f, 0.25f, 0.25f}, 9999);
  EXPECT_EQ(reopened.size(), 301u);
  EXPECT_TRUE(reopened.Delete(data[0], 0));
  EXPECT_EQ(reopened.size(), 300u);
  EXPECT_TRUE(check::CheckMTree(reopened).ok());
  const auto r = reopened.RangeSearch({0.25f, 0.25f, 0.25f, 0.25f}, 0.0);
  ASSERT_FALSE(r.empty());
  EXPECT_EQ(r.front().oid, 9999u);
}

TEST_F(PersistTest, EmptyTreeRoundTrip) {
  MTreeOptions options;
  MTree<VecTraits> tree(LInfDistance{}, options);
  const std::string path = Path("empty.mtree");
  SaveMTree(tree, path);
  auto reopened = OpenMTree<VecTraits>(path, LInfDistance{}, options);
  EXPECT_EQ(reopened.size(), 0u);
  EXPECT_TRUE(reopened.RangeSearch({0.5f}, 1.0).empty());
}

TEST_F(PersistTest, SavedFileIsCompact) {
  // A bulk-loaded tree saved to disk occupies exactly num_nodes pages.
  MTreeOptions options;
  options.node_size_bytes = 1024;
  const auto data = GenerateClustered(800, 5, 241);
  auto tree = MTree<VecTraits>::BulkLoad(data, LInfDistance{}, options);
  const std::string path = Path("compact.mtree");
  SaveMTree(tree, path);
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  const long bytes = std::ftell(f);
  std::fclose(f);
  EXPECT_EQ(static_cast<size_t>(bytes),
            tree.store().NumNodes() * options.node_size_bytes);
}

TEST_F(PersistTest, NodeSizeMismatchRejected) {
  MTreeOptions options;
  options.node_size_bytes = 1024;
  const auto data = GenerateUniform(100, 3, 251);
  auto tree = MTree<VecTraits>::BulkLoad(data, LInfDistance{}, options);
  const std::string path = Path("mismatch.mtree");
  SaveMTree(tree, path);
  MTreeOptions wrong = options;
  wrong.node_size_bytes = 4096;
  EXPECT_THROW(OpenMTree<VecTraits>(path, LInfDistance{}, wrong),
               std::runtime_error);
}

TEST_F(PersistTest, MissingMetaRejected) {
  EXPECT_THROW(
      OpenMTree<VecTraits>(Path("nonexistent.mtree"), LInfDistance{},
                           MTreeOptions{}),
      std::runtime_error);
}

TEST_F(PersistTest, CorruptMagicRejected) {
  const std::string path = Path("corrupt.mtree");
  std::FILE* f = std::fopen((path + ".meta").c_str(), "wb");
  ASSERT_NE(f, nullptr);
  const char junk[64] = {0};
  std::fwrite(junk, sizeof(junk), 1, f);
  std::fclose(f);
  EXPECT_THROW(OpenMTree<VecTraits>(path, LInfDistance{}, MTreeOptions{}),
               std::runtime_error);
}

}  // namespace
}  // namespace mcm
