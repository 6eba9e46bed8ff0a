// Deletion tests: exact query answers against a linear scan of the
// remaining objects, structural invariants after heavy deletion, root
// collapse (and regrowth past it), and interleaved insert/delete
// workloads.

#include <algorithm>
#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "mcm/baseline/linear_scan.h"
#include "mcm/dataset/text_datasets.h"
#include "mcm/dataset/vector_datasets.h"
#include "mcm/metric/traits.h"
#include "mcm/mtree/bulk_load.h"
#include "mcm/check/check_mtree.h"

namespace mcm {
namespace {

using VecTraits = VectorTraits<LInfDistance>;
using StrTraits = StringTraits<>;

TEST(MTreeDelete, RemovesOnlyTheRequestedEntry) {
  MTreeOptions options;
  options.node_size_bytes = 512;
  const auto data = GenerateClustered(300, 5, 191);
  auto tree = MTree<VecTraits>::BulkLoad(data, LInfDistance{}, options);
  EXPECT_TRUE(tree.Delete(data[42], 42));
  EXPECT_EQ(tree.size(), 299u);
  // oid 42 gone, everything else findable.
  for (size_t i = 0; i < data.size(); ++i) {
    const auto r = tree.RangeSearch(data[i], 0.0);
    const bool found =
        std::any_of(r.begin(), r.end(),
                    [&](const auto& res) { return res.oid == i; });
    EXPECT_EQ(found, i != 42) << i;
  }
}

TEST(MTreeDelete, MissingEntryReturnsFalse) {
  MTreeOptions options;
  const auto data = GenerateUniform(100, 3, 193);
  auto tree = MTree<VecTraits>::BulkLoad(data, LInfDistance{}, options);
  EXPECT_FALSE(tree.Delete({2.0f, 2.0f, 2.0f}, 0));     // No such object.
  EXPECT_FALSE(tree.Delete(data[5], 9999));             // Wrong oid.
  EXPECT_TRUE(tree.Delete(data[5], 5));
  EXPECT_FALSE(tree.Delete(data[5], 5));                // Already gone.
  EXPECT_EQ(tree.size(), 99u);
}

TEST(MTreeDelete, InvariantsHoldAfterHeavyDeletion) {
  MTreeOptions options;
  options.node_size_bytes = 512;
  const auto data = GenerateClustered(800, 6, 197);
  auto tree = MTree<VecTraits>::BulkLoad(data, LInfDistance{}, options);
  for (size_t i = 0; i < data.size(); i += 2) {
    ASSERT_TRUE(tree.Delete(data[i], i)) << i;
  }
  EXPECT_EQ(tree.size(), 400u);
  const auto result = check::CheckMTree(tree);
  EXPECT_TRUE(result.ok()) << result.Summary();

  // Queries over the survivors stay exact.
  const LInfDistance metric;
  const auto queries =
      GenerateVectorQueries(VectorDatasetKind::kClustered, 10, 6, 197);
  for (const auto& q : queries) {
    size_t expected = 0;
    for (size_t i = 1; i < data.size(); i += 2) {
      expected += metric(q, data[i]) <= 0.2 ? 1 : 0;
    }
    EXPECT_EQ(tree.RangeSearch(q, 0.2).size(), expected);
  }
}

TEST(MTreeDelete, DeletingEverythingEmptiesTheTree) {
  MTreeOptions options;
  options.node_size_bytes = 256;
  const auto data = GenerateUniform(150, 4, 199);
  auto tree = MTree<VecTraits>::BulkLoad(data, LInfDistance{}, options);
  for (size_t i = 0; i < data.size(); ++i) {
    ASSERT_TRUE(tree.Delete(data[i], i));
  }
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_EQ(tree.height(), 0u);
  EXPECT_EQ(tree.root(), kInvalidNodeId);
  EXPECT_TRUE(tree.RangeSearch({0.5f, 0.5f, 0.5f, 0.5f}, 1.0).empty());
  // The tree is reusable after total deletion.
  tree.Insert(data[0], 1000);
  EXPECT_EQ(tree.KnnSearch(data[0], 1).front().oid, 1000u);
}

TEST(MTreeDelete, RootCollapsesWhenSingleChildRemains) {
  MTreeOptions options;
  options.node_size_bytes = 256;
  const auto data = GenerateClustered(400, 4, 211);
  auto tree = MTree<VecTraits>::BulkLoad(data, LInfDistance{}, options);
  const uint32_t initial_height = tree.height();
  ASSERT_GE(initial_height, 2u);
  // Delete down to a single object: every internal level collapses away.
  for (size_t i = 0; i + 1 < data.size(); ++i) {
    ASSERT_TRUE(tree.Delete(data[i], i));
  }
  EXPECT_EQ(tree.size(), 1u);
  EXPECT_EQ(tree.height(), 1u);
  EXPECT_LT(tree.height(), initial_height);
  EXPECT_TRUE(check::CheckMTree(tree).ok());
  const auto r = tree.KnnSearch(data.back(), 1);
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0].oid, data.size() - 1);
}

/// The oids stored in the subtree at `id`.
void CollectOids(const MTree<VecTraits>& tree, NodeId id,
                 std::vector<uint64_t>* out) {
  const auto node = tree.store().Read(id);
  for (const auto& e : node.leaf_entries) out->push_back(e.oid);
  for (const auto& e : node.routing_entries) CollectOids(tree, e.child, out);
}

/// Range (several radii) and k-NN answers of `tree` must equal a
/// LinearScan over the objects it holds (`present`, oid = data index), and
/// the structure must check clean.
void ExpectAnswersLikeTheScan(const MTree<VecTraits>& tree,
                              const std::vector<FloatVector>& data,
                              const std::set<uint64_t>& present,
                              const std::vector<FloatVector>& queries) {
  const auto check = check::CheckMTree(tree);
  ASSERT_TRUE(check.ok()) << check.Summary();
  ASSERT_EQ(tree.size(), present.size());
  // The scan numbers its objects 0..m-1; `oids` maps them back. Both
  // increase together, so distance ties break the same way.
  std::vector<FloatVector> objects;
  const std::vector<uint64_t> oids(present.begin(), present.end());
  for (const uint64_t oid : oids) objects.push_back(data[oid]);
  const LinearScan<VecTraits> scan(objects, LInfDistance{});
  const auto flatten = [](const auto& results,
                          const std::vector<uint64_t>* map) {
    std::vector<std::pair<uint64_t, double>> out;
    for (const auto& r : results) {
      out.emplace_back(map != nullptr ? (*map)[r.oid] : r.oid, r.distance);
    }
    return out;
  };
  for (const auto& q : queries) {
    for (const double radius : {0.05, 0.1, 0.2, 0.4}) {
      EXPECT_EQ(flatten(tree.RangeSearch(q, radius), nullptr),
                flatten(scan.RangeSearch(q, radius), &oids))
          << "radius " << radius;
    }
    for (const size_t k : {1u, 7u, 25u}) {
      EXPECT_EQ(flatten(tree.KnnSearch(q, k), nullptr),
                flatten(scan.KnnSearch(q, k), &oids))
          << "k " << k;
    }
  }
}

TEST(MTreeDelete, RegrowsPastACollapsedRoot) {
  // A collapsed root's entries keep the parent distances they had below
  // the old root. The search's parent-distance filter must never read
  // them there, before the root splits again or after.
  MTreeOptions options;
  options.node_size_bytes = 256;
  const auto data = GenerateClustered(700, 4, 227);
  const auto queries =
      GenerateVectorQueries(VectorDatasetKind::kClustered, 12, 4, 227);
  MTree<VecTraits> tree(LInfDistance{}, options);
  std::set<uint64_t> present;
  for (uint64_t i = 0; i < 500; ++i) {
    tree.Insert(data[i], i);
    present.insert(i);
  }
  const uint32_t grown_height = tree.height();
  ASSERT_GE(grown_height, 3u);

  // Delete every root subtree but the first: the root collapses onto it.
  const auto root = tree.store().Read(tree.root());
  ASSERT_GE(root.routing_entries.size(), 2u);
  std::vector<uint64_t> doomed;
  for (size_t c = 1; c < root.routing_entries.size(); ++c) {
    CollectOids(tree, root.routing_entries[c].child, &doomed);
  }
  for (const uint64_t oid : doomed) {
    ASSERT_TRUE(tree.Delete(data[oid], oid)) << oid;
    present.erase(oid);
  }
  const uint32_t collapsed_height = tree.height();
  ASSERT_LT(collapsed_height, grown_height);
  ASSERT_GE(collapsed_height, 2u);  // The new root still has a parent level.
  ExpectAnswersLikeTheScan(tree, data, present, queries);

  // Insert until the root splits again.
  for (uint64_t i = 500; i < data.size() && tree.height() <= collapsed_height;
       ++i) {
    tree.Insert(data[i], i);
    present.insert(i);
  }
  for (size_t j = 0; j < doomed.size() && tree.height() <= collapsed_height;
       ++j) {
    tree.Insert(data[doomed[j]], doomed[j]);
    present.insert(doomed[j]);
  }
  ASSERT_GT(tree.height(), collapsed_height);
  ExpectAnswersLikeTheScan(tree, data, present, queries);
}

TEST(MTreeDelete, DuplicateObjectsDeleteByOid) {
  MTreeOptions options;
  options.node_size_bytes = 256;
  MTree<VecTraits> tree(LInfDistance{}, options);
  const FloatVector p = {0.5f, 0.5f};
  for (size_t i = 0; i < 60; ++i) tree.Insert(p, i);
  EXPECT_TRUE(tree.Delete(p, 30));
  const auto r = tree.RangeSearch(p, 0.0);
  EXPECT_EQ(r.size(), 59u);
  EXPECT_FALSE(std::any_of(r.begin(), r.end(),
                           [](const auto& res) { return res.oid == 30; }));
}

TEST(MTreeDelete, InterleavedInsertAndDelete) {
  MTreeOptions options;
  options.node_size_bytes = 512;
  const auto data = GenerateClustered(600, 5, 223);
  MTree<StrTraits>* unused = nullptr;
  (void)unused;
  MTree<VecTraits> tree(LInfDistance{}, options);
  std::set<size_t> live;
  for (size_t i = 0; i < data.size(); ++i) {
    tree.Insert(data[i], i);
    live.insert(i);
    if (i % 3 == 2) {
      const size_t victim = *live.begin();
      ASSERT_TRUE(tree.Delete(data[victim], victim));
      live.erase(live.begin());
    }
  }
  EXPECT_EQ(tree.size(), live.size());
  const auto result = check::CheckMTree(tree);
  EXPECT_TRUE(result.ok()) << result.Summary();
  // Spot-check membership.
  for (size_t i : {*live.begin(), *live.rbegin()}) {
    const auto r = tree.RangeSearch(data[i], 0.0);
    EXPECT_TRUE(std::any_of(r.begin(), r.end(),
                            [&](const auto& res) { return res.oid == i; }));
  }
}

TEST(MTreeDelete, StringsUnderEditDistance) {
  MTreeOptions options;
  options.node_size_bytes = 512;
  const auto words = GenerateKeywords(400, 227);
  auto tree = MTree<StrTraits>::BulkLoad(words, EditDistanceMetric{}, options);
  for (size_t i = 0; i < 200; ++i) {
    ASSERT_TRUE(tree.Delete(words[i], i));
  }
  EXPECT_EQ(tree.size(), 200u);
  EXPECT_TRUE(check::CheckMTree(tree).ok());
  EXPECT_TRUE(tree.RangeSearch(words[0], 0.0).empty());
  EXPECT_FALSE(tree.RangeSearch(words[300], 0.0).empty());
}

TEST(MTreeDelete, EmptyTreeReturnsFalse) {
  MTree<VecTraits> tree(LInfDistance{}, MTreeOptions{});
  EXPECT_FALSE(tree.Delete({0.5f}, 0));
}

}  // namespace
}  // namespace mcm
