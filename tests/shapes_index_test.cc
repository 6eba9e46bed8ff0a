// End-to-end: the M-tree and cost models over a non-vector metric space —
// 2-d shapes under the Hausdorff distance (the paper's shape-matching
// motivation [15]).

#include <algorithm>

#include <gtest/gtest.h>

#include "mcm/cost/nmcm.h"
#include "mcm/dataset/shape_datasets.h"
#include "mcm/distribution/estimator.h"
#include "mcm/metric/set_metrics.h"
#include "mcm/mtree/bulk_load.h"
#include "mcm/check/check_mtree.h"

namespace mcm {
namespace {

TEST(ShapesIndex, RangeAndKnnMatchLinearScan) {
  MTreeOptions options;
  const auto shapes = GenerateShapes(400, 419);
  auto tree = MTree<PointSetTraits>::BulkLoad(shapes, HausdorffMetric{},
                                              options);
  EXPECT_TRUE(check::CheckMTree(tree).ok());

  const HausdorffMetric metric;
  const auto queries = GenerateShapeQueries(8, 419);
  for (const auto& q : queries) {
    for (double radius : {0.02, 0.05, 0.2}) {
      size_t expected = 0;
      for (const auto& s : shapes) expected += metric(q, s) <= radius ? 1 : 0;
      EXPECT_EQ(tree.RangeSearch(q, radius).size(), expected);
    }
    std::vector<double> all;
    for (const auto& s : shapes) all.push_back(metric(q, s));
    std::sort(all.begin(), all.end());
    const auto knn = tree.KnnSearch(q, 3);
    ASSERT_EQ(knn.size(), 3u);
    for (size_t i = 0; i < 3; ++i) {
      EXPECT_NEAR(knn[i].distance, all[i], 1e-9);
    }
  }
}

TEST(ShapesIndex, CostModelTracksMeasurement) {
  MTreeOptions options;
  const auto shapes = GenerateShapes(1500, 421);
  auto tree = MTree<PointSetTraits>::BulkLoad(shapes, HausdorffMetric{},
                                              options);
  // Hausdorff distances in [0,1]^2 are bounded by sqrt(2).
  const double d_plus = std::sqrt(2.0);
  EstimatorOptions eo;
  eo.num_bins = 100;
  eo.d_plus = d_plus;
  eo.max_pairs = 100000;
  const auto hist =
      EstimateDistanceDistribution(shapes, HausdorffMetric{}, eo);
  const NodeBasedCostModel model(hist, tree.CollectStats(d_plus));

  const auto queries = GenerateShapeQueries(60, 421);
  const double radius = 0.05;
  double nodes = 0.0, dists = 0.0;
  for (const auto& q : queries) {
    QueryStats stats;
    tree.RangeSearch(q, radius, &stats);
    nodes += static_cast<double>(stats.nodes_accessed);
    dists += static_cast<double>(stats.PricedDistances());
  }
  nodes /= static_cast<double>(queries.size());
  dists /= static_cast<double>(queries.size());
  EXPECT_NEAR(model.RangeNodes(radius), nodes, 0.30 * nodes + 1.0);
  EXPECT_NEAR(model.RangeDistances(radius), dists, 0.30 * dists + 5.0);
}

TEST(ShapesIndex, PagedStoreHandlesVariableSizeShapes) {
  MTreeOptions options;
  options.node_size_bytes = 4096;
  ShapeSpec spec;
  spec.points_per_shape = 16;
  const auto shapes = GenerateShapes(300, 431, spec);
  auto store = std::make_unique<PagedNodeStore<PointSetTraits>>(
      std::make_unique<InMemoryPageFile>(options.node_size_bytes), 64);
  auto tree = MTree<PointSetTraits>::BulkLoad(shapes, HausdorffMetric{},
                                              options, std::move(store));
  EXPECT_EQ(tree.size(), 300u);
  EXPECT_TRUE(check::CheckMTree(tree).ok());
  const auto r = tree.RangeSearch(shapes[0], 0.0);
  EXPECT_FALSE(r.empty());
}

}  // namespace
}  // namespace mcm
