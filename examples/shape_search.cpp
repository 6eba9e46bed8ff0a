// Shape matching: similarity search in a genuinely non-vector metric space.
// 2-d contours are compared with the Hausdorff distance (the paper's
// shape-matching motivation, Huttenlocher et al.) — there are no
// coordinates the index could use, only distances, which is exactly the
// regime the M-tree and its cost model were designed for.

#include <cstdio>

#include "mcm/cost/nmcm.h"
#include "mcm/dataset/shape_datasets.h"
#include "mcm/distribution/estimator.h"
#include "mcm/metric/set_metrics.h"
#include "mcm/mtree/bulk_load.h"

int main() {
  using namespace mcm;

  // A library of 5000 contour shapes from 20 families.
  const auto shapes = GenerateShapes(5000, /*seed=*/42);
  MTreeOptions options;
  auto tree =
      MTree<PointSetTraits>::BulkLoad(shapes, HausdorffMetric{}, options);
  std::printf("indexed %zu shapes (%zu contour points each) in %zu nodes\n",
              tree.size(), shapes[0].size(), tree.store().NumNodes());

  // Cost model over the Hausdorff distance distribution.
  const double d_plus = std::sqrt(2.0);  // Max Hausdorff distance in [0,1]^2.
  EstimatorOptions eo;
  eo.num_bins = 100;
  eo.d_plus = d_plus;
  eo.max_pairs = 200000;
  const auto histogram =
      EstimateDistanceDistribution(shapes, HausdorffMetric{}, eo);
  const NodeBasedCostModel model(histogram, tree.CollectStats(d_plus));

  // A query contour: same family mixture, fresh noise (a "sketch" of one
  // of the library's shape families).
  const PointSet query = GenerateShapeQueries(1, 42)[0];

  std::printf("\npredicted NN(Q, 5): %.0f node reads, %.0f Hausdorff "
              "evaluations, E[nn_5] = %.4f\n",
              model.NnNodes(5), model.NnDistances(5),
              model.nn_model().ExpectedNnDistance(5));

  QueryStats stats;
  const auto matches = tree.KnnSearch(query, 5, &stats);
  // The model prices computed + avoided (parent-distance filter) evaluations.
  std::printf("measured:           %llu node reads, %llu Hausdorff "
              "evaluations + %llu avoided\n",
              static_cast<unsigned long long>(stats.nodes_accessed),
              static_cast<unsigned long long>(stats.distance_computations),
              static_cast<unsigned long long>(
                  stats.distance_calcs_avoided_by_witness));
  std::printf("\n5 most similar shapes:\n");
  for (const auto& m : matches) {
    std::printf("  shape #%llu at Hausdorff distance %.4f\n",
                static_cast<unsigned long long>(m.oid), m.distance);
  }

  // Versus the brute force alternative.
  std::printf("\n(a linear scan would compute %zu Hausdorff distances: "
              "%.1fx more)\n",
              shapes.size(),
              static_cast<double>(shapes.size()) /
                  static_cast<double>(stats.distance_computations));
  return 0;
}
