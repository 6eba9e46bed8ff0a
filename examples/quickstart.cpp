// Quickstart: index a vector dataset with the M-tree, run similarity
// queries, and predict their costs with the paper's cost models — all in
// ~60 lines of user code.
//
//   1. generate (or load) objects from a metric space;
//   2. bulk-load an M-tree;
//   3. estimate the distance distribution F̂ⁿ (the only statistic the cost
//      models need about the data);
//   4. predict range/k-NN costs with N-MCM, then run the queries and
//      compare.

#include <cstdio>

#include "mcm/bench_util/experiment.h"
#include "mcm/cost/nmcm.h"
#include "mcm/dataset/vector_datasets.h"
#include "mcm/distribution/estimator.h"
#include "mcm/metric/traits.h"
#include "mcm/mtree/bulk_load.h"

int main() {
  using namespace mcm;
  using Traits = VectorTraits<LInfDistance>;

  // 1. A metric dataset: 20000 clustered points in [0,1]^10 under L-inf.
  const size_t n = 20000, dim = 10;
  const auto objects = GenerateClustered(n, dim, /*seed=*/7);

  // 2. Bulk-load a paged M-tree (4 KB nodes by default).
  MTreeOptions options;
  auto tree = MTree<Traits>::BulkLoad(objects, LInfDistance{}, options);
  std::printf("indexed %zu objects in %zu nodes, height %u\n", tree.size(),
              tree.store().NumNodes(), tree.height());

  // 3. Estimate the distance distribution (100-bin histogram, d+ = 1).
  EstimatorOptions eo;
  eo.num_bins = 100;
  eo.d_plus = 1.0;
  const auto histogram =
      EstimateDistanceDistribution(objects, LInfDistance{}, eo);

  // 4. The node-based cost model, fed with the tree's statistics.
  const NodeBasedCostModel model(histogram, tree.CollectStats(/*d+=*/1.0));

  const double radius = 0.15;
  std::printf("\nrange(Q, %.2f) predictions: %.1f node reads, %.1f distance "
              "computations, %.1f results\n",
              radius, model.RangeNodes(radius), model.RangeDistances(radius),
              model.RangeObjects(radius));

  const FloatVector query = objects[123];  // Any object of the space works.
  QueryStats stats;
  const auto results = tree.RangeSearch(query, radius, &stats);
  // The model prices every entry of every node read: the distances the
  // search computed plus those its parent-distance filter avoided.
  std::printf("one measured query:       %llu node reads, %llu distance "
              "computations + %llu avoided, %zu results\n",
              static_cast<unsigned long long>(stats.nodes_accessed),
              static_cast<unsigned long long>(stats.distance_computations),
              static_cast<unsigned long long>(
                  stats.distance_calcs_avoided_by_witness),
              results.size());

  std::printf("\nNN(Q, 10) predictions: %.1f node reads, %.1f distance "
              "computations, E[nn_10] = %.3f\n",
              model.NnNodes(10), model.NnDistances(10),
              model.nn_model().ExpectedNnDistance(10));
  const auto knn = tree.KnnSearch(query, 10, &stats);
  std::printf("one measured query:    %llu node reads, %llu distance "
              "computations + %llu avoided, 10th NN at %.3f\n",
              static_cast<unsigned long long>(stats.nodes_accessed),
              static_cast<unsigned long long>(stats.distance_computations),
              static_cast<unsigned long long>(
                  stats.distance_calcs_avoided_by_witness),
              knn.back().distance);
  return 0;
}
