// Fuzzy dictionary: the paper's motivating application (Section 1) —
// given a large set of keywords under the edit distance, find the words
// closest to a (possibly misspelled) query, and *predict the cost before
// running the query*, the way a query optimizer would.

#include <cstdio>
#include <string>

#include "mcm/cost/nmcm.h"
#include "mcm/dataset/text_datasets.h"
#include "mcm/distribution/estimator.h"
#include "mcm/metric/traits.h"
#include "mcm/mtree/bulk_load.h"

int main(int argc, char** argv) {
  using namespace mcm;
  using Traits = StringTraits<EditDistanceMetric>;

  // A 15k-word Italian-like vocabulary (stands in for the paper's keyword
  // sets extracted from Italian literature).
  const auto words = GenerateKeywords(15000, /*seed=*/42);
  MTreeOptions options;
  auto tree = MTree<Traits>::BulkLoad(words, EditDistanceMetric{}, options);

  EstimatorOptions eo;
  eo.num_bins = 25;  // Edit distances here never exceed 25.
  eo.d_plus = 25.0;
  const auto histogram =
      EstimateDistanceDistribution(words, EditDistanceMetric{}, eo);
  const NodeBasedCostModel model(histogram, tree.CollectStats(25.0));

  const std::string query = argc > 1 ? argv[1] : "parolla";  // A misspelling.
  std::printf("dictionary: %zu words in %zu nodes (4 KB each)\n",
              tree.size(), tree.store().NumNodes());

  // The optimizer's view: what will this query cost?
  std::printf("\npredicted cost of range('%s', 2): %.0f node reads, %.0f "
              "edit-distance computations, ~%.1f matches\n",
              query.c_str(), model.RangeNodes(2.0), model.RangeDistances(2.0),
              model.RangeObjects(2.0));
  std::printf("predicted cost of NN('%s', 20): %.0f node reads, %.0f "
              "edit-distance computations (the paper's '20 nearest "
              "keywords' question)\n",
              query.c_str(), model.NnNodes(20), model.NnDistances(20));

  // Now actually run them.
  QueryStats stats;
  const auto near = tree.RangeSearch(query, 2.0, &stats);
  // Measured distances: computed + avoided by the parent-distance filter,
  // the count the model prices.
  std::printf("\nwords within edit distance 2 of '%s' (measured: %llu "
              "reads, %llu distances + %llu avoided):\n",
              query.c_str(),
              static_cast<unsigned long long>(stats.nodes_accessed),
              static_cast<unsigned long long>(stats.distance_computations),
              static_cast<unsigned long long>(
                  stats.distance_calcs_avoided_by_witness));
  for (size_t i = 0; i < near.size() && i < 8; ++i) {
    std::printf("  %-20s (distance %.0f)\n", near[i].object.c_str(),
                near[i].distance);
  }
  if (near.empty()) {
    std::printf("  (none)\n");
  }

  const auto knn = tree.KnnSearch(query, 5, &stats);
  std::printf("\n5 nearest words to '%s' (measured: %llu reads, %llu "
              "distances + %llu avoided):\n",
              query.c_str(),
              static_cast<unsigned long long>(stats.nodes_accessed),
              static_cast<unsigned long long>(stats.distance_computations),
              static_cast<unsigned long long>(
                  stats.distance_calcs_avoided_by_witness));
  for (const auto& r : knn) {
    std::printf("  %-20s (distance %.0f)\n", r.object.c_str(), r.distance);
  }
  return 0;
}
