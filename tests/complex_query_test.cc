// Complex similarity queries (future work #3): conjunctive/disjunctive
// multi-predicate range search — exactness against a linear scan, cost
// counters, and the independence-based cost-model extension.

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "mcm/cost/nmcm.h"
#include "mcm/dataset/vector_datasets.h"
#include "mcm/distribution/estimator.h"
#include "mcm/metric/traits.h"
#include "mcm/mtree/bulk_load.h"

namespace mcm {
namespace {

using VecTraits = VectorTraits<LInfDistance>;
using Tree = MTree<VecTraits>;

struct Fixture {
  std::vector<FloatVector> data;
  Tree tree;

  static Fixture Make(size_t n, size_t dim, uint64_t seed) {
    MTreeOptions options;
    options.node_size_bytes = 1024;
    auto data = GenerateClustered(n, dim, seed);
    auto tree = Tree::BulkLoad(data, LInfDistance{}, options);
    return Fixture{std::move(data), std::move(tree)};
  }
};

TEST(ComplexRangeSearch, ConjunctionMatchesLinearScan) {
  auto f = Fixture::Make(800, 6, 373);
  const auto queries =
      GenerateVectorQueries(VectorDatasetKind::kClustered, 12, 6, 373);
  const LInfDistance metric;
  for (size_t q = 0; q + 1 < queries.size(); q += 2) {
    const std::vector<Tree::Predicate> preds = {{queries[q], 0.3},
                                                {queries[q + 1], 0.35}};
    const auto got = f.tree.ComplexRangeSearch(preds, Tree::Combine::kAnd);
    size_t expected = 0;
    for (const auto& o : f.data) {
      if (metric(o, preds[0].query) <= preds[0].radius &&
          metric(o, preds[1].query) <= preds[1].radius) {
        ++expected;
      }
    }
    EXPECT_EQ(got.size(), expected);
    // Sorted by combined (max) distance.
    for (size_t i = 1; i < got.size(); ++i) {
      EXPECT_GE(got[i].distance, got[i - 1].distance);
    }
    // Combined distance really is the max over predicates.
    for (const auto& r : got) {
      EXPECT_NEAR(r.distance,
                  std::max(metric(r.object, preds[0].query),
                           metric(r.object, preds[1].query)),
                  1e-9);
    }
  }
}

TEST(ComplexRangeSearch, DisjunctionMatchesLinearScan) {
  auto f = Fixture::Make(800, 6, 379);
  const auto queries =
      GenerateVectorQueries(VectorDatasetKind::kClustered, 12, 6, 379);
  const LInfDistance metric;
  for (size_t q = 0; q + 1 < queries.size(); q += 2) {
    const std::vector<Tree::Predicate> preds = {{queries[q], 0.1},
                                                {queries[q + 1], 0.15}};
    const auto got = f.tree.ComplexRangeSearch(preds, Tree::Combine::kOr);
    size_t expected = 0;
    for (const auto& o : f.data) {
      if (metric(o, preds[0].query) <= preds[0].radius ||
          metric(o, preds[1].query) <= preds[1].radius) {
        ++expected;
      }
    }
    EXPECT_EQ(got.size(), expected);
  }
}

TEST(ComplexRangeSearch, SinglePredicateEqualsPlainRange) {
  auto f = Fixture::Make(500, 5, 383);
  const auto queries =
      GenerateVectorQueries(VectorDatasetKind::kClustered, 5, 5, 383);
  for (const auto& q : queries) {
    QueryStats plain_stats, complex_stats;
    const auto plain = f.tree.RangeSearch(q, 0.2, &plain_stats);
    const auto complex = f.tree.ComplexRangeSearch(
        {{q, 0.2}}, Tree::Combine::kAnd, &complex_stats);
    ASSERT_EQ(plain.size(), complex.size());
    for (size_t i = 0; i < plain.size(); ++i) {
      EXPECT_EQ(plain[i].oid, complex[i].oid);
    }
    // Same I/O; same CPU (one predicate = one distance per entry), which
    // the plain search splits into computed + avoided.
    EXPECT_EQ(plain_stats.nodes_accessed, complex_stats.nodes_accessed);
    EXPECT_EQ(plain_stats.PricedDistances(),
              complex_stats.distance_computations);
  }
}

TEST(ComplexRangeSearch, ConjunctionAccessesFewerNodesThanEitherPredicate) {
  auto f = Fixture::Make(2000, 8, 389);
  const auto queries =
      GenerateVectorQueries(VectorDatasetKind::kClustered, 10, 8, 389);
  for (size_t q = 0; q + 1 < queries.size(); q += 2) {
    const std::vector<Tree::Predicate> preds = {{queries[q], 0.25},
                                                {queries[q + 1], 0.25}};
    QueryStats and_stats, or_stats, p0_stats, p1_stats;
    f.tree.ComplexRangeSearch(preds, Tree::Combine::kAnd, &and_stats);
    f.tree.ComplexRangeSearch(preds, Tree::Combine::kOr, &or_stats);
    f.tree.RangeSearch(preds[0].query, preds[0].radius, &p0_stats);
    f.tree.RangeSearch(preds[1].query, preds[1].radius, &p1_stats);
    EXPECT_LE(and_stats.nodes_accessed,
              std::min(p0_stats.nodes_accessed, p1_stats.nodes_accessed));
    EXPECT_GE(or_stats.nodes_accessed,
              std::max(p0_stats.nodes_accessed, p1_stats.nodes_accessed));
    // OR does one traversal, never worse than the two separate queries.
    EXPECT_LE(or_stats.nodes_accessed,
              p0_stats.nodes_accessed + p1_stats.nodes_accessed);
  }
}

TEST(ComplexRangeSearch, EmptyPredicatesAndEmptyTree) {
  auto f = Fixture::Make(100, 4, 397);
  EXPECT_TRUE(f.tree.ComplexRangeSearch({}, Tree::Combine::kAnd).empty());
  Tree empty(LInfDistance{}, MTreeOptions{});
  EXPECT_TRUE(empty
                  .ComplexRangeSearch({{FloatVector{0.5f, 0.5f, 0.5f, 0.5f},
                                        1.0}},
                                      Tree::Combine::kOr)
                  .empty());
}

TEST(ComplexCostModel, PredictsMeasuredCosts) {
  const size_t n = 6000, dim = 8;
  const auto data = GenerateClustered(n, dim, 401);
  MTreeOptions options;
  auto tree = Tree::BulkLoad(data, LInfDistance{}, options);
  EstimatorOptions eo;
  eo.num_bins = 100;
  const auto hist = EstimateDistanceDistribution(data, LInfDistance{}, eo);
  const NodeBasedCostModel model(hist, tree.CollectStats(1.0));

  const auto queries =
      GenerateVectorQueries(VectorDatasetKind::kClustered, 100, dim, 401);
  const std::vector<double> radii = {0.25, 0.3};
  for (const bool conjunctive : {true, false}) {
    double nodes = 0.0, dists = 0.0, objs = 0.0;
    for (size_t q = 0; q + 1 < queries.size(); q += 2) {
      const std::vector<Tree::Predicate> preds = {{queries[q], radii[0]},
                                                  {queries[q + 1], radii[1]}};
      QueryStats stats;
      const auto result = tree.ComplexRangeSearch(
          preds, conjunctive ? Tree::Combine::kAnd : Tree::Combine::kOr,
          &stats);
      nodes += static_cast<double>(stats.nodes_accessed);
      dists += static_cast<double>(stats.distance_computations);
      objs += static_cast<double>(result.size());
    }
    const double pairs = static_cast<double>(queries.size() / 2);
    nodes /= pairs;
    dists /= pairs;
    objs /= pairs;
    // Independence-based estimate: 40% band for the cost counters. The
    // result-cardinality estimate is cruder — membership in two different
    // clusters is negatively correlated on clustered data — so it only
    // gets an order-of-magnitude band (documented model limitation; see
    // bench/ext_complex_queries).
    EXPECT_NEAR(model.ComplexRangeNodes(radii, conjunctive), nodes,
                0.40 * nodes + 2.0)
        << conjunctive;
    EXPECT_NEAR(model.ComplexRangeDistances(radii, conjunctive), dists,
                0.40 * dists + 10.0)
        << conjunctive;
    const double est_objs = model.ComplexRangeObjects(radii, conjunctive);
    EXPECT_GT(est_objs, objs / 3.0) << conjunctive;
    EXPECT_LT(est_objs, objs * 3.0 + 3.0) << conjunctive;
  }
}

TEST(ComplexCostModel, ReducesToPlainRangeForOnePredicate) {
  const auto data = GenerateClustered(2000, 6, 409);
  MTreeOptions options;
  auto tree = Tree::BulkLoad(data, LInfDistance{}, options);
  EstimatorOptions eo;
  eo.num_bins = 100;
  const auto hist = EstimateDistanceDistribution(data, LInfDistance{}, eo);
  const NodeBasedCostModel model(hist, tree.CollectStats(1.0));
  for (double r : {0.1, 0.3}) {
    EXPECT_NEAR(model.ComplexRangeNodes({r}, true), model.RangeNodes(r),
                1e-9);
    EXPECT_NEAR(model.ComplexRangeNodes({r}, false), model.RangeNodes(r),
                1e-9);
    EXPECT_NEAR(model.ComplexRangeDistances({r}, true),
                model.RangeDistances(r), 1e-9);
    EXPECT_NEAR(model.ComplexRangeObjects({r}, true), model.RangeObjects(r),
                1e-9);
  }
}

}  // namespace
}  // namespace mcm
