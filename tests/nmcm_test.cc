// N-MCM tests: algebraic identities of Eqs. 6-8, boundary behavior, and
// model-vs-measured accuracy on seeded datasets (the paper reports <= 4%
// range errors for N-MCM; we assert a safe 20% band to stay robust across
// toolchains while still catching real regressions).

#include <cmath>
#include <limits>
#include <random>

#include <gtest/gtest.h>

#include "mcm/bench_util/experiment.h"
#include "mcm/common/numeric.h"
#include "mcm/cost/nmcm.h"
#include "mcm/dataset/vector_datasets.h"
#include "mcm/distribution/estimator.h"
#include "mcm/metric/traits.h"
#include "mcm/mtree/bulk_load.h"

namespace mcm {
namespace {

using VecTraits = VectorTraits<LInfDistance>;
constexpr double kInf = std::numeric_limits<double>::infinity();

struct Fixture {
  std::vector<FloatVector> data;
  std::vector<FloatVector> queries;
  MTree<VecTraits> tree;
  DistanceHistogram histogram;
  MTreeStatsView stats;

  static Fixture Make(size_t n, size_t dim, uint64_t seed,
                      VectorDatasetKind kind = VectorDatasetKind::kClustered) {
    MTreeOptions options;
    auto data = GenerateVectorDataset(kind, n, dim, seed);
    auto tree = MTree<VecTraits>::BulkLoad(data, LInfDistance{}, options);
    EstimatorOptions eo;
    eo.num_bins = 100;
    eo.d_plus = 1.0;
    auto hist = EstimateDistanceDistribution(data, LInfDistance{}, eo);
    auto stats = tree.CollectStats(1.0);
    return Fixture{std::move(data),
                   GenerateVectorQueries(kind, 200, dim, seed),
                   std::move(tree), std::move(hist), std::move(stats)};
  }
};

TEST(NodeBasedCostModel, FullRadiusAccessesEveryNode) {
  auto f = Fixture::Make(2000, 6, 103);
  const NodeBasedCostModel model(f.histogram, f.stats);
  // At r_Q = d⁺ every F(r_i + r_Q) = 1: all M nodes, all entries.
  EXPECT_NEAR(model.RangeNodes(1.0), static_cast<double>(f.stats.num_nodes()),
              1e-9);
  double total_entries = 0.0;
  for (const auto& node : f.stats.nodes) total_entries += node.num_entries;
  EXPECT_NEAR(model.RangeDistances(1.0), total_entries, 1e-9);
  EXPECT_NEAR(model.RangeObjects(1.0), 2000.0, 1e-9);
}

TEST(NodeBasedCostModel, CostsMonotoneInRadius) {
  auto f = Fixture::Make(2000, 8, 107);
  const NodeBasedCostModel model(f.histogram, f.stats);
  double prev_nodes = 0.0, prev_dists = 0.0;
  for (double r = 0.0; r <= 1.0; r += 0.05) {
    const double nodes = model.RangeNodes(r);
    const double dists = model.RangeDistances(r);
    EXPECT_GE(nodes, prev_nodes - 1e-12);
    EXPECT_GE(dists, prev_dists - 1e-12);
    prev_nodes = nodes;
    prev_dists = dists;
  }
  // The root is always accessed: F(d⁺ + r) = 1 even at r = 0.
  EXPECT_GE(model.RangeNodes(0.0), 1.0);
}

TEST(NodeBasedCostModel, RangeAccuracyOnClusteredData) {
  auto f = Fixture::Make(10000, 20, 1);
  const NodeBasedCostModel model(f.histogram, f.stats);
  const double rq = std::pow(0.01, 1.0 / 20.0) / 2.0;  // Paper's Fig. 1.
  const auto measured = MeasureRange(f.tree, f.queries, rq);
  EXPECT_NEAR(model.RangeNodes(rq), measured.avg_nodes,
              0.20 * measured.avg_nodes);
  EXPECT_NEAR(model.RangeDistances(rq), measured.avg_dists,
              0.20 * measured.avg_dists);
  EXPECT_NEAR(model.RangeObjects(rq), measured.avg_results,
              0.10 * measured.avg_results + 1.0);
}

TEST(NodeBasedCostModel, RangeAccuracyOnUniformData) {
  auto f = Fixture::Make(5000, 10, 3, VectorDatasetKind::kUniform);
  const NodeBasedCostModel model(f.histogram, f.stats);
  const double rq = std::pow(0.01, 1.0 / 10.0) / 2.0;
  const auto measured = MeasureRange(f.tree, f.queries, rq);
  EXPECT_NEAR(model.RangeNodes(rq), measured.avg_nodes,
              0.20 * measured.avg_nodes);
  EXPECT_NEAR(model.RangeDistances(rq), measured.avg_dists,
              0.20 * measured.avg_dists);
}

TEST(NodeBasedCostModel, NnAccuracyOnClusteredData) {
  auto f = Fixture::Make(10000, 20, 1);
  const NodeBasedCostModel model(f.histogram, f.stats);
  const auto measured = MeasureKnn(f.tree, f.queries, 1);
  // NN errors run higher than range errors (paper Fig. 2); allow 30%.
  EXPECT_NEAR(model.NnNodes(1), measured.avg_nodes,
              0.30 * measured.avg_nodes);
  EXPECT_NEAR(model.NnDistances(1), measured.avg_dists,
              0.30 * measured.avg_dists);
  EXPECT_NEAR(model.nn_model().ExpectedNnDistance(1),
              measured.avg_kth_distance,
              0.25 * measured.avg_kth_distance + 0.02);
}

TEST(NodeBasedCostModel, NnCostsIncreaseWithK) {
  auto f = Fixture::Make(3000, 10, 109);
  const NodeBasedCostModel model(f.histogram, f.stats);
  double prev_nodes = 0.0;
  for (size_t k : {1u, 5u, 20u, 100u}) {
    const double nodes = model.NnNodes(k);
    EXPECT_GT(nodes, prev_nodes);
    EXPECT_LE(nodes, static_cast<double>(f.stats.num_nodes()) + 1e-9);
    prev_nodes = nodes;
  }
}

TEST(NodeBasedCostModel, NnCostsForGeneralKMatchMeasurement) {
  auto f = Fixture::Make(5000, 12, 113);
  const NodeBasedCostModel model(f.histogram, f.stats);
  for (size_t k : {5u, 20u}) {
    const auto measured = MeasureKnn(f.tree, f.queries, k);
    EXPECT_NEAR(model.NnNodes(k), measured.avg_nodes,
                0.30 * measured.avg_nodes)
        << "k=" << k;
    EXPECT_NEAR(model.nn_model().ExpectedNnDistance(k),
                measured.avg_kth_distance,
                0.25 * measured.avg_kth_distance + 0.02)
        << "k=" << k;
  }
}

// Eqs. 6-7 summed node by node, per level (element l - 1) and in total:
// the reference the model's tables must reproduce.
struct PerNodeSums {
  double nodes = 0.0;
  double dists = 0.0;
  std::vector<double> level_nodes;
  std::vector<double> level_dists;
};

PerNodeSums SumPerNode(const DistanceHistogram& histogram,
                       const MTreeStatsView& stats, double radius) {
  PerNodeSums sums;
  sums.level_nodes.assign(stats.height, 0.0);
  sums.level_dists.assign(stats.height, 0.0);
  for (const auto& node : stats.nodes) {
    const double p = histogram.Cdf(node.covering_radius + radius);
    const double e = static_cast<double>(node.num_entries);
    sums.nodes += p;
    sums.dists += e * p;
    sums.level_nodes[node.level - 1] += p;
    sums.level_dists[node.level - 1] += e * p;
  }
  return sums;
}

TEST(NodeBasedCostModel, TablesEqualPerNodeSumsAtGridPoints) {
  auto f = Fixture::Make(2000, 8, 107);
  const NodeBasedCostModel model(f.histogram, f.stats);
  for (double x : model.nn_model().grid()) {
    const PerNodeSums ref = SumPerNode(f.histogram, f.stats, x);
    EXPECT_LE(RelativeError(model.RangeNodes(x), ref.nodes), 1e-12)
        << "x=" << x;
    EXPECT_LE(RelativeError(model.RangeDistances(x), ref.dists), 1e-12)
        << "x=" << x;
    const auto level_nodes = model.RangeNodesPerLevel(x);
    const auto level_dists = model.RangeDistancesPerLevel(x);
    ASSERT_EQ(level_nodes.size(), ref.level_nodes.size());
    ASSERT_EQ(level_dists.size(), ref.level_dists.size());
    for (size_t l = 0; l < level_nodes.size(); ++l) {
      EXPECT_LE(RelativeError(level_nodes[l], ref.level_nodes[l]), 1e-12)
          << "x=" << x << " level=" << l + 1;
      EXPECT_LE(RelativeError(level_dists[l], ref.level_dists[l]), 1e-12)
          << "x=" << x << " level=" << l + 1;
    }
  }
}

TEST(NodeBasedCostModel, TablesInterpolateBetweenGridPoints) {
  auto f = Fixture::Make(2000, 8, 107);
  const NodeBasedCostModel model(f.histogram, f.stats);
  std::mt19937_64 rng(2024);
  std::uniform_real_distribution<double> radius(0.0, 1.0);
  for (int i = 0; i < 2000; ++i) {
    const double x = radius(rng);
    const PerNodeSums ref = SumPerNode(f.histogram, f.stats, x);
    EXPECT_LE(RelativeError(model.RangeNodes(x), ref.nodes), 1e-4)
        << "x=" << x;
    EXPECT_LE(RelativeError(model.RangeDistances(x), ref.dists), 1e-4)
        << "x=" << x;
  }
}

TEST(NodeBasedCostModel, RadiiOutsideTheGridClamp) {
  auto f = Fixture::Make(2000, 8, 107);
  const NodeBasedCostModel model(f.histogram, f.stats);
  const double nodes = static_cast<double>(f.stats.num_nodes());
  double entries = 0.0;
  for (const auto& node : f.stats.nodes) entries += node.num_entries;
  // r >= d⁺ reads every node and compares every entry, exactly.
  for (double r : {1.0, 1.5, 1e300, kInf}) {
    EXPECT_EQ(model.RangeNodes(r), nodes) << "r=" << r;
    EXPECT_EQ(model.RangeDistances(r), entries) << "r=" << r;
  }
  // r < 0 and NaN price like r = 0.
  const double at_zero_nodes = model.RangeNodes(0.0);
  const double at_zero_dists = model.RangeDistances(0.0);
  for (double r : {-1e-9, -0.5, -kInf, std::nan("")}) {
    EXPECT_EQ(model.RangeNodes(r), at_zero_nodes) << "r=" << r;
    EXPECT_EQ(model.RangeDistances(r), at_zero_dists) << "r=" << r;
    EXPECT_EQ(model.RangeNodesPerLevel(r), model.RangeNodesPerLevel(0.0));
  }
}

TEST(NodeBasedCostModel, PerLevelTablesSumToTotals) {
  auto f = Fixture::Make(2000, 8, 107);
  const NodeBasedCostModel model(f.histogram, f.stats);
  const auto sum = [](const std::vector<double>& v) {
    double total = 0.0;
    for (double x : v) total += x;
    return total;
  };
  for (double r = 0.0; r <= 1.0; r += 0.0137) {
    EXPECT_LE(RelativeError(sum(model.RangeNodesPerLevel(r)),
                            model.RangeNodes(r)),
              1e-9)
        << "r=" << r;
    EXPECT_LE(RelativeError(sum(model.RangeDistancesPerLevel(r)),
                            model.RangeDistances(r)),
              1e-9)
        << "r=" << r;
  }
  for (size_t k : {1u, 10u, 100u}) {
    EXPECT_LE(RelativeError(sum(model.NnNodesPerLevel(k)), model.NnNodes(k)),
              1e-9)
        << "k=" << k;
    EXPECT_LE(RelativeError(sum(model.NnDistancesPerLevel(k)),
                            model.NnDistances(k)),
              1e-9)
        << "k=" << k;
  }
}

}  // namespace
}  // namespace mcm
