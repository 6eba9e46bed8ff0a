// Section-5 vp-tree cost model tests: truncation/normalization (Eq. 22),
// boundary behavior, and predicted-vs-measured distance computations (the
// validation the paper defers to future work).

#include <gtest/gtest.h>

#include "mcm/bench_util/experiment.h"
#include "mcm/cost/vp_model.h"
#include "mcm/dataset/vector_datasets.h"
#include "mcm/distribution/estimator.h"
#include "mcm/metric/traits.h"
#include "mcm/vptree/vptree.h"

namespace mcm {
namespace {

using VecTraits = VectorTraits<LInfDistance>;

DistanceHistogram LinearHistogram() {
  std::vector<double> samples;
  for (int i = 1; i <= 1000; ++i) {
    samples.push_back(static_cast<double>(i) / 1000.0);
  }
  return DistanceHistogram(samples, 100, 1.0);
}

TEST(TruncateAndNormalize, RenormalizesMassBelowBound) {
  const auto h = LinearHistogram();  // Roughly uniform on [0, 1].
  const auto t = TruncateAndNormalize(h, 0.5);
  EXPECT_NEAR(t.Cdf(0.5), 1.0, 1e-9);
  EXPECT_NEAR(t.Cdf(0.25), 0.5, 0.02);
  EXPECT_DOUBLE_EQ(t.Cdf(0.9), 1.0);
  EXPECT_DOUBLE_EQ(t.d_plus(), 1.0);  // Domain unchanged, mass moved.
}

TEST(TruncateAndNormalize, BoundAboveDomainIsIdentity) {
  const auto h = LinearHistogram();
  const auto t = TruncateAndNormalize(h, 2.0);
  EXPECT_EQ(t.masses(), h.masses());
}

TEST(TruncateAndNormalize, PartialBinKeepsFraction) {
  // Two bins [0,1), [1,2), equal mass. Bound 1.5 keeps all of bin 0 and
  // half of bin 1 -> masses 2/3 and 1/3.
  const auto h = DistanceHistogram::FromMasses({0.5, 0.5}, 2.0);
  const auto t = TruncateAndNormalize(h, 1.5);
  EXPECT_NEAR(t.masses()[0], 2.0 / 3.0, 1e-9);
  EXPECT_NEAR(t.masses()[1], 1.0 / 3.0, 1e-9);
}

TEST(TruncateAndNormalize, DegenerateBoundYieldsPointMass) {
  // All mass above the bound: the subtree collapses to "everything at 0".
  const auto h = DistanceHistogram::FromMasses({0.0, 1.0}, 2.0);
  const auto t = TruncateAndNormalize(h, 0.5);
  EXPECT_NEAR(t.Cdf(1.0), 1.0, 1e-9);
  EXPECT_THROW(TruncateAndNormalize(h, 0.0), std::invalid_argument);
}

TEST(VpTreeCostModel, FullRadiusTouchesWholeTree) {
  const auto h = LinearHistogram();
  const VpTreeCostModel model(h, 1000);
  // r_Q = d⁺ forces every child probability to 1: the whole tree is
  // traversed, costing ~n distance computations (one per object).
  EXPECT_NEAR(model.RangeDistances(1.0), 1000.0, 30.0);
}

TEST(VpTreeCostModel, ZeroRadiusCostsAtLeastRootPath) {
  const auto h = LinearHistogram();
  const VpTreeCostModel model(h, 1024);
  const double d = model.RangeDistances(0.0);
  EXPECT_GE(d, 1.0);
  EXPECT_LT(d, 1024.0);
}

TEST(VpTreeCostModel, CostMonotoneInRadius) {
  const auto h = LinearHistogram();
  const VpTreeCostModel model(h, 500);
  double prev = 0.0;
  for (double r = 0.0; r <= 1.0; r += 0.1) {
    const double d = model.RangeDistances(r);
    EXPECT_GE(d, prev - 1e-9);
    prev = d;
  }
}

class VpModelValidation : public ::testing::TestWithParam<size_t> {};

TEST_P(VpModelValidation, PredictsMeasuredDistancesWithinBand) {
  const size_t arity = GetParam();
  const size_t n = 3000, D = 10;
  const auto data = GenerateUniform(n, D, 173);
  EstimatorOptions eo;
  eo.num_bins = 100;
  const auto h = EstimateDistanceDistribution(data, LInfDistance{}, eo);

  VpTreeOptions topt;
  topt.arity = arity;
  const VpTree<VecTraits> tree(data, LInfDistance{}, topt);

  VpCostModelOptions mopt;
  mopt.arity = arity;
  const VpTreeCostModel model(h, n, mopt);

  const auto queries =
      GenerateVectorQueries(VectorDatasetKind::kUniform, 100, D, 173);
  // Radius chosen to select ~0.5% of the data.
  const double rq = h.Quantile(0.005);
  const auto measured = MeasureRange(tree, queries, rq);
  const double predicted = model.RangeDistances(rq);
  // Model-only prediction (no tree statistics at all) of the plain tree
  // Section 5 describes: one vantage distance per node and the shell test
  // of Eq. 19. The data are seeded, so the error is deterministic (about
  // +3% at m=2 and m=4); a 10% band keeps the model honest.
  EXPECT_NEAR(predicted, measured.avg_dists, 0.10 * measured.avg_dists)
      << "arity=" << arity;
}

INSTANTIATE_TEST_SUITE_P(Arity, VpModelValidation, ::testing::Values(2, 4),
                         [](const auto& info) {
                           return "m" + std::to_string(info.param);
                         });

TEST(VpTreeCostModel, RejectsBadArguments) {
  const auto h = LinearHistogram();
  VpCostModelOptions bad;
  bad.arity = 1;
  EXPECT_THROW(VpTreeCostModel(h, 10, bad), std::invalid_argument);
  bad.arity = 2;
  bad.leaf_capacity = 0;
  EXPECT_THROW(VpTreeCostModel(h, 10, bad), std::invalid_argument);
  EXPECT_THROW(VpTreeCostModel(h, 0, VpCostModelOptions{}),
               std::invalid_argument);
}

}  // namespace
}  // namespace mcm
