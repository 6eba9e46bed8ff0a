// Multi-viewpoint model tests (future work #2): construction, the
// query-adapted distribution's sanity, and the headline property — on a
// non-homogeneous dataset, per-query cost estimates from the blended
// distribution beat the single global F.

#include <cmath>

#include <gtest/gtest.h>

#include "mcm/bench_util/experiment.h"
#include "mcm/common/numeric.h"
#include "mcm/cost/lmcm.h"
#include "mcm/cost/nmcm.h"
#include "mcm/dataset/vector_datasets.h"
#include "mcm/distribution/estimator.h"
#include "mcm/distribution/homogeneity.h"
#include "mcm/distribution/viewpoints.h"
#include "mcm/metric/traits.h"
#include "mcm/mtree/bulk_load.h"

namespace mcm {
namespace {

using VecTraits = VectorTraits<LInfDistance>;
using VecViewpoints = ViewpointSet<FloatVector, LInfDistance>;

TEST(ViewpointSet, BuildProducesRequestedViewpoints) {
  const auto data = GenerateUniform(500, 5, 257);
  ViewpointOptions options;
  options.num_viewpoints = 6;
  const auto set = VecViewpoints::Build(data, LInfDistance{}, options);
  EXPECT_EQ(set.viewpoints().size(), 6u);
  EXPECT_EQ(set.rdds().size(), 6u);
  for (const auto& rdd : set.rdds()) {
    EXPECT_EQ(rdd.num_bins(), options.num_bins);
    EXPECT_DOUBLE_EQ(rdd.d_plus(), options.d_plus);
  }
}

TEST(ViewpointSet, MaxMinViewpointsAreSpreadOut) {
  const auto data = GenerateNonHomogeneous(1000, 6, 263);
  ViewpointOptions options;
  options.num_viewpoints = 5;
  options.selection = ViewpointSelection::kMaxMin;
  const auto set = VecViewpoints::Build(data, LInfDistance{}, options);
  // Pairwise viewpoint distances should all be substantial.
  const LInfDistance metric;
  double min_pairwise = 1.0;
  for (size_t i = 0; i < set.viewpoints().size(); ++i) {
    for (size_t j = i + 1; j < set.viewpoints().size(); ++j) {
      min_pairwise = std::min(
          min_pairwise, metric(set.viewpoints()[i], set.viewpoints()[j]));
    }
  }
  EXPECT_GT(min_pairwise, 0.1);
}

TEST(ViewpointSet, QueryDistributionIsValidCdf) {
  const auto data = GenerateNonHomogeneous(800, 5, 269);
  ViewpointOptions options;
  const auto set = VecViewpoints::Build(data, LInfDistance{}, options);
  const auto queries = GenerateNonHomogeneousQueries(10, 5, 269);
  for (const auto& q : queries) {
    const auto hist = set.QueryDistribution(q);
    double prev = -1.0;
    for (double x = 0.0; x <= 1.0; x += 0.02) {
      const double f = hist.Cdf(x);
      EXPECT_GE(f, prev - 1e-12);
      EXPECT_GE(f, 0.0);
      EXPECT_LE(f, 1.0);
      prev = f;
    }
    EXPECT_DOUBLE_EQ(hist.Cdf(1.0), 1.0);
  }
}

TEST(ViewpointSet, QueryAtViewpointRecoversItsRdd) {
  const auto data = GenerateNonHomogeneous(800, 5, 271);
  ViewpointOptions options;
  options.num_viewpoints = 4;
  const auto set = VecViewpoints::Build(data, LInfDistance{}, options);
  // Blend of size 1 at an exact viewpoint = that viewpoint's own RDD.
  for (size_t v = 0; v < set.viewpoints().size(); ++v) {
    const auto hist = set.QueryDistribution(set.viewpoints()[v], 1);
    for (double x : {0.1, 0.3, 0.6}) {
      EXPECT_NEAR(hist.Cdf(x), set.rdds()[v].Cdf(x), 1e-9);
    }
  }
}

TEST(ViewpointSet, NonHomogeneousDatasetHasLowHv) {
  // Sanity: the stress dataset really is non-homogeneous.
  const auto data = GenerateNonHomogeneous(3000, 8, 277);
  HvOptions ho;
  ho.num_viewpoints = 80;
  ho.num_targets = 600;
  const auto hv = EstimateHomogeneity(data, LInfDistance{}, ho);
  EXPECT_LT(hv.hv, 0.85);

  const auto uniform = GenerateUniform(3000, 8, 277);
  const auto hv_uniform = EstimateHomogeneity(uniform, LInfDistance{}, ho);
  EXPECT_GT(hv_uniform.hv, hv.hv + 0.05);
}

TEST(ViewpointSet, QuerySensitiveBeatsGlobalFOnNonHomogeneousData) {
  // Note: the query-adapted distribution must be combined with N-MCM's
  // per-node radii — L-MCM's per-level average radii wash out exactly the
  // radius/position correlation (core nodes are tight, halo nodes wide)
  // that makes the non-homogeneous case hard. See bench/ext_multi_viewpoint.
  const size_t n = 4000, dim = 8;
  const auto data = GenerateNonHomogeneous(n, dim, 281);
  MTreeOptions topt;
  auto tree = MTree<VecTraits>::BulkLoad(data, LInfDistance{}, topt);
  const auto stats = tree.CollectStats(1.0);

  EstimatorOptions eo;
  eo.num_bins = 100;
  const auto global = EstimateDistanceDistribution(data, LInfDistance{}, eo);
  const NodeBasedCostModel global_model(global, stats);

  ViewpointOptions vo;
  vo.num_viewpoints = 16;
  const auto set = VecViewpoints::Build(data, LInfDistance{}, vo);

  const auto queries = GenerateNonHomogeneousQueries(60, dim, 281);
  const double rq = 0.08;
  double global_err = 0.0, blended_err = 0.0;
  for (const auto& q : queries) {
    QueryStats qs;
    tree.RangeSearch(q, rq, &qs);
    // The model prices computed + avoided evaluations.
    const double measured = static_cast<double>(qs.PricedDistances());
    const NodeBasedCostModel local_model(set.QueryDistribution(q), stats);
    global_err += RelativeError(global_model.RangeDistances(rq), measured);
    blended_err += RelativeError(local_model.RangeDistances(rq), measured);
  }
  global_err /= static_cast<double>(queries.size());
  blended_err /= static_cast<double>(queries.size());
  // The query-sensitive model must cut the mean per-query error notably.
  EXPECT_LT(blended_err, 0.9 * global_err)
      << "global=" << global_err << " blended=" << blended_err;
}

TEST(ViewpointSet, RejectsBadArguments) {
  const std::vector<FloatVector> one = {{0.5f}};
  EXPECT_THROW(
      VecViewpoints::Build(one, LInfDistance{}, ViewpointOptions{}),
      std::invalid_argument);
  const auto data = GenerateUniform(10, 2, 283);
  ViewpointOptions zero;
  zero.num_viewpoints = 0;
  EXPECT_THROW(VecViewpoints::Build(data, LInfDistance{}, zero),
               std::invalid_argument);
}

}  // namespace
}  // namespace mcm
