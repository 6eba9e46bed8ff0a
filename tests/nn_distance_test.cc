#include "mcm/cost/nn_distance.h"

#include <cmath>
#include <functional>

#include <gtest/gtest.h>

#include "mcm/dataset/vector_datasets.h"
#include "mcm/distribution/estimator.h"
#include "mcm/metric/vector_metrics.h"

namespace mcm {
namespace {

DistanceHistogram UniformishHistogram() {
  // A smooth synthetic F over [0, 1].
  std::vector<double> samples;
  for (int i = 1; i < 1000; ++i) {
    samples.push_back(std::sqrt(static_cast<double>(i) / 1000.0));
  }
  return DistanceHistogram(samples, 100, 1.0);
}

TEST(NnDistanceModel, ProbMatchesClosedFormForKOne) {
  const auto h = UniformishHistogram();
  const NnDistanceModel model(h, 500);
  for (double r = 0.05; r < 1.0; r += 0.1) {
    const double expected = 1.0 - std::pow(1.0 - h.Cdf(r), 500.0);
    EXPECT_NEAR(model.ProbNnWithin(r, 1), expected, 1e-10) << "r=" << r;
  }
}

TEST(NnDistanceModel, ProbMonotoneInRadiusAndK) {
  const auto h = UniformishHistogram();
  const NnDistanceModel model(h, 200);
  double prev = -1.0;
  for (double r = 0.0; r <= 1.0; r += 0.02) {
    const double p = model.ProbNnWithin(r, 3);
    EXPECT_GE(p, prev - 1e-12);
    prev = p;
  }
  for (size_t k = 1; k < 10; ++k) {
    EXPECT_GE(model.ProbNnWithin(0.3, k),
              model.ProbNnWithin(0.3, k + 1) - 1e-12);
  }
}

TEST(NnDistanceModel, ProbZeroBeyondDatasetSize) {
  const auto h = UniformishHistogram();
  const NnDistanceModel model(h, 10);
  EXPECT_DOUBLE_EQ(model.ProbNnWithin(0.5, 11), 0.0);
  EXPECT_GT(model.ProbNnWithin(1.0, 10), 0.99);
}

TEST(NnDistanceModel, ExpectedDistanceDecreasesWithN) {
  const auto h = UniformishHistogram();
  double prev = 2.0;
  for (size_t n : {10u, 100u, 1000u, 10000u}) {
    const NnDistanceModel model(h, n);
    const double e = model.ExpectedNnDistance(1);
    EXPECT_LT(e, prev);
    EXPECT_GT(e, 0.0);
    prev = e;
  }
}

TEST(NnDistanceModel, ExpectedDistanceIncreasesWithK) {
  const auto h = UniformishHistogram();
  const NnDistanceModel model(h, 1000);
  double prev = 0.0;
  for (size_t k : {1u, 2u, 5u, 10u, 50u}) {
    const double e = model.ExpectedNnDistance(k);
    EXPECT_GT(e, prev);
    prev = e;
  }
}

TEST(NnDistanceModel, ExpectedDistanceMatchesEmpiricalNn) {
  // Compare E[nn_{Q,1}] against a brute-force measurement on uniform data.
  const size_t n = 2000, D = 8;
  const auto data = GenerateUniform(n, D, 7);
  const auto queries =
      GenerateVectorQueries(VectorDatasetKind::kUniform, 150, D, 7);
  EstimatorOptions eo;
  eo.num_bins = 100;
  eo.d_plus = 1.0;
  const auto h = EstimateDistanceDistribution(data, LInfDistance{}, eo);
  const NnDistanceModel model(h, n);

  LInfDistance metric;
  double measured = 0.0;
  for (const auto& q : queries) {
    double best = 1.0;
    for (const auto& p : data) best = std::min(best, metric(q, p));
    measured += best;
  }
  measured /= static_cast<double>(queries.size());
  EXPECT_NEAR(model.ExpectedNnDistance(1), measured, 0.15 * measured + 0.01);
}

TEST(NnDistanceModel, RadiusForExpectedObjects) {
  const auto h = UniformishHistogram();
  const NnDistanceModel model(h, 1000);
  const double r1 = model.RadiusForExpectedObjects(1.0);
  EXPECT_NEAR(h.Cdf(r1) * 1000.0, 1.0, 1e-6);
  EXPECT_DOUBLE_EQ(model.RadiusForExpectedObjects(0.0), 0.0);
  EXPECT_DOUBLE_EQ(model.RadiusForExpectedObjects(2000.0), 1.0);
  EXPECT_GT(model.RadiusForExpectedObjects(100.0), r1);
}

TEST(NnDistanceModel, DensityIntegratesToOne) {
  const auto h = UniformishHistogram();
  for (size_t n : {10u, 1000u}) {
    const NnDistanceModel model(h, n);
    for (size_t k : {1u, 3u}) {
      const double mass = model.IntegrateAgainstNnDensity(
          [](double) { return 1.0; }, k);
      EXPECT_NEAR(mass, 1.0, 1e-6) << "n=" << n << " k=" << k;
    }
  }
}

TEST(NnDistanceModel, IntegralOfIdentityEqualsExpectedDistance) {
  const auto h = UniformishHistogram();
  const NnDistanceModel model(h, 500);
  const double via_integral = model.IntegrateAgainstNnDensity(
      [](double r) { return r; }, 1);
  EXPECT_NEAR(via_integral, model.ExpectedNnDistance(1), 1e-3);
}

TEST(NnDistanceModel, StableAtMillionObjects) {
  const auto h = UniformishHistogram();
  const NnDistanceModel model(h, 1000000);
  const double e = model.ExpectedNnDistance(1);
  EXPECT_TRUE(std::isfinite(e));
  EXPECT_GT(e, 0.0);
  EXPECT_LT(e, 0.05);
  // At n = 10^6 both E[nn_1] and E[nn_20] collapse onto the histogram's
  // first nonzero-F point (resolution limit), so only >= is guaranteed.
  const double e20 = model.ExpectedNnDistance(20);
  EXPECT_GE(e20, e - 1e-12);
}

// The integral summed over every grid cell, with no early exit.
double FullGridIntegral(const NnDistanceModel& model,
                        const std::function<double(double)>& g, size_t k) {
  const auto& grid = model.grid();
  double total = 0.0;
  double p_lo = model.ProbNnWithin(grid.front(), k);
  for (size_t i = 0; i + 1 < grid.size(); ++i) {
    const double p_hi = model.ProbNnWithin(grid[i + 1], k);
    const double mass = p_hi - p_lo;
    if (mass > 0.0) total += g(0.5 * (grid[i] + grid[i + 1])) * mass;
    p_lo = p_hi;
  }
  return total;
}

TEST(NnDistanceModel, EarlyExitMatchesFullGrid) {
  const auto h = UniformishHistogram();
  const size_t n = 300;
  const NnDistanceModel model(h, n);
  // P_{Q,1} reaches exactly 1 well inside the grid, so the exit is taken.
  ASSERT_EQ(model.ProbNnWithin(model.grid()[model.grid().size() / 2], 1),
            1.0);
  const auto g = [](double r) { return 1.0 + 3.0 * r * r; };
  for (size_t k : {size_t{1}, size_t{10}, n - 1, n, n + 1}) {
    const double reference = FullGridIntegral(model, g, k);
    EXPECT_NEAR(model.IntegrateAgainstNnDensity(g, k), reference,
                1e-12 * std::abs(reference))
        << "k=" << k;
  }
  // With k > n, P stays 0: no mass at all.
  EXPECT_EQ(model.IntegrateAgainstNnDensity(g, n + 1), 0.0);
}

TEST(NnDistanceModel, ConstructionErrors) {
  const auto h = UniformishHistogram();
  EXPECT_THROW(NnDistanceModel(h, 0), std::invalid_argument);
  EXPECT_THROW(NnDistanceModel(h, 10, 0), std::invalid_argument);
  const NnDistanceModel model(h, 10);
  EXPECT_THROW(model.ProbNnWithin(0.5, 0), std::invalid_argument);
}

}  // namespace
}  // namespace mcm
