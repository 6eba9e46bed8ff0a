#include "mcm/cost/nn_distance.h"

#include <stdexcept>

#include "mcm/common/numeric.h"

namespace mcm {

NnDistanceModel::NnDistanceModel(const DistanceHistogram& histogram, size_t n,
                                 size_t grid_refinement)
    : histogram_(histogram), n_(n) {
  if (n == 0) {
    throw std::invalid_argument("NnDistanceModel: n must be > 0");
  }
  if (grid_refinement == 0) {
    throw std::invalid_argument("NnDistanceModel: refinement must be > 0");
  }
  const size_t points = histogram_.num_bins() * grid_refinement + 1;
  grid_.resize(points);
  const double step =
      histogram_.d_plus() / static_cast<double>(points - 1);
  for (size_t i = 0; i < points; ++i) {
    grid_[i] = step * static_cast<double>(i);
  }
  grid_.back() = histogram_.d_plus();
}

double NnDistanceModel::ProbNnWithin(double r, size_t k) const {
  if (k == 0) {
    throw std::invalid_argument("NnDistanceModel: k must be >= 1");
  }
  if (k > n_) {
    return 0.0;  // Fewer than k objects exist.
  }
  return 1.0 - BinomialLowerTail(n_, k, histogram_.Cdf(r));
}

double NnDistanceModel::ExpectedNnDistance(size_t k) const {
  // E[nn] = d⁺ − ∫₀^{d⁺} P_{Q,k}(r) dr  (Eq. 11).
  std::vector<double> values(grid_.size());
  for (size_t i = 0; i < grid_.size(); ++i) {
    values[i] = ProbNnWithin(grid_[i], k);
  }
  const double dx = grid_[1] - grid_[0];
  return histogram_.d_plus() - TrapezoidIntegrate(values, dx);
}

double NnDistanceModel::RadiusForExpectedObjects(double count) const {
  if (count <= 0.0) {
    return 0.0;
  }
  const double p = count / static_cast<double>(n_);
  if (p >= 1.0) {
    return histogram_.d_plus();
  }
  return histogram_.Quantile(p);
}

double NnDistanceModel::IntegrateAgainstNnDensity(
    const std::function<double(double)>& g, size_t k) const {
  double total = 0.0;
  double p_lo = ProbNnWithin(grid_.front(), k);
  // Once P_{Q,k} reaches 1 every later mass is 0: stop there.
  for (size_t i = 0; i + 1 < grid_.size() && p_lo < 1.0; ++i) {
    const double p_hi = ProbNnWithin(grid_[i + 1], k);
    const double mass = p_hi - p_lo;
    if (mass > 0.0) {
      total += g(0.5 * (grid_[i] + grid_[i + 1])) * mass;
    }
    p_lo = p_hi;
  }
  return total;
}

}  // namespace mcm
