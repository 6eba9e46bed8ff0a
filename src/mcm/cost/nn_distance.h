// Nearest-neighbor distance model (Section 3.1, Eqs. 9-14): the
// distribution of the distance between a query object and its k-th nearest
// neighbor, derived solely from the overall distance distribution F and the
// dataset size n. Also provides the numeric machinery shared by both cost
// models: integration of an arbitrary cost function against the k-NN
// distance density.

#ifndef MCM_COST_NN_DISTANCE_H_
#define MCM_COST_NN_DISTANCE_H_

#include <cstddef>
#include <functional>
#include <vector>

#include "mcm/distribution/histogram.h"

namespace mcm {

/// Model of nn_{Q,k}, the k-th NN distance of a random query object, under
/// Assumption 1 (F_Q ≈ F̂ⁿ).
class NnDistanceModel {
 public:
  /// `histogram` is copied; `n` is the number of indexed objects;
  /// `grid_refinement` subdivides each histogram bin for the integrals.
  NnDistanceModel(const DistanceHistogram& histogram, size_t n,
                  size_t grid_refinement = 8);

  /// P_{Q,k}(r) (Eq. 9): probability that at least k objects lie within
  /// distance r of the query.
  double ProbNnWithin(double r, size_t k) const;

  /// E[nn_{Q,k}] (Eq. 11): expected k-th NN distance,
  /// d⁺ − ∫ P_{Q,k}(r) dr.
  double ExpectedNnDistance(size_t k) const;

  /// r(c): the smallest radius whose expected result size n·F(r) reaches
  /// `count` (the paper's r(1) estimator uses count = 1).
  double RadiusForExpectedObjects(double count) const;

  /// ∫ g(r) p_{Q,k}(r) dr, evaluated as Σ g(mid) · ΔP over a fine grid —
  /// using exact probability masses of P instead of the density (Eq. 10)
  /// keeps the computation stable for n up to 10⁶. The sum stops at the
  /// first grid point where P_{Q,k} reaches exactly 1.
  double IntegrateAgainstNnDensity(const std::function<double(double)>& g,
                                   size_t k) const;

  size_t n() const { return n_; }
  const DistanceHistogram& histogram() const { return histogram_; }
  const std::vector<double>& grid() const { return grid_; }

 private:
  DistanceHistogram histogram_;
  size_t n_;
  std::vector<double> grid_;  ///< Uniform r-grid over [0, d⁺].
};

}  // namespace mcm

#endif  // MCM_COST_NN_DISTANCE_H_
