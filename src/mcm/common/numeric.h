// Numerical kernels used by the cost models: stable binomial tail
// probabilities (Eq. 9 of the paper with n up to 10^6), log-space binomial
// coefficients, and composite trapezoid integration on uniform grids.

#ifndef MCM_COMMON_NUMERIC_H_
#define MCM_COMMON_NUMERIC_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace mcm {

/// Natural log of the binomial coefficient C(n, k). Exact for k==0 / k==n,
/// computed via lgamma otherwise (the reentrant form, so concurrent callers
/// are safe). Requires 0 <= k <= n.
double LogBinomial(uint64_t n, uint64_t k);

/// Lower binomial tail: sum_{i=0}^{k-1} C(n,i) p^i (1-p)^{n-i}.
///
/// This is `1 - P_{Q,k}(r)` in Eq. 9 with p = F(r). Evaluated in log space
/// term by term so it stays accurate for n = 10^6 and p close to 0 or 1.
/// Requires k >= 1; p is clamped to [0, 1].
double BinomialLowerTail(uint64_t n, uint64_t k, double p);

/// Composite trapezoid integral of `f` over [a, b] using `steps` uniform
/// intervals (so `steps + 1` evaluations). Requires steps >= 1 and a <= b.
double TrapezoidIntegrate(const std::function<double(double)>& f, double a,
                          double b, size_t steps);

/// Trapezoid integral of pre-sampled values on a uniform grid with spacing
/// `dx`. Returns 0 for fewer than two samples.
double TrapezoidIntegrate(const std::vector<double>& values, double dx);

/// Clamps x into [lo, hi].
inline double Clamp(double x, double lo, double hi) {
  return x < lo ? lo : (x > hi ? hi : x);
}

/// Relative error of an estimate against a reference value, |est-ref|/ref.
/// Falls back to the absolute error when the reference is zero.
double RelativeError(double estimate, double reference);

}  // namespace mcm

#endif  // MCM_COMMON_NUMERIC_H_
