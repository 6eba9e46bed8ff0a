#include "mcm/common/numeric.h"

#include <cmath>
#include <cstdint>
#include <math.h>
#include <stdexcept>

namespace mcm {

namespace {

// lgamma stores the sign of Γ(x) in the global `signgam`, a data race when
// cost models integrate on several threads at once (the shard router
// prices shards from concurrent queries). lgamma_r returns the same value
// and writes the sign to a local instead.
double LogGamma(double x) {
  int sign = 0;
  return ::lgamma_r(x, &sign);
}

}  // namespace

double LogBinomial(uint64_t n, uint64_t k) {
  if (k > n) {
    throw std::invalid_argument("LogBinomial: k > n");
  }
  if (k == 0 || k == n) {
    return 0.0;
  }
  return LogGamma(static_cast<double>(n) + 1.0) -
         LogGamma(static_cast<double>(k) + 1.0) -
         LogGamma(static_cast<double>(n - k) + 1.0);
}

double BinomialLowerTail(uint64_t n, uint64_t k, double p) {
  if (k == 0) {
    throw std::invalid_argument("BinomialLowerTail: k must be >= 1");
  }
  p = Clamp(p, 0.0, 1.0);
  if (p == 0.0) {
    return 1.0;  // All mass at i = 0, which is inside the tail.
  }
  if (p == 1.0) {
    // All mass at i = n; the tail covers i < k, so it is empty unless k > n.
    return k > n ? 1.0 : 0.0;
  }
  const double log_p = std::log(p);
  const double log_q = std::log1p(-p);
  double sum = 0.0;
  const uint64_t top = std::min<uint64_t>(k - 1, n);
  for (uint64_t i = 0; i <= top; ++i) {
    const double log_term = LogBinomial(n, i) +
                            static_cast<double>(i) * log_p +
                            static_cast<double>(n - i) * log_q;
    sum += std::exp(log_term);
  }
  return Clamp(sum, 0.0, 1.0);
}

double TrapezoidIntegrate(const std::function<double(double)>& f, double a,
                          double b, size_t steps) {
  if (steps == 0) {
    throw std::invalid_argument("TrapezoidIntegrate: steps must be >= 1");
  }
  if (b <= a) {
    return 0.0;
  }
  const double dx = (b - a) / static_cast<double>(steps);
  double sum = 0.5 * (f(a) + f(b));
  for (size_t i = 1; i < steps; ++i) {
    sum += f(a + dx * static_cast<double>(i));
  }
  return sum * dx;
}

double TrapezoidIntegrate(const std::vector<double>& values, double dx) {
  if (values.size() < 2) {
    return 0.0;
  }
  double sum = 0.5 * (values.front() + values.back());
  for (size_t i = 1; i + 1 < values.size(); ++i) {
    sum += values[i];
  }
  return sum * dx;
}

double RelativeError(double estimate, double reference) {
  const double diff = std::fabs(estimate - reference);
  if (reference == 0.0) {
    return diff;
  }
  return diff / std::fabs(reference);
}

}  // namespace mcm
