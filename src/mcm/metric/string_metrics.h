// String metrics: Levenshtein (edit) distance — the metric of the paper's
// text-keyword datasets — plus weighted-edit and Hamming variants.

#ifndef MCM_METRIC_STRING_METRICS_H_
#define MCM_METRIC_STRING_METRICS_H_

#include <cstddef>
#include <string>

namespace mcm {

/// Plain Levenshtein distance: minimal number of single-character
/// insertions, deletions and substitutions transforming `a` into `b`.
/// When the shorter string has 1..64 bytes, a bit-parallel kernel (Myers
/// 1999, Hyyrö's global form) takes O(|a| + |b|) word operations and no
/// heap memory; longer strings run the O(|a|*|b|) row DP.
size_t EditDistance(const std::string& a, const std::string& b);

/// Levenshtein distance against a bound: the exact distance when it is
/// <= `bound`, bound + 1 otherwise. A length gap above `bound` answers
/// first; then the bit-parallel kernel (shorter string of 1..64 bytes) or
/// a banded DP of width 2*bound+1 that stops once a row exceeds `bound`.
size_t BoundedEditDistance(const std::string& a, const std::string& b,
                           size_t bound);

/// Functor wrapper over EditDistance for use as an index metric.
struct EditDistanceMetric {
  double operator()(const std::string& a, const std::string& b) const {
    return static_cast<double>(EditDistance(a, b));
  }

  /// Bounded-evaluation protocol (bounded.h): exact distance when it is
  /// <= bound, +infinity otherwise, via BoundedEditDistance at
  /// k = min(floor(bound), longer length).
  double DistanceWithin(const std::string& a, const std::string& b,
                        double bound) const;
};

/// Weighted edit distance with distinct insert/delete/substitute costs.
/// Remains a metric when insert_cost == delete_cost and
/// substitute_cost <= insert_cost + delete_cost.
class WeightedEditDistance {
 public:
  WeightedEditDistance(double insert_cost, double delete_cost,
                       double substitute_cost);

  double operator()(const std::string& a, const std::string& b) const;

 private:
  double insert_cost_;
  double delete_cost_;
  double substitute_cost_;
};

/// Hamming distance on equal-length strings; throws on length mismatch.
double HammingDistance(const std::string& a, const std::string& b);

/// Functor wrapper over HammingDistance.
struct HammingDistanceMetric {
  double operator()(const std::string& a, const std::string& b) const {
    return HammingDistance(a, b);
  }
};

}  // namespace mcm

#endif  // MCM_METRIC_STRING_METRICS_H_
