// String metrics: Levenshtein (edit) distance — the metric of the paper's
// text-keyword datasets — plus weighted-edit and Hamming variants.

#ifndef MCM_METRIC_STRING_METRICS_H_
#define MCM_METRIC_STRING_METRICS_H_

#include <cstddef>
#include <cstdint>
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

  /// Per-query evaluator (metric/prepared.h). A query Q of 1..64 bytes
  /// gets its bit-parallel match masks built once, here; each evaluation
  /// then runs only the length-gap check and one column step per byte of
  /// the candidate, with Q as the bit column whichever string is shorter.
  /// Other queries fall back to the one-shot functions. Answers equal
  /// operator()(Q, x) and DistanceWithin(Q, x, bound) exactly. The
  /// evaluator refers to Q, which must outlive it.
  class Prepared {
   public:
    explicit Prepared(const std::string& query);

    double operator()(const std::string& x) const;
    double DistanceWithin(const std::string& x, double bound) const;

   private:
    const std::string* query_;
    // peq_[c] has bit i set iff Q[i] == c; all zero outside 1..64 bytes.
    uint64_t peq_[256] = {};
  };

  Prepared Prepare(const std::string& query) const { return Prepared(query); }
  Prepared Prepare(const std::string&& query) const = delete;
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
