#include "mcm/metric/string_metrics.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

namespace mcm {
namespace {

// Longest shorter string the bit-parallel kernel handles: one DP column
// fits in one 64-bit word.
constexpr size_t kMaxKernelLength = 64;

// Myers' bit-vector algorithm (J. ACM 1999) in Hyyrö's formulation for
// global Levenshtein distance. Bit i of each word holds the vertical delta
// D[i+1][j] - D[i][j] of the DP column over a string s of m = 1..64 bytes
// whose match masks are `peq` (bit i of peq[c] set iff s[i] == c); one
// column step per byte of `t`, tracking D[m][j] in `d`. Returns exactly
// the DP's value. The one-shot EditDistance / BoundedEditDistance and the
// prepared evaluator share this loop and differ only in who builds `peq`.
size_t MyersColumnSteps(const uint64_t* peq, size_t m, const std::string& t) {
  const uint64_t last = uint64_t{1} << (m - 1);
  uint64_t vp = ~uint64_t{0};  // D[i][0] = i: every vertical delta is +1.
  uint64_t vn = 0;
  size_t d = m;
  for (const char c : t) {
    const uint64_t x = peq[static_cast<unsigned char>(c)] | vn;
    const uint64_t d0 = (((x & vp) + vp) ^ vp) | x;
    const uint64_t hp = vn | ~(d0 | vp);
    const uint64_t hn = vp & d0;
    d += (hp & last) != 0;
    d -= (hn & last) != 0;
    // D[0][j] = j: the row above the column always adds +1.
    const uint64_t hp_in = (hp << 1) | 1;
    vn = hp_in & d0;
    vp = (hn << 1) | ~(hp_in | d0);
  }
  return d;
}

// One-shot kernel: s (1..64 bytes) is the bit column.
size_t BitParallelEditDistance(const std::string& s, const std::string& t) {
  // Match masks per byte value. Only the entries the loops read are set,
  // every byte of t and s being cleared first: zeroing all 2 KiB would add
  // about a third to a keyword-pair call.
  uint64_t peq[256];
  for (const char c : t) peq[static_cast<unsigned char>(c)] = 0;
  for (const char c : s) peq[static_cast<unsigned char>(c)] = 0;
  for (size_t i = 0; i < s.size(); ++i) {
    peq[static_cast<unsigned char>(s[i])] |= uint64_t{1} << i;
  }
  return MyersColumnSteps(peq, s.size(), t);
}

}  // namespace

size_t EditDistance(const std::string& a, const std::string& b) {
  // The shorter string is the kernel's bit column, or the DP row.
  const std::string& s = a.size() <= b.size() ? a : b;
  const std::string& t = a.size() <= b.size() ? b : a;
  const size_t m = s.size();
  const size_t n = t.size();
  if (m == 0) return n;
  if (m <= kMaxKernelLength) return BitParallelEditDistance(s, t);

  std::vector<size_t> row(m + 1);
  for (size_t j = 0; j <= m; ++j) row[j] = j;
  for (size_t i = 1; i <= n; ++i) {
    size_t diag = row[0];  // row[i-1][0]
    row[0] = i;
    for (size_t j = 1; j <= m; ++j) {
      const size_t up = row[j];
      const size_t cost = (t[i - 1] == s[j - 1]) ? 0 : 1;
      row[j] = std::min({up + 1, row[j - 1] + 1, diag + cost});
      diag = up;
    }
  }
  return row[m];
}

size_t BoundedEditDistance(const std::string& a, const std::string& b,
                           size_t bound) {
  const size_t la = a.size();
  const size_t lb = b.size();
  const size_t len_diff = la > lb ? la - lb : lb - la;
  if (len_diff > bound) return bound + 1;

  const std::string& s = la <= lb ? a : b;
  const std::string& t = la <= lb ? b : a;
  const size_t m = s.size();
  const size_t n = t.size();
  // Empty shorter string: the distance is exactly n insertions, and the
  // length-gap check above already proved n <= bound. The banded loop
  // below cannot represent an empty DP row (lo > hi), so answer directly.
  if (m == 0) return n;
  if (m <= kMaxKernelLength) {
    const size_t d = BitParallelEditDistance(s, t);
    return d > bound ? bound + 1 : d;
  }
  // The distance never exceeds n, so a larger band changes no answer; the
  // clamp also keeps i + bound below from wrapping.
  bound = std::min(bound, n);

  // Banded DP: only cells with |i - j| <= bound can be <= bound.
  const size_t kInf = std::numeric_limits<size_t>::max() / 2;

  std::vector<size_t> row(m + 1, kInf);
  for (size_t j = 0; j <= std::min(m, bound); ++j) row[j] = j;
  for (size_t i = 1; i <= n; ++i) {
    const size_t lo = i > bound ? i - bound : 1;
    const size_t hi = std::min(m, i + bound);
    if (lo > hi) return bound + 1;
    size_t diag = (lo >= 1) ? row[lo - 1] : kInf;  // row[i-1][lo-1]
    size_t prev_left = kInf;                       // row[i][lo-1]
    if (lo == 1) {
      prev_left = (i <= bound) ? i : kInf;  // first column value
    }
    size_t row_min = kInf;
    for (size_t j = lo; j <= hi; ++j) {
      const size_t up = row[j];
      const size_t cost = (t[i - 1] == s[j - 1]) ? 0 : 1;
      size_t v = diag + cost;
      if (up != kInf) v = std::min(v, up + 1);
      if (prev_left != kInf) v = std::min(v, prev_left + 1);
      diag = up;
      row[j] = v;
      prev_left = v;
      row_min = std::min(row_min, v);
    }
    if (lo == 1) {
      // row[0] is the first DP column: i deletions from the longer string.
      row[0] = (i <= bound) ? i : kInf;
    } else {
      row[lo - 1] = kInf;  // Outside the band for the next row.
    }
    if (row_min > bound) return bound + 1;
  }
  return row[m] > bound ? bound + 1 : row[m];
}

double EditDistanceMetric::DistanceWithin(const std::string& a,
                                          const std::string& b,
                                          double bound) const {
  if (!(bound >= 0.0)) {
    // Edit distances are non-negative integers, so any result exceeds a
    // negative bound (and none is <= NaN).
    return std::numeric_limits<double>::infinity();
  }
  const size_t longest = std::max(a.size(), b.size());
  // k = min(floor(bound), longest) suffices: the distance never exceeds
  // the longer length, and integer distances make floor exact (d <= bound
  // iff d <= floor(bound)). Compare in double first: converting a bound
  // of 2^64 or more (or +inf) to size_t is undefined.
  const size_t k = bound >= static_cast<double>(longest)
                       ? longest
                       : static_cast<size_t>(bound);
  const size_t d = BoundedEditDistance(a, b, k);
  if (d > k && static_cast<double>(d) > bound) {
    return std::numeric_limits<double>::infinity();
  }
  return static_cast<double>(d);
}

EditDistanceMetric::Prepared::Prepared(const std::string& query)
    : query_(&query) {
  if (query.empty() || query.size() > kMaxKernelLength) return;
  for (size_t i = 0; i < query.size(); ++i) {
    peq_[static_cast<unsigned char>(query[i])] |= uint64_t{1} << i;
  }
}

double EditDistanceMetric::Prepared::operator()(const std::string& x) const {
  const size_t m = query_->size();
  if (m == 0 || m > kMaxKernelLength) {
    return static_cast<double>(EditDistance(*query_, x));
  }
  return static_cast<double>(MyersColumnSteps(peq_, m, x));
}

double EditDistanceMetric::Prepared::DistanceWithin(const std::string& x,
                                                    double bound) const {
  const size_t m = query_->size();
  if (m == 0 || m > kMaxKernelLength) {
    return EditDistanceMetric().DistanceWithin(*query_, x, bound);
  }
  constexpr double kInf = std::numeric_limits<double>::infinity();
  if (!(bound >= 0.0)) return kInf;
  // The one-shot answers, without its integer band: the distance is at
  // least the length gap, and an integer d is <= bound iff it is <=
  // floor(bound), so comparing in double gives the same verdicts.
  const size_t n = x.size();
  const size_t gap = m > n ? m - n : n - m;
  if (static_cast<double>(gap) > bound) return kInf;
  const double d = static_cast<double>(MyersColumnSteps(peq_, m, x));
  return d <= bound ? d : kInf;
}

WeightedEditDistance::WeightedEditDistance(double insert_cost,
                                           double delete_cost,
                                           double substitute_cost)
    : insert_cost_(insert_cost),
      delete_cost_(delete_cost),
      substitute_cost_(substitute_cost) {
  if (insert_cost <= 0 || delete_cost <= 0 || substitute_cost <= 0) {
    throw std::invalid_argument("WeightedEditDistance: costs must be > 0");
  }
}

double WeightedEditDistance::operator()(const std::string& a,
                                        const std::string& b) const {
  const size_t m = a.size();
  const size_t n = b.size();
  std::vector<double> row(m + 1);
  // row[j] = cost of deleting the first j characters of `a`.
  for (size_t j = 0; j <= m; ++j) row[j] = static_cast<double>(j) * delete_cost_;
  for (size_t i = 1; i <= n; ++i) {
    double diag = row[0];
    row[0] = static_cast<double>(i) * insert_cost_;
    for (size_t j = 1; j <= m; ++j) {
      const double up = row[j];
      const double sub = (b[i - 1] == a[j - 1]) ? 0.0 : substitute_cost_;
      row[j] = std::min({up + insert_cost_, row[j - 1] + delete_cost_,
                         diag + sub});
      diag = up;
    }
  }
  return row[m];
}

double HammingDistance(const std::string& a, const std::string& b) {
  if (a.size() != b.size()) {
    throw std::invalid_argument("HammingDistance: length mismatch");
  }
  size_t count = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    count += (a[i] != b[i]) ? 1 : 0;
  }
  return static_cast<double>(count);
}

}  // namespace mcm
