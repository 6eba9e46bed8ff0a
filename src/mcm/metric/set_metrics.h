// Metrics on finite point sets: the Hausdorff distance — the shape-matching
// metric of the paper's multimedia motivation (Huttenlocher et al. [15]) —
// and the Jaccard distance on id sets (duplicate detection / set
// similarity). Both are true metrics, so the M-tree and the cost models
// apply unchanged.

#ifndef MCM_METRIC_SET_METRICS_H_
#define MCM_METRIC_SET_METRICS_H_

#include <cstdint>
#include <vector>

#include "mcm/metric/bytes.h"
#include "mcm/metric/vector_metrics.h"

namespace mcm {

/// A finite set of points (e.g. samples along a shape contour).
using PointSet = std::vector<FloatVector>;

/// Directed Hausdorff distance h(a, b) = max_{p in a} min_{q in b} d(p, q)
/// under the Euclidean base metric. Requires both sets non-empty.
double DirectedHausdorff(const PointSet& a, const PointSet& b);

/// Symmetric Hausdorff distance H(a, b) = max(h(a,b), h(b,a)); a metric on
/// non-empty compact sets.
double HausdorffDistance(const PointSet& a, const PointSet& b);

/// Functor wrapper for index use.
struct HausdorffMetric {
  double operator()(const PointSet& a, const PointSet& b) const {
    return HausdorffDistance(a, b);
  }
};

/// Jaccard distance 1 - |a ∩ b| / |a ∪ b| on *sorted* id sets; the distance
/// of two empty sets is 0. A metric on finite sets.
double JaccardDistance(const std::vector<uint64_t>& a,
                       const std::vector<uint64_t>& b);

/// Functor wrapper for index use.
struct JaccardMetric {
  double operator()(const std::vector<uint64_t>& a,
                    const std::vector<uint64_t>& b) const {
    return JaccardDistance(a, b);
  }
};

/// Traits for indexing point sets under the Hausdorff distance.
struct PointSetTraits {
  using Object = PointSet;
  using Metric = HausdorffMetric;

  static size_t SerializedSize(const Object& o) {
    size_t size = sizeof(uint32_t);
    for (const auto& p : o) {
      size += sizeof(uint32_t) + sizeof(float) * p.size();
    }
    return size;
  }

  static void Serialize(const Object& o, ByteWriter& w) {
    w.Put<uint32_t>(static_cast<uint32_t>(o.size()));
    for (const auto& p : o) {
      w.Put<uint32_t>(static_cast<uint32_t>(p.size()));
      w.PutBytes(p.data(), sizeof(float) * p.size());
    }
  }

  static Object Deserialize(ByteReader& r) {
    const uint32_t count = r.GetCount(sizeof(uint32_t));
    Object o(count);
    for (auto& p : o) {
      const uint32_t dim = r.GetCount(sizeof(float));
      p.resize(dim);
      r.GetBytes(p.data(), sizeof(float) * dim);
    }
    return o;
  }
};

}  // namespace mcm

#endif  // MCM_METRIC_SET_METRICS_H_
