// Metric-space trait bundles: each Traits type names the object type, the
// metric functor, and how objects serialize into storage pages. The M-tree
// and vp-tree templates are parameterized by one of these bundles (or any
// user-supplied type with the same shape). A bundle may also define
// `static void DeserializeInto(ByteReader&, Object*)`, an in-place decode
// that reuses the object's buffers; bundles without it are decoded with
// Deserialize plus a move-assign (mtree/node.h).

#ifndef MCM_METRIC_TRAITS_H_
#define MCM_METRIC_TRAITS_H_

#include <string>
#include <vector>

#include "mcm/metric/bytes.h"
#include "mcm/metric/string_metrics.h"
#include "mcm/metric/vector_metrics.h"

namespace mcm {

/// Traits for float-vector objects under metric `MetricT` (any functor with
/// `double operator()(const FloatVector&, const FloatVector&) const`).
template <typename MetricT>
struct VectorTraits {
  using Object = FloatVector;
  using Metric = MetricT;

  /// Bytes needed to serialize `o` (length prefix + payload).
  static size_t SerializedSize(const Object& o) {
    return sizeof(uint32_t) + sizeof(float) * o.size();
  }

  static void Serialize(const Object& o, ByteWriter& w) {
    w.Put<uint32_t>(static_cast<uint32_t>(o.size()));
    w.PutBytes(o.data(), sizeof(float) * o.size());
  }

  static Object Deserialize(ByteReader& r) {
    Object o;
    DeserializeInto(r, &o);
    return o;
  }

  /// In-place Deserialize: reuses `o`'s buffer (node decoding recycles
  /// entry objects). The length is checked before `o` is resized.
  static void DeserializeInto(ByteReader& r, Object* o) {
    const uint32_t dim = r.GetCount(sizeof(float));
    o->resize(dim);
    r.GetBytes(o->data(), sizeof(float) * dim);
  }
};

/// Traits for string objects under metric `MetricT` (defaults to the edit
/// distance, the paper's text-dataset metric).
template <typename MetricT = EditDistanceMetric>
struct StringTraits {
  using Object = std::string;
  using Metric = MetricT;

  static size_t SerializedSize(const Object& o) {
    return sizeof(uint32_t) + o.size();
  }

  static void Serialize(const Object& o, ByteWriter& w) { w.PutString(o); }

  static Object Deserialize(ByteReader& r) { return r.GetString(); }

  static void DeserializeInto(ByteReader& r, Object* o) { r.GetString(o); }
};

}  // namespace mcm

#endif  // MCM_METRIC_TRAITS_H_
