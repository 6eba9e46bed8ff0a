// The per-query evaluator protocol. A search compares one query Q against
// every object it reaches, so per-query work a metric repeats on each call
// (the edit distance's match masks) can be done once. A metric that can
// exposes
//
//   Evaluator Prepare(const T& q) const;
//
// whose result answers eval(x) and eval.DistanceWithin(x, bound) with
// exactly the values of metric(q, x) and BoundedDistance(metric, q, x,
// bound). The protocol is optional: `PrepareQuery` below is what index
// code calls. It returns metric.Prepare(q) when the metric defines it and
// otherwise a ForwardingEvaluator that makes exactly those two metric
// calls, so metrics without Prepare (the vector metrics, user metrics,
// wrappers) are evaluated as if called directly. Either way one evaluator
// call is one distance computation: the engine's entry points
// (engine/witness.h) charge it, and CountedMetric::Prepare counts it.
//
// An evaluator refers to the query (and a forwarding one to the metric);
// both must outlive it. Preparing a temporary query, or a temporary
// metric through PrepareQuery, does not compile.

#ifndef MCM_METRIC_PREPARED_H_
#define MCM_METRIC_PREPARED_H_

#include <concepts>
#include <type_traits>
#include <utility>

#include "mcm/metric/bounded.h"

namespace mcm {

/// An evaluator over objects of type `T` with its query fixed.
template <typename E, typename T>
concept QueryEvaluatorOver = requires(const E& e, const T& x, double bound) {
  { e(x) } -> std::convertible_to<double>;
  { e.DistanceWithin(x, bound) } -> std::convertible_to<double>;
};

/// Satisfied by metrics over `T` that implement the Prepare protocol.
template <typename M, typename T>
concept PreparableMetric = requires(const M& m, const T& q) {
  { m.Prepare(q) } -> QueryEvaluatorOver<T>;
};

/// The evaluator of metrics without Prepare: metric(q, x) and
/// BoundedDistance(metric, q, x, bound). Forwards the avoided-evaluation
/// ledger of metrics that keep one.
template <typename M, typename T>
class ForwardingEvaluator {
 public:
  ForwardingEvaluator(const M& metric, const T& query)
      : metric_(&metric), query_(&query) {}

  double operator()(const T& x) const { return (*metric_)(*query_, x); }

  double DistanceWithin(const T& x, double bound) const {
    return BoundedDistance(*metric_, *query_, x, bound);
  }

  void RecordAvoided() const
    requires requires(const M& m) { m.RecordAvoided(); }
  {
    metric_->RecordAvoided();
  }

 private:
  const M* metric_;
  const T* query_;
};

/// The evaluator of `query` under `metric`: metric.Prepare(query) when the
/// metric defines it, else a ForwardingEvaluator.
template <typename M, typename T>
auto PrepareQuery(const M& metric, const T& query) {
  if constexpr (PreparableMetric<M, T>) {
    return metric.Prepare(query);
  } else {
    return ForwardingEvaluator<M, T>(metric, query);
  }
}

/// A temporary metric or query would die before the evaluator that refers
/// to it.
template <typename M, typename T>
  requires(!std::is_lvalue_reference_v<M> || !std::is_lvalue_reference_v<T>)
void PrepareQuery(M&& metric, T&& query) = delete;

/// The type PrepareQuery returns for metric `M` over objects `T`.
template <typename M, typename T>
using QueryEvaluator = decltype(PrepareQuery(std::declval<const M&>(),
                                             std::declval<const T&>()));

}  // namespace mcm

#endif  // MCM_METRIC_PREPARED_H_
