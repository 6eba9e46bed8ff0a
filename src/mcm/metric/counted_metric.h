// A metric decorator that counts invocations. The paper's CPU cost is the
// number of distance computations; wrapping the metric of an index or of a
// linear scan with CountedMetric gives the exact measured `dists` value.
//
// The decorator forwards the bounded-evaluation protocol (bounded.h): an
// early-exited DistanceWithin still counts as exactly one distance
// computation — the paper's model charges per comparison of two objects,
// not per coordinate touched, so bounded evaluation leaves every reported
// count bit-identical.
//
// When MCM_OBS is on the decorator additionally accumulates the wall-clock
// nanoseconds spent inside the wrapped metric (DistanceCounter::nanos),
// giving a direct measurement of the model's CPU-cost unit. With obs off
// the timing branch is a single cached test and nanos() stays zero.
//
// Prepare (metric/prepared.h) wraps the inner metric's per-query evaluator
// in a CountedEvaluator that counts, times and records avoided
// evaluations exactly like the decorator's own calls, so a search that
// prepares its query reports the same ledger as one that does not.

#ifndef MCM_METRIC_COUNTED_METRIC_H_
#define MCM_METRIC_COUNTED_METRIC_H_

#include <atomic>
#include <cstdint>
#include <memory>

#include "mcm/common/clock.h"
#include "mcm/metric/bounded.h"
#include "mcm/metric/prepared.h"
#include "mcm/obs/metrics.h"

namespace mcm {

/// Shared mutable counter of distance computations. Relaxed-atomic so
/// copies of one CountedMetric can be evaluated from concurrent query
/// threads (the batch executor); the total stays exact under any schedule.
class DistanceCounter {
 public:
  void Increment() { count_.fetch_add(1, std::memory_order_relaxed); }
  void IncrementAvoided() {
    avoided_.fetch_add(1, std::memory_order_relaxed);
  }
  void AddNanos(uint64_t ns) {
    nanos_.fetch_add(ns, std::memory_order_relaxed);
  }
  void Reset() {
    count_.store(0, std::memory_order_relaxed);
    avoided_.store(0, std::memory_order_relaxed);
    nanos_.store(0, std::memory_order_relaxed);
  }
  uint64_t count() const { return count_.load(std::memory_order_relaxed); }

  /// Evaluations skipped by the engine's witness bounds (would each have
  /// been one count() increment).
  uint64_t avoided() const {
    return avoided_.load(std::memory_order_relaxed);
  }

  /// Nanoseconds spent inside the wrapped metric (MCM_OBS on only).
  uint64_t nanos() const { return nanos_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> avoided_{0};
  std::atomic<uint64_t> nanos_{0};
};

/// Charges one evaluation to `counter` and runs `eval`, timing it when
/// MCM_OBS is on.
template <typename Eval>
double CountedCall(DistanceCounter& counter, Eval&& eval) {
  counter.Increment();
  if (ObsEnabled()) {
    const uint64_t start_ns = MonotonicNanos();
    const double d = eval();
    counter.AddNanos(MonotonicNanos() - start_ns);
    return d;
  }
  return eval();
}

/// A per-query evaluator that charges every evaluation to a
/// DistanceCounter: CountedMetric::Prepare's result. `Inner` is the
/// wrapped metric's evaluator (QueryEvaluator<Metric, Object>).
template <typename Inner>
class CountedEvaluator {
 public:
  template <typename Metric, typename ObjectT>
  CountedEvaluator(const Metric& metric, const ObjectT& query,
                   std::shared_ptr<DistanceCounter> counter)
      : inner_(PrepareQuery(metric, query)), counter_(std::move(counter)) {}

  template <typename ObjectT>
  double operator()(const ObjectT& x) const {
    return CountedCall(*counter_, [&] { return inner_(x); });
  }

  template <typename ObjectT>
  double DistanceWithin(const ObjectT& x, double bound) const {
    return CountedCall(*counter_,
                       [&] { return inner_.DistanceWithin(x, bound); });
  }

  void RecordAvoided() const { counter_->IncrementAvoided(); }

 private:
  Inner inner_;
  std::shared_ptr<DistanceCounter> counter_;
};

/// Wraps a metric functor and increments a shared DistanceCounter on every
/// evaluation. Copies of a CountedMetric share the same counter.
template <typename Metric>
class CountedMetric {
 public:
  template <typename ObjectT>
  using DistanceResult = double;

  explicit CountedMetric(Metric metric = Metric())
      : metric_(std::move(metric)),
        counter_(std::make_shared<DistanceCounter>()) {}

  template <typename ObjectT>
  double operator()(const ObjectT& a, const ObjectT& b) const {
    return CountedCall(*counter_, [&] { return metric_(a, b); });
  }

  /// Bounded evaluation via the inner metric (full distance when the inner
  /// metric lacks the protocol). Counts one computation either way.
  template <typename ObjectT>
  double DistanceWithin(const ObjectT& a, const ObjectT& b,
                        double bound) const {
    return CountedCall(*counter_,
                       [&] { return BoundedDistance(metric_, a, b, bound); });
  }

  /// Per-query evaluator over the inner metric's (metric/prepared.h); its
  /// evaluations count against this metric's counter.
  template <typename ObjectT>
  CountedEvaluator<QueryEvaluator<Metric, ObjectT>> Prepare(
      const ObjectT& query) const {
    return CountedEvaluator<QueryEvaluator<Metric, ObjectT>>(metric_, query,
                                                             counter_);
  }
  template <typename ObjectT>
  void Prepare(const ObjectT&& query) const = delete;

  /// Notes one metric evaluation skipped by a witness bound. Called by the
  /// engine's guarded entry points so the decorator's ledger distinguishes
  /// "computed" from "proven unnecessary" evaluations.
  void RecordAvoided() const { counter_->IncrementAvoided(); }

  /// Number of distance evaluations since construction or the last Reset.
  uint64_t count() const { return counter_->count(); }

  /// Evaluations skipped by witness bounds since the last Reset.
  uint64_t avoided_count() const { return counter_->avoided(); }

  /// Nanoseconds spent inside the wrapped metric (MCM_OBS on only).
  uint64_t nanos() const { return counter_->nanos(); }

  /// Resets the shared counter to zero.
  void Reset() const { counter_->Reset(); }

  const Metric& inner() const { return metric_; }

 private:
  Metric metric_;
  std::shared_ptr<DistanceCounter> counter_;
};

}  // namespace mcm

#endif  // MCM_METRIC_COUNTED_METRIC_H_
