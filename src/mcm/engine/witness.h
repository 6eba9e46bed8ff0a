// The engine's witness set: every metric evaluation a traversal performs
// on its way down is a *witness* — a pair (reference, d(witness, Q)) that,
// combined with a stored witness-to-object distance, yields triangle-
// inequality bounds on d(Q, object) for free:
//
//   |d(Q, w) - d(w, o)| <= d(Q, o) <= d(Q, w) + d(w, o).
//
// The Cascading Metric Tree applies exactly this cascade of bounds to cut
// metric evaluations; the Symmetric M-tree shows the stored side (the
// d(w, o) values) can live in the node entry layout. Here the witness set
// is owned by the traversal driver (search_core.h threads a WitnessChain
// through every FrontierEntry) and the M-tree supplies the stored side:
// its entries persist distances to ancestor routing objects. The vp-tree
// and the GNAT keep no stored side: in these main-memory trees the bound
// checks cost more wall time than the metric evaluations they save, so
// they run the plain search through CountedDistanceWithin.
//
// Replacement policy: a traversal path accrues witnesses root-to-leaf and
// bounds from near ancestors are the tightest (their stored distances
// describe the smallest regions), so the chain keeps every link but
// consults only the `capacity` most recent (deepest) ones. Capacity comes
// from MTreeOptions::witness_capacity, else MCM_WITNESSES (default 8);
// capacity 0 disables every witness consultation and reproduces the
// pre-witness traversal bit-identically.
//
// The sanctioned prune-site entry points are GuardedDistanceWithin, which
// consults the witness bounds first, charges either one avoided or one
// computed evaluation to QueryStats, and only then runs the (bounded)
// evaluation, and CountedDistanceWithin for sites without a stored side.
// Both take the query's evaluator (metric/prepared.h, via PrepareQuery,
// built once per search) in place of (metric, query). The lint rule
// `no-direct-prune-distance` and mcm_analyze's `accounting` rule keep
// index prune sites on them.

#ifndef MCM_ENGINE_WITNESS_H_
#define MCM_ENGINE_WITNESS_H_

#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <utility>

#include "mcm/common/env.h"
#include "mcm/common/query_stats.h"
#include "mcm/metric/prepared.h"

namespace mcm {
namespace engine {

/// Number of witnesses consulted per bound when the capacity is left at
/// its -1 ("resolve from environment") default and MCM_WITNESSES is unset.
inline constexpr int kDefaultWitnessCapacity = 8;

/// Resolves a witness-capacity knob: a non-negative configured value wins;
/// -1 defers to MCM_WITNESSES (default kDefaultWitnessCapacity). Clamped
/// to a sane non-negative range.
inline int ResolveWitnessCapacity(int configured) {
  int64_t v = configured >= 0
                  ? configured
                  : GetEnvInt("MCM_WITNESSES", kDefaultWitnessCapacity);
  if (v < 0) v = 0;
  if (v > 1024) v = 1024;
  return static_cast<int>(v);
}

/// The stored side of one witness bound: the interval [lo, hi] known to
/// contain d(witness, o) for the object (or every object of the region)
/// being bounded. A point distance is the degenerate interval [d, d];
/// Unknown() contributes nothing.
struct WitnessInterval {
  double lo = std::numeric_limits<double>::quiet_NaN();
  double hi = std::numeric_limits<double>::quiet_NaN();

  static WitnessInterval Unknown() { return {}; }
  static WitnessInterval Point(double d) { return {d, d}; }

  bool known() const { return !std::isnan(lo) && !std::isnan(hi); }
};

/// An immutable chain of witnesses, newest (deepest ancestor) first.
/// Extending shares structure with the parent chain, so frontier entries
/// of sibling subtrees branch off one path cheaply and safely across the
/// batch executor's threads (links are immutable once created).
class WitnessChain {
 public:
  WitnessChain() = default;

  /// The chain with one more witness (reference `ref`, measured query
  /// distance `query_distance`) in front. `ref` is index-defined: the
  /// M-tree uses the ancestor depth.
  WitnessChain Extend(uint64_t ref, double query_distance) const {
    auto link = std::make_shared<Link>();
    link->ref = ref;
    link->query_distance = query_distance;
    link->next = head_;
    WitnessChain out;
    out.head_ = std::move(link);
    return out;
  }

  bool Empty() const { return head_ == nullptr; }

  /// Calls fn(ref, query_distance) for the `limit` newest witnesses.
  template <typename Fn>
  void Visit(int limit, Fn&& fn) const {
    const Link* link = head_.get();
    for (int i = 0; i < limit && link != nullptr; ++i, link = link->next.get()) {
      fn(link->ref, link->query_distance);
    }
  }

 private:
  struct Link {
    uint64_t ref = 0;
    double query_distance = 0.0;
    std::shared_ptr<const Link> next;
  };

  std::shared_ptr<const Link> head_;
};

/// Best lower bound on d(Q, o) obtainable from the `capacity` newest
/// witnesses. `stored(ref)` must return the WitnessInterval containing
/// d(witness ref, o); Unknown() intervals are skipped. Never negative;
/// 0 when no witness contributes.
template <typename StoredFn>
inline double WitnessLowerBound(const WitnessChain& chain, int capacity,
                                StoredFn&& stored) {
  double lb = 0.0;
  chain.Visit(capacity, [&](uint64_t ref, double dq) {
    const WitnessInterval iv = stored(ref);
    if (!iv.known()) return;
    if (dq - iv.hi > lb) lb = dq - iv.hi;
    if (iv.lo - dq > lb) lb = iv.lo - dq;
  });
  return lb;
}

namespace internal {

/// Evaluators (CountedMetric's, or a forwarding one over a metric with a
/// ledger) that keep their own avoided-evaluation ledger.
template <typename E>
concept WitnessAwareEvaluator = requires(const E& e) {
  e.RecordAvoided();
};

}  // namespace internal

/// The engine's guarded prune-site evaluation of d(Q, x), where `eval` is
/// Q's evaluator (PrepareQuery). Consults the witness bounds first: when
/// they prove d(Q, x) > bound, charges one avoided evaluation
/// (QueryStats::distance_calcs_avoided_by_witness plus the evaluator's own
/// ledger when it keeps one) and returns +infinity without evaluating.
/// Otherwise charges one computed evaluation and runs the bounded
/// protocol. With capacity 0 (or an empty chain) this is exactly the
/// pre-witness `++distance_computations; eval.DistanceWithin(...)`
/// sequence.
template <typename StoredFn, typename Evaluator, typename ObjectT>
inline double GuardedDistanceWithin(const WitnessChain& chain, int capacity,
                                    StoredFn&& stored, const Evaluator& eval,
                                    const ObjectT& x, double bound,
                                    QueryStats* st) {
  if (capacity > 0 && !chain.Empty() &&
      WitnessLowerBound(chain, capacity, stored) > bound) {
    ++st->distance_calcs_avoided_by_witness;
    if constexpr (internal::WitnessAwareEvaluator<Evaluator>) {
      eval.RecordAvoided();
    }
    return std::numeric_limits<double>::infinity();
  }
  ++st->distance_computations;
  return eval.DistanceWithin(x, bound);
}

/// Guarded evaluation for sites with no stored witness distances (linear
/// scan, vp-tree and GNAT buckets, M-trees before their cascade is
/// installed): one computed evaluation of d(Q, x) through Q's evaluator's
/// bounded protocol. Identical accounting to the historical inline
/// sequence, but routed through the engine so prune sites stay lintable.
template <typename Evaluator, typename ObjectT>
inline double CountedDistanceWithin(const Evaluator& eval, const ObjectT& x,
                                    double bound, QueryStats* st) {
  ++st->distance_computations;
  return eval.DistanceWithin(x, bound);
}

}  // namespace engine
}  // namespace mcm

#endif  // MCM_ENGINE_WITNESS_H_
