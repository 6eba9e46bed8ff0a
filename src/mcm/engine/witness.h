// The engine's witness bounds: every routing object a traversal evaluates
// on its way down is a *witness* — a pair (w, d(Q, w)) that, combined with
// a stored witness-to-object distance, bounds d(Q, o) for free:
//
//   |d(Q, w) - d(w, o)| <= d(Q, o).
//
// The Cascading Metric Tree applies exactly this cascade of bounds to cut
// metric evaluations; the Symmetric M-tree shows the stored side (the
// d(w, o) values) can live in the node entry layout. The M-tree is the one
// index with a stored side: its entries keep their parent distance and
// their distances to the routing objects above the parent, indexed by
// depth. The vp-tree, the GNAT and the scan keep none (in those trees the
// bound checks cost more wall time than the evaluations they save) and run
// the plain search through CountedDistanceWithin.
//
// The query side is a WitnessPath the search owns: one link per pushed
// child, holding d(Q, routing object) and the link of the routing object
// above it, so a frontier region names its whole root path with one
// index. Expanding a node loads the query distances of its `capacity`
// nearest ancestors into a depth-indexed window once; each entry's bound
// is then a loop of |dq[depth] - stored| over its stored distances.
// Near ancestors describe the smallest regions, so their bounds are the
// tightest. Capacity comes from MTreeOptions::witness_capacity, else
// MCM_WITNESSES (default 8); capacity 0 consults nothing and reproduces
// the plain search exactly.
//
// The sanctioned prune-site entry points are GuardedDistanceWithin, which
// compares the precomputed witness bound first, charges either one avoided
// or one computed evaluation to QueryStats, and only then runs the
// (bounded) evaluation, and CountedDistanceWithin for sites without a
// stored side. Both take the query's evaluator (metric/prepared.h, via
// PrepareQuery, built once per search) in place of (metric, query). The
// lint rule `no-direct-prune-distance` and mcm_analyze's `accounting` rule
// keep index prune sites on them.

#ifndef MCM_ENGINE_WITNESS_H_
#define MCM_ENGINE_WITNESS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

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

/// The witness bound of a node consulting no witness (capacity 0, or the
/// root): it proves nothing, not even against a negative search bound.
inline constexpr double kNoWitnessBound =
    -std::numeric_limits<double>::infinity();

/// The witnesses one expanded node's entries are bounded by: the query
/// distances dq[depth] of its `count` nearest ancestor routing objects,
/// the nearest (the entries' parent) at depth `parent`.
struct WitnessWindow {
  const double* dq = nullptr;
  uint32_t parent = 0;
  uint32_t count = 0;

  /// Best lower bound on d(Q, o) for an entry o stored at distance
  /// `parent_distance` from its parent and `ancestors[d]` from the routing
  /// object at depth d < parent (a shorter array leaves the deeper
  /// ancestors unknown): max(0, |dq[d] - stored|) over the window, NaN
  /// terms skipped. kNoWitnessBound when the window is empty. Always
  /// inlined: it runs once per entry of every expanded node, and left out
  /// of line it slowed even the capacity-0 search measurably.
  [[gnu::always_inline]] double LowerBound(
      double parent_distance, std::span<const double> ancestors) const {
    if (count == 0) return kNoWitnessBound;
    double lb = 0.0;
    const double p = std::fabs(dq[parent] - parent_distance);
    if (p > lb) lb = p;
    const size_t end = std::min<size_t>(parent, ancestors.size());
    for (size_t d = parent + 1 - count; d < end; ++d) {
      // One term per ancestor depth, not per vector coordinate.
      const double v = std::fabs(dq[d] - ancestors[d]);  // mcm-lint: allow(no-adhoc-vector-math)
      if (v > lb) lb = v;
    }
    return lb;
  }
};

/// One search's witness path: the query distance of every routing object
/// whose child the search pushed, each linked to the link of the routing
/// object above it. Links are appended, never changed, and live as long as
/// the search, so frontier regions of sibling subtrees share their prefix
/// through the parent index. Not shared between searches or threads.
class WitnessPath {
 public:
  /// The link of the root, which has no routing object.
  static constexpr uint32_t kNoLink = std::numeric_limits<uint32_t>::max();

  /// `height` sizes the depth-indexed window (a tree of that height needs
  /// height - 1 depths); a deeper node grows it.
  explicit WitnessPath(size_t height = 0) : dq_(height) {}

  /// Appends d(Q, w) for a routing object w whose own parent routing
  /// object has link `parent` (kNoLink for an entry of the root); returns
  /// w's link.
  uint32_t Append(uint32_t parent, double query_distance) {
    links_.push_back({parent, query_distance});
    return static_cast<uint32_t>(links_.size() - 1);
  }

  /// The window of a node at `level` (root = 1) whose routing object has
  /// link `link`: the query distances of its min(capacity, level - 1)
  /// nearest ancestors, loaded once. Empty at the root and for capacity 0.
  /// Valid until the next call.
  WitnessWindow Window(uint32_t link, uint32_t level, int capacity) {
    if (capacity <= 0 || level < 2) return {};
    const uint32_t parent = level - 2;
    const uint32_t count =
        std::min(static_cast<uint32_t>(capacity), level - 1);
    if (dq_.size() <= parent) dq_.resize(parent + 1);
    for (uint32_t i = 0; i < count; ++i, link = links_[link].parent) {
      dq_[parent - i] = links_[link].query_distance;
    }
    return {dq_.data(), parent, count};
  }

 private:
  struct Link {
    uint32_t parent;
    double query_distance;
  };

  std::vector<Link> links_;
  std::vector<double> dq_;
};

namespace internal {

/// Evaluators (CountedMetric's, or a forwarding one over a metric with a
/// ledger) that keep their own avoided-evaluation ledger.
template <typename E>
concept WitnessAwareEvaluator = requires(const E& e) {
  e.RecordAvoided();
};

}  // namespace internal

/// The engine's guarded prune-site evaluation of d(Q, x), where `eval` is
/// Q's evaluator (PrepareQuery) and `witness_bound` a lower bound on
/// d(Q, x) (WitnessWindow::LowerBound). When it proves d(Q, x) > bound,
/// charges one avoided evaluation (QueryStats::
/// distance_calcs_avoided_by_witness plus the evaluator's own ledger when
/// it keeps one) and returns +infinity without evaluating. Otherwise
/// charges one computed evaluation and runs the bounded protocol. With
/// kNoWitnessBound this is exactly the plain
/// `++distance_computations; eval.DistanceWithin(...)` sequence.
template <typename Evaluator, typename ObjectT>
inline double GuardedDistanceWithin(double witness_bound,
                                    const Evaluator& eval, const ObjectT& x,
                                    double bound, QueryStats* st) {
  if (witness_bound > bound) {
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
/// scan, vp-tree and GNAT buckets): one computed evaluation of d(Q, x)
/// through Q's evaluator's bounded protocol. Identical accounting to the
/// historical inline sequence, but routed through the engine so prune
/// sites stay lintable.
template <typename Evaluator, typename ObjectT>
inline double CountedDistanceWithin(const Evaluator& eval, const ObjectT& x,
                                    double bound, QueryStats* st) {
  ++st->distance_computations;
  return eval.DistanceWithin(x, bound);
}

}  // namespace engine
}  // namespace mcm

#endif  // MCM_ENGINE_WITNESS_H_
