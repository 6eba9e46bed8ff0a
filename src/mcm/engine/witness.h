// The engine's witness bounds: every routing object a traversal evaluates
// on its way down is a *witness* — a pair (w, d(Q, w)) that, combined with
// a stored witness-to-object distance, bounds d(Q, o) for free:
//
//   |d(Q, w) - d(w, o)| <= d(Q, o).
//
// Only the M-tree stores that side. Its search's parent-distance filter
// uses each entry's parent distance; once InstallWitnessCascade() has run,
// the cascade (Cascading Metric Tree; stored in the entry layout as in the
// Symmetric M-tree) also uses its distances to the routing objects above
// the parent, through a WitnessPath the search owns: one link per pushed
// child, holding d(Q, routing object) and the link above it. Expanding a
// node loads those ancestors' query distances into a depth-indexed window
// once; each entry's bound is a loop of |dq[depth] - stored|. Capacity
// (MTreeOptions::witness_capacity, else MCM_WITNESSES, default 8) counts
// the parent, so 0 or 1 runs the filter alone. The vp-tree, the GNAT and
// the scan store nothing (there the checks cost more than they save).
//
// Each skip, filter or cascade, is charged as one avoided evaluation
// (ChargeAvoided), so computed + avoided is the count N-MCM prices. The
// sanctioned prune-site entry points are GuardedDistanceWithin (cascade
// bound first, then one avoided or one computed evaluation) and
// CountedDistanceWithin for sites without a stored side; both take the
// query's evaluator (metric/prepared.h). The lint rule
// `no-direct-prune-distance` and mcm_analyze's `accounting` rule keep
// index prune sites on them.

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

/// The bound of an empty window (capacity 0 or 1, levels 1 and 2): it
/// proves nothing, not even against a negative search bound.
inline constexpr double kNoWitnessBound =
    -std::numeric_limits<double>::infinity();

/// The cascade's witnesses for one expanded node's entries: the query
/// distances dq[depth] of the ancestors at depths [first, parent) above
/// the entries' parent (at depth `parent`, the filter's witness).
struct WitnessWindow {
  const double* dq = nullptr;
  uint32_t first = 0;
  uint32_t parent = 0;

  /// Best lower bound on d(Q, o) for an entry o stored at distance
  /// `ancestors[d]` from the routing object at depth d (a shorter array
  /// leaves the deeper ones unknown): max(0, |dq[d] - stored|), NaN terms
  /// skipped; kNoWitnessBound if none is stored in the window. Always
  /// inlined: out of line, this per-entry call slowed the search measurably.
  [[gnu::always_inline]] double LowerBound(
      std::span<const double> ancestors) const {
    const size_t end = std::min<size_t>(parent, ancestors.size());
    if (first >= end) return kNoWitnessBound;
    double lb = 0.0;
    for (size_t d = first; d < end; ++d) {
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
  /// height - 2 depths); a deeper node grows it.
  explicit WitnessPath(size_t height = 0) : dq_(height) {}

  /// Appends d(Q, w) for a routing object w whose own parent routing
  /// object has link `parent` (kNoLink for an entry of the root); returns
  /// w's link.
  uint32_t Append(uint32_t parent, double query_distance) {
    links_.push_back({parent, query_distance});
    return static_cast<uint32_t>(links_.size() - 1);
  }

  /// The window of a node at `level` (root = 1) whose routing object has
  /// link `link`: the query distances of the min(capacity - 1, level - 2)
  /// nearest ancestors above that routing object, loaded once. Empty for
  /// capacity 0 or 1 and at levels 1 and 2. Valid until the next call.
  WitnessWindow Window(uint32_t link, uint32_t level, int capacity) {
    if (capacity <= 1 || level < 3) return {};
    const uint32_t parent = level - 2;
    const uint32_t first =
        parent - std::min(static_cast<uint32_t>(capacity) - 1, parent);
    if (dq_.size() < parent) dq_.resize(parent);
    for (uint32_t d = parent; d > first; --d) {  // Above `link`'s depth.
      link = links_[link].parent;
      dq_[d - 1] = links_[link].query_distance;
    }
    return {dq_.data(), first, parent};
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

/// Charges one avoided evaluation of d(Q, x), where `eval` is Q's
/// evaluator: QueryStats::distance_calcs_avoided_by_witness plus the
/// evaluator's own ledger when it keeps one. The M-tree's parent-distance
/// filter and GuardedDistanceWithin's avoided branch both charge here.
template <typename Evaluator>
inline void ChargeAvoided(const Evaluator& eval, QueryStats* st) {
  ++st->distance_calcs_avoided_by_witness;
  if constexpr (internal::WitnessAwareEvaluator<Evaluator>) {
    eval.RecordAvoided();
  }
}

/// The engine's guarded prune-site evaluation of d(Q, x), where `eval` is
/// Q's evaluator (PrepareQuery) and `witness_bound` a lower bound on
/// d(Q, x) (WitnessWindow::LowerBound). When it proves d(Q, x) > bound,
/// charges one avoided evaluation (ChargeAvoided) and returns +infinity
/// without evaluating. Otherwise charges one computed evaluation and runs
/// the bounded protocol. With kNoWitnessBound this is exactly the plain
/// `++distance_computations; eval.DistanceWithin(...)` sequence.
template <typename Evaluator, typename ObjectT>
inline double GuardedDistanceWithin(double witness_bound,
                                    const Evaluator& eval, const ObjectT& x,
                                    double bound, QueryStats* st) {
  if (witness_bound > bound) {
    ChargeAvoided(eval, st);
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
