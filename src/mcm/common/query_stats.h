// Per-query counters. `nodes_accessed` is the paper's I/O cost and
// `distance_computations` its CPU cost; the remaining fields feed the
// observability layer (src/mcm/obs/) and are filled by every index.

#ifndef MCM_COMMON_QUERY_STATS_H_
#define MCM_COMMON_QUERY_STATS_H_

#include <array>
#include <cstddef>
#include <cstdint>

namespace mcm {

class QueryTrace;  // obs/trace.h; queries run without it by default.

/// The named phases a query's wall-clock decomposes into. Used as indexes
/// into QueryStats::phase_ns and as span labels in the Chrome-trace export.
enum class QueryPhase : uint8_t {
  kPlan = 0,      ///< Access-path choice / cost-model evaluation.
  kTraverse,      ///< Index traversal driver (frontier push/pop, routing).
  kDistanceEval,  ///< Metric evaluations over a node's entries.
  kPageRead,      ///< Buffer-pool fetches (including physical reads).
  kDecode,        ///< Node deserialization from page bytes.
  kCollect,       ///< Result collection / final sort.
  kPrefetch,      ///< Readahead of contiguous child page runs.
};

/// Number of QueryPhase values (for per-phase tally arrays).
inline constexpr size_t kNumQueryPhases = 7;

const char* ToString(QueryPhase phase);

/// Counters accumulated while executing one similarity query.
///
/// All indexes (M-tree, vp-tree, GNAT, linear scan) fill the first four
/// fields; `buffer_hits`/`buffer_misses` are nonzero only for page-backed
/// stores (PagedNodeStore), where they split `nodes_accessed` into pool
/// hits and physical PageFile reads.
struct QueryStats {
  uint64_t nodes_accessed = 0;         ///< I/O cost (node = one disk page).
  uint64_t distance_computations = 0;  ///< CPU cost.
  uint64_t nodes_pruned = 0;   ///< Subtrees eliminated without visiting them
                               ///< (covering-radius / parent-filter / k-NN
                               ///< bound / range-table / shell tests).
  uint64_t buffer_hits = 0;    ///< Node reads served from the buffer pool.
  uint64_t buffer_misses = 0;  ///< Node reads that hit the PageFile.

  /// Metric evaluations skipped because a witness (the M-tree's parent
  /// filter or cascade: a query distance and a stored distance) proved by
  /// the triangle inequality that the entry cannot qualify. Each such
  /// skip would have been one distance_computations increment.
  uint64_t distance_calcs_avoided_by_witness = 0;

  /// Per-phase wall-clock totals in nanoseconds, indexed by QueryPhase.
  /// Filled only when MCM_OBS is on; all-zero otherwise.
  std::array<uint64_t, kNumQueryPhases> phase_ns{};

  /// When non-null, search paths record per-node events (visits, prune
  /// reasons, buffer fetches) into this trace, and (with MCM_OBS on) phase
  /// timers append their begin/end spans to it for the Chrome-trace
  /// exporter. Owned by the caller; null (the default) keeps the query path
  /// free of observability work.
  QueryTrace* trace = nullptr;

  /// Computed + avoided evaluations: the count the cost models price.
  uint64_t PricedDistances() const {
    return distance_computations + distance_calcs_avoided_by_witness;
  }

  /// Nanoseconds spent in phase `p`.
  uint64_t PhaseNs(QueryPhase p) const {
    return phase_ns[static_cast<size_t>(p)];
  }

  /// Sum of all per-phase totals. Phases nest (kTraverse contains the
  /// distance-eval / page-read / decode spans it triggers), so this sum
  /// can exceed the query's wall time; compare individual phases instead.
  uint64_t TotalPhaseNs() const {
    uint64_t total = 0;
    for (uint64_t ns : phase_ns) total += ns;
    return total;
  }

  QueryStats& operator+=(const QueryStats& other) {
    nodes_accessed += other.nodes_accessed;
    distance_computations += other.distance_computations;
    nodes_pruned += other.nodes_pruned;
    buffer_hits += other.buffer_hits;
    buffer_misses += other.buffer_misses;
    distance_calcs_avoided_by_witness +=
        other.distance_calcs_avoided_by_witness;
    for (size_t i = 0; i < kNumQueryPhases; ++i) {
      phase_ns[i] += other.phase_ns[i];
    }
    return *this;
  }
};

/// Zeroes the counters of `st` while preserving an attached trace. Search
/// entry points use this instead of `*st = QueryStats{}` so callers can
/// attach a trace before issuing the query.
inline void ResetCounters(QueryStats* st) {
  QueryTrace* trace = st->trace;
  *st = QueryStats{};
  st->trace = trace;
}

}  // namespace mcm

#endif  // MCM_COMMON_QUERY_STATS_H_
