// Per-query trace, the one observation record of a query: a capped ring
// buffer of events (node visits, subtree prunes, buffer-pool fetches),
// exact aggregate tallies that survive ring overflow, and the capped list
// of phase spans the phase timers (obs/phase.h) recorded. A QueryTrace is
// attached to a query by pointing QueryStats::trace at it; search paths
// emit events only when that pointer is non-null, so untraced queries pay
// one branch per event site.

#ifndef MCM_OBS_TRACE_H_
#define MCM_OBS_TRACE_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "mcm/common/query_stats.h"

namespace mcm {

/// Why a subtree (or leaf entry) was skipped without computing its distance.
enum class PruneReason : uint8_t {
  kNone = 0,
  kParentFilter,    ///< M-tree stored-parent-distance filter.
  kCoveringRadius,  ///< M-tree ball test d(Q,O_r) > r(N) + r_Q.
  kKnnBound,        ///< k-NN dynamic radius r_k cut the region off.
  kRangeTable,      ///< GNAT range-table elimination.
  kShellBound,      ///< vp-tree shell [lo, hi] misses the query ball.
  kWitness,         ///< Triangle-inequality bound from a reused witness
                    ///< distance (engine witness cascade).
};

/// Number of PruneReason values (for per-reason tally arrays).
inline constexpr size_t kNumPruneReasons = 7;

const char* ToString(PruneReason reason);

/// What a TraceEvent describes.
enum class TraceEventKind : uint8_t {
  kNodeVisit,    ///< A node was read and its entries examined.
  kPrune,        ///< A subtree was eliminated without visiting it.
  kBufferFetch,  ///< The storage layer served a page (hit or miss).
};

/// One trace event. Field meaning depends on `kind`:
///  kNodeVisit   — node, level, entries_scanned, entries_pruned, distances,
///                 witness_avoided.
///  kPrune       — node (the pruned child, when known), level, reason.
///  kBufferFetch — node (page id), buffer_hit.
struct TraceEvent {
  TraceEventKind kind = TraceEventKind::kNodeVisit;
  PruneReason reason = PruneReason::kNone;
  uint32_t level = 0;            ///< 1 = root; 0 = unknown.
  uint64_t node = 0;
  uint32_t entries_scanned = 0;  ///< Entries whose distance was computed.
  uint32_t entries_pruned = 0;   ///< Entries skipped by the parent filter.
  uint32_t distances = 0;        ///< Distance computations at this node.
  uint32_t witness_avoided = 0;  ///< Metric calls skipped by the cascade.
  bool buffer_hit = false;
};

/// Exact per-level aggregates (kept even when the event ring overflows).
struct TraceLevelTally {
  uint64_t node_visits = 0;
  uint64_t entries_scanned = 0;
  uint64_t entries_pruned = 0;
  uint64_t distances = 0;
  uint64_t subtree_prunes = 0;
  uint64_t witness_avoided = 0;
};

/// One completed phase interval. Timestamps are MonotonicNanos() values;
/// `lane` is a small dense id for the recording thread (Chrome-trace tid).
struct PhaseSpan {
  QueryPhase phase = QueryPhase::kPlan;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint32_t lane = 0;
};

/// A small dense id for the calling thread, stable for the thread's
/// lifetime. Used as the Chrome-trace thread lane.
uint32_t CurrentThreadLane();

/// Not thread-safe: each query owns its trace (the batch executor hands
/// every query its own).
class QueryTrace {
 public:
  static constexpr size_t kDefaultCapacity = 4096;

  /// `capacity` caps the retained events and, separately, the retained
  /// spans. Past it, older events are overwritten (ring buffer) and counted
  /// in dropped(); newer spans are dropped and counted in dropped_spans().
  /// Aggregates stay exact.
  explicit QueryTrace(size_t capacity = kDefaultCapacity);

  void RecordVisit(uint64_t node, uint32_t level, uint32_t entries_scanned,
                   uint32_t entries_pruned, uint32_t distances,
                   uint32_t witness_avoided = 0);
  void RecordPrune(uint64_t node, uint32_t level, PruneReason reason);
  void RecordBufferFetch(uint64_t node, bool hit);

  /// Appends a completed phase interval, tagged with the calling thread's
  /// lane; dropped (and counted) once capacity() spans are held.
  void AppendSpan(QueryPhase phase, uint64_t start_ns, uint64_t end_ns);

  /// Resets the trace, events and spans alike, for reuse on the next query.
  void Clear();

  /// Retained events in chronological order (oldest first). When the ring
  /// overflowed, the oldest dropped() events are missing from the front.
  std::vector<TraceEvent> Events() const;

  size_t size() const { return events_.size(); }
  size_t capacity() const { return capacity_; }
  uint64_t dropped() const { return dropped_; }

  uint64_t total_visits() const { return total_visits_; }
  uint64_t total_prunes() const { return total_prunes_; }
  uint64_t buffer_hits() const { return buffer_hits_; }
  uint64_t buffer_misses() const { return buffer_misses_; }

  /// Subtree prunes broken down by reason.
  const std::array<uint64_t, kNumPruneReasons>& prunes_by_reason() const {
    return prunes_by_reason_;
  }

  /// Index l-1 = tallies of level l (root = 1). Levels never seen are zero.
  const std::vector<TraceLevelTally>& levels() const { return levels_; }

  /// Node visits per level as doubles (index 0 = level 1) — the "actual"
  /// side of per-level residuals against the cost models.
  std::vector<double> LevelNodeVisits() const;

  /// Completed phase spans in the order they ended.
  const std::vector<PhaseSpan>& spans() const { return spans_; }
  uint64_t dropped_spans() const { return dropped_spans_; }

 private:
  void Push(const TraceEvent& event);
  TraceLevelTally& LevelAt(uint32_t level);

  size_t capacity_;
  std::vector<TraceEvent> events_;  // Ring once size() == capacity_.
  size_t next_ = 0;                 // Overwrite cursor when full.
  uint64_t dropped_ = 0;

  uint64_t total_visits_ = 0;
  uint64_t total_prunes_ = 0;
  uint64_t buffer_hits_ = 0;
  uint64_t buffer_misses_ = 0;
  std::array<uint64_t, kNumPruneReasons> prunes_by_reason_{};
  std::vector<TraceLevelTally> levels_;

  std::vector<PhaseSpan> spans_;
  uint64_t dropped_spans_ = 0;
};

}  // namespace mcm

#endif  // MCM_OBS_TRACE_H_
