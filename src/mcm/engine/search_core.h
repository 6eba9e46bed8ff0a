// Shared traversal core of the metric query engine. Every index (M-tree,
// vp-tree, GNAT, linear scan) answers range and k-NN queries through the
// same three pieces defined here:
//
//  - SearchResult: the common answer record (object, external id, distance).
//  - Result collectors: RangeCollector keeps everything within a fixed
//    radius; KnnCollector maintains the max-heap of the k best candidates
//    and exposes the shrinking k-NN bound r_k. Both present the same
//    Bound()/Offer() protocol, so one traversal template serves both query
//    kinds.
//  - BestFirstSearch: the generic best-first driver. It owns the frontier
//    priority queue ordered by dmin (a lower bound on the distance from the
//    query to anything in the subtree), applies the optimal termination rule
//    (stop when the closest unexplored region lies beyond the collector's
//    bound — Hjaltason & Samet's algorithm, which the M-tree k-NN of the
//    paper instantiates), and delegates everything structure-specific to an
//    Expand callback: reading the node, offering data objects to the
//    collector, and pushing children with their per-structure lower bounds
//    (covering radius, vp shells, or the GNAT range table).
//
// With a fixed bound (RangeCollector) the driver degenerates to plain
// pruned traversal and visits exactly the nodes the recursive formulation
// visits, so cost counters are unchanged; with the shrinking k-NN bound it
// is the optimal best-first search.

#ifndef MCM_ENGINE_SEARCH_CORE_H_
#define MCM_ENGINE_SEARCH_CORE_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <queue>
#include <vector>

#include "mcm/common/query_stats.h"
#include "mcm/obs/phase.h"
#include "mcm/obs/trace.h"

namespace mcm {

/// One query answer: the object, its external id, and its distance to the
/// query object.
template <typename Object>
struct SearchResult {
  uint64_t oid = 0;
  Object object;
  double distance = 0.0;
};

namespace engine {

/// Orders results by distance, breaking ties by oid so every execution
/// (recursive, best-first, batched) reports an identical answer list.
template <typename Object>
inline bool ResultOrder(const SearchResult<Object>& a,
                        const SearchResult<Object>& b) {
  return a.distance != b.distance ? a.distance < b.distance : a.oid < b.oid;
}

/// Collector for range(Q, r): a fixed bound and an append-only result list.
template <typename Object>
class RangeCollector {
 public:
  explicit RangeCollector(double radius) : radius_(radius) {}

  /// The pruning bound never shrinks for a range query.
  double Bound() const { return radius_; }

  void Offer(uint64_t oid, const Object& object, double distance) {
    if (distance <= radius_) {
      results_.push_back({oid, object, distance});
    }
  }

  /// Returns the collected results sorted by increasing distance.
  std::vector<SearchResult<Object>> Take() {
    std::sort(results_.begin(), results_.end(), ResultOrder<Object>);
    return std::move(results_);
  }

 private:
  double radius_;
  std::vector<SearchResult<Object>> results_;
};

/// Collector for NN(Q, k): the max-heap of the k best candidates seen so
/// far; Bound() is the paper's dynamic search radius r_k.
template <typename Object>
class KnnCollector {
 public:
  explicit KnnCollector(size_t k) : k_(k) {}

  /// r_k: the k-th best distance so far (+inf until k candidates exist;
  /// -inf for the degenerate k = 0, which prunes everything).
  double Bound() const {
    if (heap_.size() < k_) return std::numeric_limits<double>::infinity();
    if (k_ == 0) return -std::numeric_limits<double>::infinity();
    return heap_.top().distance;
  }

  void Offer(uint64_t oid, const Object& object, double distance) {
    if (k_ == 0) return;
    if (distance <= Bound() || heap_.size() < k_) {
      heap_.push({oid, object, distance});
      if (heap_.size() > k_) heap_.pop();
    }
  }

  /// Returns the k best candidates sorted by increasing distance.
  std::vector<SearchResult<Object>> Take() {
    std::vector<SearchResult<Object>> results;
    results.reserve(heap_.size());
    while (!heap_.empty()) {
      results.push_back(heap_.top());
      heap_.pop();
    }
    std::sort(results.begin(), results.end(), ResultOrder<Object>);
    return results;
  }

 private:
  /// Heap "less": the top is the worst kept candidate — largest distance,
  /// and among distance ties the largest oid. Ties at the k-th distance
  /// are thereby resolved toward smaller oids no matter in which order the
  /// traversal encountered them, so every index (and every thread
  /// schedule) keeps the same k answers.
  struct MaxByDistance {
    bool operator()(const SearchResult<Object>& a,
                    const SearchResult<Object>& b) const {
      return ResultOrder(a, b);
    }
  };

  size_t k_;
  std::priority_queue<SearchResult<Object>, std::vector<SearchResult<Object>>,
                      MaxByDistance>
      heap_;
};

/// One unexplored region on the driver's frontier. `Handle` is the index's
/// node reference (M-tree: node id, query-parent distance and witness-path
/// link; the in-memory trees: a node pointer); `trace_id` identifies the
/// node in trace events (0 where the structure has no stable node ids).
template <typename Handle>
struct FrontierEntry {
  double dmin = 0.0;
  uint32_t level = 1;
  uint64_t trace_id = 0;
  Handle handle{};
};

/// The driver's frontier: a min-heap on dmin plus the prune bookkeeping the
/// Expand callbacks share.
template <typename Handle, typename Collector>
class Frontier {
 public:
  Frontier(Collector& collector, QueryStats* st)
      : collector_(collector), st_(st) {}

  void Push(double dmin, uint32_t level, uint64_t trace_id, Handle handle) {
    heap_.push({dmin, level, trace_id, std::move(handle)});
  }

  /// Pushes the region when its lower bound can still beat the collector's
  /// current bound; otherwise counts one pruned subtree under `reason`.
  void PushOrPrune(double dmin, uint32_t level, uint64_t trace_id,
                   Handle handle, PruneReason reason) {
    if (dmin <= collector_.Bound()) {
      Push(dmin, level, trace_id, std::move(handle));
    } else {
      ++st_->nodes_pruned;
      if (st_->trace != nullptr) {
        st_->trace->RecordPrune(trace_id, level, reason);
      }
    }
  }

  bool Empty() const { return heap_.empty(); }
  size_t Size() const { return heap_.size(); }

  FrontierEntry<Handle> PopMin() {
    FrontierEntry<Handle> top = heap_.top();
    heap_.pop();
    return top;
  }

 private:
  struct MinByDmin {
    bool operator()(const FrontierEntry<Handle>& a,
                    const FrontierEntry<Handle>& b) const {
      return a.dmin > b.dmin;
    }
  };

  Collector& collector_;
  QueryStats* st_;
  std::priority_queue<FrontierEntry<Handle>, std::vector<FrontierEntry<Handle>>,
                      MinByDmin>
      heap_;
};

/// Generic best-first traversal. Seeds the frontier with `root`, pops
/// regions in increasing-dmin order, and stops (pruning the whole remaining
/// frontier) as soon as the closest region lies beyond the collector's
/// bound. `expand` receives the popped entry and the frontier; it reads the
/// node, offers its data objects to the collector, and pushes children via
/// Push/PushOrPrune with their structure-specific lower bounds.
template <typename Handle, typename Collector, typename Expand>
void BestFirstSearch(Handle root, uint64_t root_trace_id, Collector& collector,
                     QueryStats* st, Expand&& expand) {
  // The traverse phase covers the whole driver loop; Expand callbacks carve
  // the nested distance-eval / page-read / decode phases out of it.
  ScopedSpan traverse_span(st, QueryPhase::kTraverse);
  Frontier<Handle, Collector> frontier(collector, st);
  frontier.Push(0.0, /*level=*/1, root_trace_id, std::move(root));
  while (!frontier.Empty()) {
    const FrontierEntry<Handle> item = frontier.PopMin();
    if (item.dmin > collector.Bound()) {
      // No remaining region can improve the answer: the popped item and
      // everything still queued are cut off by the dynamic bound.
      st->nodes_pruned += 1 + frontier.Size();
      if (st->trace != nullptr) {
        st->trace->RecordPrune(item.trace_id, item.level,
                               PruneReason::kKnnBound);
        while (!frontier.Empty()) {
          const FrontierEntry<Handle> rest = frontier.PopMin();
          st->trace->RecordPrune(rest.trace_id, rest.level,
                                 PruneReason::kKnnBound);
        }
      }
      break;
    }
    expand(item, frontier);
  }
}

}  // namespace engine
}  // namespace mcm

#endif  // MCM_ENGINE_SEARCH_CORE_H_
