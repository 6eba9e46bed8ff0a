// Sequential-scan baseline: answers the same similarity queries as the
// metric indexes by comparing the query against every object. This is the
// comparator every index must beat, the oracle the correctness tests check
// against, and the "sequential" arm of access-path selection
// (cost/access_path.h): it always costs exactly n distance computations.
//
// Answers flow through the engine's collectors, so result ordering
// (distance, then oid on ties) is identical to every tree index — the
// oracle comparisons in the tests can assert oid equality, not just
// distance equality.

#ifndef MCM_BASELINE_LINEAR_SCAN_H_
#define MCM_BASELINE_LINEAR_SCAN_H_

#include <vector>

#include "mcm/common/query_stats.h"
#include "mcm/engine/search_core.h"
#include "mcm/engine/witness.h"

namespace mcm {

template <typename Traits>
class LinearScan {
 public:
  using Object = typename Traits::Object;
  using Metric = typename Traits::Metric;
  using Result = SearchResult<Object>;

  /// Keeps a reference to `objects`; the caller owns their lifetime.
  LinearScan(const std::vector<Object>& objects, Metric metric)
      : objects_(objects), metric_(std::move(metric)) {}

  /// All objects within `radius`, sorted by distance. Always performs
  /// exactly size() distance computations.
  std::vector<Result> RangeSearch(const Object& query, double radius,
                                  QueryStats* stats = nullptr) const {
    QueryStats local;
    QueryStats* st = stats ? stats : &local;
    ResetCounters(st);
    if (radius < 0.0) {
      return {};
    }
    engine::RangeCollector<Object> collector(radius);
    Scan(query, collector, st);
    return collector.Take();
  }

  /// The k nearest objects, sorted by distance.
  std::vector<Result> KnnSearch(const Object& query, size_t k,
                                QueryStats* stats = nullptr) const {
    QueryStats local;
    QueryStats* st = stats ? stats : &local;
    ResetCounters(st);
    if (k == 0) {
      return {};
    }
    engine::KnnCollector<Object> collector(k);
    Scan(query, collector, st);
    return collector.Take();
  }

  size_t size() const { return objects_.size(); }

 private:
  template <typename Collector>
  void Scan(const Object& query, Collector& collector, QueryStats* st) const {
    const auto eval = PrepareQuery(metric_, query);
    for (size_t i = 0; i < objects_.size(); ++i) {
      // Early exit past the collector bound via the engine's counted entry
      // point (engine/witness.h); a scan stores no witness distances, so
      // the cost stays exactly the n computations the access-path model
      // assumes.
      collector.Offer(static_cast<uint64_t>(i), objects_[i],
                      engine::CountedDistanceWithin(eval, objects_[i],
                                                    collector.Bound(), st));
    }
  }

  const std::vector<Object>& objects_;
  Metric metric_;
};

}  // namespace mcm

#endif  // MCM_BASELINE_LINEAR_SCAN_H_
