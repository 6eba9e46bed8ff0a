// Shared experiment harness: run a query workload against an index,
// average the paper's cost counters, and format model-vs-measured rows.
//
// The observer-aware overloads additionally run every query through
// RunObservedQuery (obs/telemetry.h), which attaches a QueryTrace, and
// forward one QueryObservation per executed query to a BenchObserver,
// which turns them into the BENCH_<name>.json artifact (see
// obs/bench_observer.h). With observability disabled the overloads fall
// back to the plain measurement loop.

#ifndef MCM_BENCH_UTIL_EXPERIMENT_H_
#define MCM_BENCH_UTIL_EXPERIMENT_H_

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "mcm/common/numeric.h"
#include "mcm/common/query_stats.h"
#include "mcm/engine/executor.h"
#include "mcm/obs/bench_observer.h"
#include "mcm/obs/telemetry.h"
#include "mcm/obs/trace.h"

namespace mcm {

/// Workload-averaged costs.
struct MeasuredCosts {
  double avg_nodes = 0.0;    ///< Mean node reads per query (I/O cost).
  double avg_dists = 0.0;    ///< Mean computed + avoided (CPU cost).
  double avg_avoided = 0.0;  ///< Mean avoided evaluations among those.
  double avg_results = 0.0;  ///< Mean result cardinality.
  double avg_kth_distance = 0.0;  ///< k-NN only: mean k-th NN distance.
  double avg_pruned = 0.0;   ///< Mean subtrees eliminated without a visit.
  uint64_t buffer_hits = 0;    ///< Total buffer-pool hits (paged trees).
  uint64_t buffer_misses = 0;  ///< Total buffer-pool misses (paged trees).
  size_t num_queries = 0;

  /// avg_dists - avg_avoided, exactly: from the integer totals.
  double AvgComputed() const {
    const double n = static_cast<double>(std::max<size_t>(num_queries, 1));
    return (std::round(avg_dists * n) - std::round(avg_avoided * n)) / n;
  }
};

namespace internal {

/// Folds one query's counters into the running workload totals.
inline void Accumulate(const QueryStats& stats, size_t results,
                       MeasuredCosts* costs) {
  costs->avg_nodes += static_cast<double>(stats.nodes_accessed);
  costs->avg_dists += static_cast<double>(stats.PricedDistances());
  costs->avg_avoided +=
      static_cast<double>(stats.distance_calcs_avoided_by_witness);
  costs->avg_results += static_cast<double>(results);
  costs->avg_pruned += static_cast<double>(stats.nodes_pruned);
  costs->buffer_hits += stats.buffer_hits;
  costs->buffer_misses += stats.buffer_misses;
}

/// Divides the accumulated sums by the workload size.
inline void FinishAverages(size_t num_queries, MeasuredCosts* costs) {
  if (num_queries == 0) return;
  const double n = static_cast<double>(num_queries);
  costs->avg_nodes /= n;
  costs->avg_dists /= n;
  costs->avg_avoided /= n;
  costs->avg_results /= n;
  costs->avg_kth_distance /= n;
  costs->avg_pruned /= n;
}

}  // namespace internal

/// Runs range(Q, radius) for every query object and averages the counters.
template <typename Tree, typename Object>
MeasuredCosts MeasureRange(const Tree& tree,
                           const std::vector<Object>& queries,
                           double radius) {
  MeasuredCosts costs;
  costs.num_queries = queries.size();
  for (const Object& q : queries) {
    QueryStats stats;
    const auto results = tree.RangeSearch(q, radius, &stats);
    internal::Accumulate(stats, results.size(), &costs);
  }
  internal::FinishAverages(queries.size(), &costs);
  return costs;
}

/// Runs NN(Q, k) for every query object and averages the counters; the k-th
/// NN distance of each query is averaged into avg_kth_distance.
template <typename Tree, typename Object>
MeasuredCosts MeasureKnn(const Tree& tree, const std::vector<Object>& queries,
                         size_t k) {
  MeasuredCosts costs;
  costs.num_queries = queries.size();
  for (const Object& q : queries) {
    QueryStats stats;
    const auto results = tree.KnnSearch(q, k, &stats);
    internal::Accumulate(stats, results.size(), &costs);
    if (!results.empty()) {
      costs.avg_kth_distance += results.back().distance;
    }
  }
  internal::FinishAverages(queries.size(), &costs);
  return costs;
}

/// Observed variant: opens a case labelled `label` on `observer`, traces
/// every query, and reports per-query observations plus `predictions` for
/// residual tracking. Falls back to the plain loop when the observer is
/// disabled. `params` are echoed into every emitted record.
template <typename Tree, typename Object>
MeasuredCosts MeasureRange(
    const Tree& tree, const std::vector<Object>& queries, double radius,
    BenchObserver* observer, const std::string& label,
    std::vector<CostPrediction> predictions = {},
    const std::vector<std::pair<std::string, double>>& params = {}) {
  if (observer == nullptr || !observer->enabled()) {
    return MeasureRange(tree, queries, radius);
  }
  observer->BeginCase(label, params, std::move(predictions));
  MeasuredCosts costs;
  costs.num_queries = queries.size();
  QueryTrace trace;
  for (size_t i = 0; i < queries.size(); ++i) {
    QueryStats stats;
    double latency_us = 0.0;
    const auto results = RunObservedQuery(
        [&](QueryStats* st) {
          return tree.RangeSearch(queries[i], radius, st);
        },
        i, &trace, &stats, &latency_us);
    internal::Accumulate(stats, results.size(), &costs);
    observer->RecordQuery({"range", radius, 0, stats, results.size(),
                           latency_us, &trace});
  }
  observer->EndCase();
  internal::FinishAverages(queries.size(), &costs);
  return costs;
}

/// Observed variant of MeasureKnn; see the range overload.
template <typename Tree, typename Object>
MeasuredCosts MeasureKnn(
    const Tree& tree, const std::vector<Object>& queries, size_t k,
    BenchObserver* observer, const std::string& label,
    std::vector<CostPrediction> predictions = {},
    const std::vector<std::pair<std::string, double>>& params = {}) {
  if (observer == nullptr || !observer->enabled()) {
    return MeasureKnn(tree, queries, k);
  }
  observer->BeginCase(label, params, std::move(predictions));
  MeasuredCosts costs;
  costs.num_queries = queries.size();
  QueryTrace trace;
  for (size_t i = 0; i < queries.size(); ++i) {
    QueryStats stats;
    double latency_us = 0.0;
    const auto results = RunObservedQuery(
        [&](QueryStats* st) { return tree.KnnSearch(queries[i], k, st); }, i,
        &trace, &stats, &latency_us);
    internal::Accumulate(stats, results.size(), &costs);
    if (!results.empty()) {
      costs.avg_kth_distance += results.back().distance;
    }
    observer->RecordQuery(
        {"knn", 0.0, k, stats, results.size(), latency_us, &trace});
  }
  observer->EndCase();
  internal::FinishAverages(queries.size(), &costs);
  return costs;
}

/// One throughput measurement: the batch executor's wall clock and QPS over
/// the whole workload, plus the usual workload-averaged cost counters
/// (merged deterministically in query order by the executor).
struct ThroughputResult {
  MeasuredCosts costs;
  double wall_seconds = 0.0;  ///< Wall time of the parallel section.
  double qps = 0.0;           ///< Queries per second.
  size_t num_threads = 0;     ///< Resolved worker count.
  /// Per-query latency percentiles over the batch (worker-measured wall
  /// time per query; overlapping under concurrency — the tail signal).
  double latency_p50_us = 0.0;
  double latency_p95_us = 0.0;
  double latency_p99_us = 0.0;
};

/// Answers the whole range workload through a BatchExecutor at
/// `num_threads` workers and reports throughput. With an enabled observer,
/// opens a case labelled `label` (params get "threads" and "qps" appended)
/// and emits one observation per query carrying that query's own measured
/// wall time (BatchResult::latencies_us), so the summary record's
/// latency_us percentiles (p50/p95/p99) expose the tail under concurrency
/// instead of an amortized average.
template <typename Index, typename Object>
ThroughputResult MeasureRangeThroughput(
    const Index& index, const std::vector<Object>& queries, double radius,
    size_t num_threads, BenchObserver* observer = nullptr,
    const std::string& label = std::string(),
    std::vector<std::pair<std::string, double>> params = {}) {
  engine::ExecutorOptions options;
  options.num_threads = num_threads;
  const bool observed = observer != nullptr && observer->enabled();
  if (observed) {
    options.trace_capacity = QueryTrace::kDefaultCapacity;
  }
  const engine::BatchExecutor<Index> executor(index, options);
  const auto batch = executor.RangeSearchBatch(queries, radius);

  ThroughputResult out;
  out.num_threads = executor.num_threads();
  out.wall_seconds = batch.wall_seconds;
  out.qps = batch.Qps();
  out.latency_p50_us = internal::LatencyQuantile(batch.latencies_us, 0.50);
  out.latency_p95_us = internal::LatencyQuantile(batch.latencies_us, 0.95);
  out.latency_p99_us = internal::LatencyQuantile(batch.latencies_us, 0.99);
  out.costs.num_queries = queries.size();
  for (size_t i = 0; i < queries.size(); ++i) {
    internal::Accumulate(batch.per_query[i], batch.results[i].size(),
                         &out.costs);
  }
  internal::FinishAverages(queries.size(), &out.costs);

  if (observed) {
    params.emplace_back("threads", static_cast<double>(out.num_threads));
    params.emplace_back("qps", out.qps);
    observer->BeginCase(label, params, {});
    for (size_t i = 0; i < queries.size(); ++i) {
      observer->RecordQuery({"range", radius, 0, batch.per_query[i],
                             batch.results[i].size(), batch.latencies_us[i],
                             &batch.traces[i]});
    }
    observer->EndCase();
  }
  return out;
}

/// Formats the relative error of `estimate` vs `measured` as "p.p%".
std::string FormatErrorPercent(double estimate, double measured);

}  // namespace mcm

#endif  // MCM_BENCH_UTIL_EXPERIMENT_H_
