// Concurrent batch query executor. A BatchExecutor owns a fixed thread
// pool and fans a vector of queries out over an immutable MetricIndex;
// every query writes its answer and its QueryStats into its own slot, so
// results are position-stable and the merged totals — accumulated in query
// order after the pool drains — are bit-identical to a sequential loop
// running the same queries (integer counters, per-query isolation, and the
// thread-safe storage read path guarantee it; buffer hit/miss splits on a
// shared pool remain schedule-dependent, though their sum does not).
//
// Thread count resolution: ExecutorOptions::num_threads, else the
// MCM_THREADS environment variable, else the hardware concurrency.
// Optional per-query traces (ExecutorOptions::trace_capacity > 0, or
// MCM_OBS on with a Chrome-trace path configured) are allocated one per
// query up front and merged deterministically by query position — worker
// threads never share a trace.

#ifndef MCM_ENGINE_EXECUTOR_H_
#define MCM_ENGINE_EXECUTOR_H_

#include <atomic>
#include <cstddef>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "mcm/common/mutex.h"
#include "mcm/common/query_stats.h"
#include "mcm/common/stopwatch.h"
#include "mcm/common/thread_annotations.h"
#include "mcm/engine/metric_index.h"
#include "mcm/engine/search_core.h"
#include "mcm/obs/telemetry.h"
#include "mcm/obs/trace.h"

namespace mcm {
namespace engine {

/// Resolves the worker count: `requested` when > 0, else the MCM_THREADS
/// environment variable, else std::thread::hardware_concurrency() (>= 1).
size_t ResolveThreadCount(size_t requested);

/// Resolves the *build* worker count (bulk loading): `requested` when > 0,
/// else the MCM_BUILD_THREADS environment variable, else 1 — construction
/// stays sequential unless explicitly parallelized, and the parallel build
/// is bit-identical to the sequential one at any thread count.
size_t ResolveBuildThreadCount(size_t requested);

/// Fixed pool of worker threads executing index-parallel jobs. Workers are
/// spawned once at construction; ParallelFor posts one job at a time and
/// blocks until every iteration completed. Iterations are claimed
/// dynamically (an atomic cursor), so the schedule is nondeterministic but
/// the set of executed indices is exactly [0, count).
class ThreadPool {
 public:
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t size() const { return workers_.size(); }

  /// Runs task(i) for every i in [0, count); returns when all are done.
  /// `task` must be callable from multiple threads concurrently. The first
  /// exception thrown by any iteration is rethrown here (remaining
  /// iterations still run to completion). Re-entrant submits — ParallelFor
  /// called from inside a task — run the nested iterations inline on the
  /// calling worker (every pool thread is already busy; waiting on them
  /// from one of them would deadlock).
  void ParallelFor(size_t count, const std::function<void(size_t)>& task)
      MCM_EXCLUDES(mu_);

 private:
  void WorkerLoop() MCM_EXCLUDES(mu_);

  Mutex mu_;
  CondVar work_cv_;
  CondVar done_cv_;
  /// Current job, or null between jobs.
  const std::function<void(size_t)>* task_ MCM_GUARDED_BY(mu_) = nullptr;
  size_t task_count_ MCM_GUARDED_BY(mu_) = 0;
  std::atomic<size_t> next_{0};
  /// Workers inside the current job.
  size_t active_workers_ MCM_GUARDED_BY(mu_) = 0;
  /// Job sequence number.
  uint64_t generation_ MCM_GUARDED_BY(mu_) = 0;
  bool shutdown_ MCM_GUARDED_BY(mu_) = false;
  std::exception_ptr first_error_ MCM_GUARDED_BY(mu_);
  std::vector<std::thread> workers_;
};

/// Batch executor configuration.
struct ExecutorOptions {
  /// Worker threads; 0 = MCM_THREADS env var, else hardware concurrency.
  size_t num_threads = 0;
  /// When > 0, attach a QueryTrace of this capacity to every query. With
  /// MCM_OBS on and MCM_TRACE_OUT configured, every query gets one anyway
  /// (of the default capacity when this is 0), and the completed traces go
  /// to TelemetrySink::Global() for the Chrome-trace export.
  size_t trace_capacity = 0;
};

/// Everything a batch run produces. `results[i]` and `per_query[i]` belong
/// to `queries[i]`; `totals` is the per-query stats summed in query order.
template <typename Object>
struct BatchResult {
  std::vector<std::vector<SearchResult<Object>>> results;
  std::vector<QueryStats> per_query;
  QueryStats totals;
  std::vector<QueryTrace> traces;  ///< One per query when tracing is on.
  /// Per-query wall time in microseconds, measured on the worker that ran
  /// the query. Individual queries overlap, so these sum to more than
  /// wall_seconds under concurrency — they are the tail-latency signal
  /// (p50/p95/p99), not a throughput measure.
  std::vector<double> latencies_us;
  double wall_seconds = 0.0;       ///< Wall time of the parallel section.

  /// Queries per second over the parallel section.
  double Qps() const {
    return wall_seconds > 0.0
               ? static_cast<double>(results.size()) / wall_seconds
               : 0.0;
  }
};

/// Runs query batches over an immutable index through a fixed thread pool.
/// The index must outlive the executor and must not be mutated while a
/// batch is in flight.
template <typename Index>
  requires MetricIndex<Index>
class BatchExecutor {
 public:
  using Object = typename Index::Object;

  explicit BatchExecutor(const Index& index, ExecutorOptions options = {})
      : index_(index),
        options_(options),
        pool_(ResolveThreadCount(options.num_threads)) {}

  /// range(Q_i, radius) for every query, answered in parallel.
  BatchResult<Object> RangeSearchBatch(const std::vector<Object>& queries,
                                       double radius) const {
    return Run(queries, [this, radius](const Object& q, QueryStats* st) {
      return index_.RangeSearch(q, radius, st);
    });
  }

  /// NN(Q_i, k) for every query, answered in parallel.
  BatchResult<Object> KnnSearchBatch(const std::vector<Object>& queries,
                                     size_t k) const {
    return Run(queries, [this, k](const Object& q, QueryStats* st) {
      return index_.KnnSearch(q, k, st);
    });
  }

  size_t num_threads() const { return pool_.size(); }
  const Index& index() const { return index_; }

 private:
  template <typename QueryFn>
  BatchResult<Object> Run(const std::vector<Object>& queries,
                          const QueryFn& fn) const {
    BatchResult<Object> batch;
    batch.results.resize(queries.size());
    batch.per_query.resize(queries.size());
    const bool export_spans = ObsEnabled() && !TraceOutPath().empty();
    if (options_.trace_capacity > 0 || export_spans) {
      batch.traces.assign(queries.size(),
                          QueryTrace(options_.trace_capacity > 0
                                         ? options_.trace_capacity
                                         : QueryTrace::kDefaultCapacity));
    }
    batch.latencies_us.resize(queries.size(), 0.0);
    Stopwatch watch;
    pool_.ParallelFor(queries.size(), [&](size_t i) {
      QueryStats* st = &batch.per_query[i];
      if (!batch.traces.empty()) {
        st->trace = &batch.traces[i];
      }
      Stopwatch query_watch;
      batch.results[i] = fn(queries[i], st);
      batch.latencies_us[i] = query_watch.ElapsedSeconds() * 1e6;
      st->trace = nullptr;  // The trace lives in batch.traces, not here.
    });
    batch.wall_seconds = watch.ElapsedSeconds();
    // Deterministic merge: fold per-query counters in query order.
    for (const QueryStats& st : batch.per_query) {
      batch.totals += st;
    }
    if (export_spans) {
      // Feed per-phase histograms and the Chrome-trace sink, in query
      // order so exports are deterministic given a serial schedule.
      for (size_t i = 0; i < queries.size(); ++i) {
        ObservePhaseTimes(batch.per_query[i], /*query_id=*/i);
        TelemetrySink::Global().Submit(batch.traces[i], /*query_id=*/i);
      }
    }
    return batch;
  }

  const Index& index_;
  ExecutorOptions options_;
  mutable ThreadPool pool_;
};

}  // namespace engine
}  // namespace mcm

#endif  // MCM_ENGINE_EXECUTOR_H_
