// Export side of the phase-timer layer: RunObservedQuery (one traced,
// timed query, handed to the exporters), a process-wide sink collecting
// per-query spans, a Chrome-trace (Perfetto JSON array) writer, and a
// Prometheus snapshot writer for the metrics registry. Both exports hang
// off environment knobs — MCM_TRACE_OUT=<path> and MCM_METRICS_OUT=<path>
// — so any bench or example flushes them by calling FlushTelemetry() (the
// BenchObserver does this in Finish()).

#ifndef MCM_OBS_TELEMETRY_H_
#define MCM_OBS_TELEMETRY_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "mcm/common/mutex.h"
#include "mcm/common/query_stats.h"
#include "mcm/common/stopwatch.h"
#include "mcm/common/thread_annotations.h"
#include "mcm/obs/phase.h"
#include "mcm/obs/trace.h"

namespace mcm {

/// Path of MCM_TRACE_OUT (empty = Chrome-trace export disabled). Read once
/// and cached; override with SetTraceOutForTesting.
const std::string& TraceOutPath();

/// Path of MCM_METRICS_OUT (empty = Prometheus export disabled).
const std::string& MetricsOutPath();

/// Overrides the cached export paths (tests/tools only; not thread-safe
/// with concurrent readers). Empty string disables the export.
void SetTraceOutForTesting(const std::string& path);
void SetMetricsOutForTesting(const std::string& path);

/// One query's spans as submitted to the sink.
struct QuerySpans {
  uint64_t query_id = 0;
  std::vector<PhaseSpan> spans;
};

/// Process-wide collector of completed query spans. RunObservedQuery and
/// the batch executor submit each query's trace here after the query
/// finishes; FlushTelemetry() serializes the accumulated spans as a Chrome
/// trace. Mutex-guarded: submissions may come from several threads.
class TelemetrySink {
 public:
  static TelemetrySink& Global();

  /// Copies `trace`'s spans under `query_id`. No-op when it holds none.
  void Submit(const QueryTrace& trace, uint64_t query_id)
      MCM_EXCLUDES(mu_);

  /// Snapshot of everything submitted since the last Clear().
  std::vector<QuerySpans> Snapshot() const MCM_EXCLUDES(mu_);

  void Clear() MCM_EXCLUDES(mu_);

  size_t size() const MCM_EXCLUDES(mu_);

 private:
  mutable Mutex mu_;
  std::vector<QuerySpans> queries_ MCM_GUARDED_BY(mu_);
};

/// Serializes `queries` as a Chrome-trace JSON array of complete events
/// (ph:"X", ts/dur in microseconds, tid = recording thread's lane, with
/// the query id in args). Loadable in chrome://tracing and Perfetto.
void WriteChromeTrace(std::ostream& out,
                      const std::vector<QuerySpans>& queries);

/// Runs one observed query: clears `trace`, attaches it to a fresh
/// `*stats`, and times `run(stats)` into `*latency_us`. Then adds
/// `plan_ns` — planning the caller timed before the query, which the
/// search's ResetCounters would otherwise have wiped — to phase kPlan,
/// feeds the per-phase histograms (ObservePhaseTimes) and, when a
/// Chrome-trace path is configured, submits the trace to
/// TelemetrySink::Global(), both under `query_id`. Returns what `run`
/// returns; `stats->trace` is detached again.
template <typename RunFn>
auto RunObservedQuery(const RunFn& run, uint64_t query_id, QueryTrace* trace,
                      QueryStats* stats, double* latency_us,
                      uint64_t plan_ns = 0) {
  trace->Clear();
  *stats = QueryStats{};
  stats->trace = trace;
  const Stopwatch watch;
  auto result = run(stats);
  *latency_us = static_cast<double>(watch.ElapsedNanos()) / 1e3;
  stats->trace = nullptr;
  stats->phase_ns[static_cast<size_t>(QueryPhase::kPlan)] += plan_ns;
  ObservePhaseTimes(*stats, query_id);
  // Only a configured path ever flushes the sink, so without one the
  // spans would pile up unread.
  if (!TraceOutPath().empty()) {
    TelemetrySink::Global().Submit(*trace, query_id);
  }
  return result;
}

/// Writes the pending exports, if configured: the global sink's spans as a
/// Chrome trace to TraceOutPath() and the global registry as a Prometheus
/// snapshot to MetricsOutPath(). Returns the number of files written.
/// Clears the sink after a successful trace write.
int FlushTelemetry();

}  // namespace mcm

#endif  // MCM_OBS_TELEMETRY_H_
