#include "mcm/obs/telemetry.h"

#include <fstream>

#include "mcm/common/env.h"
#include "mcm/obs/export.h"
#include "mcm/obs/metrics.h"

namespace mcm {

namespace {

// -1-style override globals, same idiom as g_obs_override in metrics.cc:
// namespace-scope (not function-static) so the mutable-static lint rule
// stays satisfied, set only from single-threaded test/tool setup code.
bool g_trace_out_overridden = false;
std::string g_trace_out_override;
bool g_metrics_out_overridden = false;
std::string g_metrics_out_override;

}  // namespace

const std::string& TraceOutPath() {
  if (g_trace_out_overridden) {
    return g_trace_out_override;
  }
  static const std::string* const path =
      new std::string(GetEnvString("MCM_TRACE_OUT", ""));
  return *path;
}

const std::string& MetricsOutPath() {
  if (g_metrics_out_overridden) {
    return g_metrics_out_override;
  }
  static const std::string* const path =
      new std::string(GetEnvString("MCM_METRICS_OUT", ""));
  return *path;
}

void SetTraceOutForTesting(const std::string& path) {
  g_trace_out_overridden = true;
  g_trace_out_override = path;
}

void SetMetricsOutForTesting(const std::string& path) {
  g_metrics_out_overridden = true;
  g_metrics_out_override = path;
}

TelemetrySink& TelemetrySink::Global() {
  static TelemetrySink* const sink = new TelemetrySink();
  return *sink;
}

void TelemetrySink::Submit(const QueryTrace& trace, uint64_t query_id) {
  if (trace.spans().empty()) {
    return;
  }
  MutexLock lock(&mu_);
  queries_.push_back(QuerySpans{query_id, trace.spans()});
}

std::vector<QuerySpans> TelemetrySink::Snapshot() const {
  MutexLock lock(&mu_);
  return queries_;
}

void TelemetrySink::Clear() {
  MutexLock lock(&mu_);
  queries_.clear();
}

size_t TelemetrySink::size() const {
  MutexLock lock(&mu_);
  return queries_.size();
}

void WriteChromeTrace(std::ostream& out,
                      const std::vector<QuerySpans>& queries) {
  // Rebase timestamps so the trace starts near t=0 (Chrome renders
  // microseconds since trace start).
  uint64_t base_ns = 0;
  bool have_base = false;
  for (const auto& q : queries) {
    for (const auto& s : q.spans) {
      if (!have_base || s.start_ns < base_ns) {
        base_ns = s.start_ns;
        have_base = true;
      }
    }
  }
  out << "[";
  bool first = true;
  for (const auto& q : queries) {
    for (const auto& s : q.spans) {
      if (!first) {
        out << ",\n ";
      }
      first = false;
      JsonObjectBuilder event;
      event.Add("name", ToString(s.phase));
      event.Add("cat", "query");
      event.Add("ph", "X");
      event.Add("ts", static_cast<double>(s.start_ns - base_ns) / 1e3);
      event.Add("dur", static_cast<double>(s.end_ns - s.start_ns) / 1e3);
      event.Add("pid", static_cast<uint64_t>(1));
      event.Add("tid", static_cast<uint64_t>(s.lane));
      event.AddRaw("args", "{\"query\":" + std::to_string(q.query_id) + "}");
      out << event.Build();
    }
  }
  out << "]\n";
}

int FlushTelemetry() {
  int written = 0;
  const std::string& trace_path = TraceOutPath();
  if (!trace_path.empty()) {
    std::ofstream out(trace_path);
    if (out) {
      WriteChromeTrace(out, TelemetrySink::Global().Snapshot());
      TelemetrySink::Global().Clear();
      ++written;
    }
  }
  const std::string& metrics_path = MetricsOutPath();
  if (!metrics_path.empty()) {
    std::ofstream out(metrics_path);
    if (out) {
      MetricsRegistry::Global().WritePrometheus(out);
      ++written;
    }
  }
  return written;
}

}  // namespace mcm
