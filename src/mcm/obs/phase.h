// Phase timers: ScopedSpan stamps a QueryPhase interval into
// QueryStats::phase_ns (and, when a QueryTrace is attached, appends a
// begin/end span to it for the Chrome-trace exporter). Everything is gated
// on ObsEnabled(): with MCM_OBS off a span costs one cached branch and
// never touches the clock, so query answers and counters stay
// bit-identical.

#ifndef MCM_OBS_PHASE_H_
#define MCM_OBS_PHASE_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "mcm/common/clock.h"
#include "mcm/common/query_stats.h"
#include "mcm/obs/metrics.h"
#include "mcm/obs/trace.h"

namespace mcm {

/// RAII phase timer. Arms only when `st` is non-null and ObsEnabled();
/// otherwise construction and destruction are a cached branch each.
/// On destruction adds the elapsed nanoseconds to st->phase_ns[phase] and,
/// if st->trace is attached, appends the interval to its spans.
class ScopedSpan {
 public:
  ScopedSpan(QueryStats* st, QueryPhase phase) : st_(nullptr), phase_(phase) {
    if (st != nullptr && ObsEnabled()) {
      st_ = st;
      start_ns_ = MonotonicNanos();
    }
  }

  ~ScopedSpan() {
    if (st_ == nullptr) return;
    const uint64_t end_ns = MonotonicNanos();
    st_->phase_ns[static_cast<size_t>(phase_)] += end_ns - start_ns_;
    if (st_->trace != nullptr) {
      st_->trace->AppendSpan(phase_, start_ns_, end_ns);
    }
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// True when this span is actually recording (obs on and stats attached).
  bool armed() const { return st_ != nullptr; }

 private:
  QueryStats* st_;
  QueryPhase phase_;
  uint64_t start_ns_ = 0;
};

/// Manual start/stop variant of ScopedSpan for non-lexical phases.
class PhaseTimer {
 public:
  explicit PhaseTimer(QueryStats* st) : st_(st) {}

  void Start(QueryPhase phase) {
    if (st_ == nullptr || !ObsEnabled()) return;
    phase_ = phase;
    start_ns_ = MonotonicNanos();
    running_ = true;
  }

  void Stop() {
    if (!running_) return;
    running_ = false;
    const uint64_t end_ns = MonotonicNanos();
    st_->phase_ns[static_cast<size_t>(phase_)] += end_ns - start_ns_;
    if (st_->trace != nullptr) {
      st_->trace->AppendSpan(phase_, start_ns_, end_ns);
    }
  }

 private:
  QueryStats* st_;
  QueryPhase phase_ = QueryPhase::kPlan;
  uint64_t start_ns_ = 0;
  bool running_ = false;
};

/// Metrics-registry name of the latency histogram for `phase`
/// ("mcm.phase.<name>.us").
std::string PhaseHistogramName(QueryPhase phase);

/// Feeds st.phase_ns into the global registry's per-phase latency
/// histograms (microseconds), tagging each observation with `query_id` as
/// the Prometheus exemplar. No-op when obs is off or all totals are zero.
void ObservePhaseTimes(const QueryStats& st, uint64_t query_id);

}  // namespace mcm

#endif  // MCM_OBS_PHASE_H_
