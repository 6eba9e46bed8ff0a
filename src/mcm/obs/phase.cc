#include "mcm/obs/phase.h"

namespace mcm {

const char* ToString(QueryPhase phase) {
  switch (phase) {
    case QueryPhase::kPlan:
      return "plan";
    case QueryPhase::kTraverse:
      return "traverse";
    case QueryPhase::kDistanceEval:
      return "distance_eval";
    case QueryPhase::kPageRead:
      return "page_read";
    case QueryPhase::kDecode:
      return "decode";
    case QueryPhase::kCollect:
      return "collect";
    case QueryPhase::kPrefetch:
      return "prefetch";
  }
  return "unknown";
}

std::string PhaseHistogramName(QueryPhase phase) {
  return std::string("mcm.phase.") + ToString(phase) + ".us";
}

void ObservePhaseTimes(const QueryStats& st, uint64_t query_id) {
  if (!ObsEnabled()) return;
  auto& registry = MetricsRegistry::Global();
  for (size_t i = 0; i < kNumQueryPhases; ++i) {
    if (st.phase_ns[i] == 0) continue;
    const QueryPhase phase = static_cast<QueryPhase>(i);
    auto& hist = registry.GetHistogram(PhaseHistogramName(phase),
                                       DefaultLatencyBoundsUs());
    hist.ObserveWithExemplar(static_cast<double>(st.phase_ns[i]) / 1e3,
                             query_id);
  }
  if (st.distance_calcs_avoided_by_witness > 0) {
    registry.GetCounter("mcm.witness.avoided_distance_calcs")
        .Increment(st.distance_calcs_avoided_by_witness);
  }
}

}  // namespace mcm
