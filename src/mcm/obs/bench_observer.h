// BenchObserver: the bench-side entry point of the observability layer.
// When MCM_OBS=1 it opens BENCH_<name>.json (JSON Lines) in MCM_OBS_DIR
// (default "."), records one JSON record per executed query (actual
// counters, per-level node visits, prune breakdown, buffer hits, latency,
// and each cost model's prediction), accumulates predicted-vs-actual
// residuals, and emits one summary record per case plus a human-readable
// residual table. When MCM_OBS is unset every method is an immediate
// no-op, so benches can call it unconditionally.
//
// Env knobs: MCM_OBS (off by default), MCM_OBS_DIR (artifact directory).

#ifndef MCM_OBS_BENCH_OBSERVER_H_
#define MCM_OBS_BENCH_OBSERVER_H_

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "mcm/common/query_stats.h"
#include "mcm/obs/residual.h"
#include "mcm/obs/trace.h"

namespace mcm {

class JsonlWriter;

/// One cost model's prediction for the current case's query workload.
struct CostPrediction {
  std::string model;       ///< e.g. "N-MCM", "L-MCM", "vp-model".
  double nodes = -1.0;     ///< Predicted node reads; < 0 = not predicted.
  double dists = -1.0;     ///< Predicted distance computations; < 0 = none.
  std::vector<double> level_nodes;  ///< Per-level node reads (index 0 =
                                    ///< level 1); empty = not predicted.
};

/// Everything observed while executing one query.
struct QueryObservation {
  const char* kind = "range";  ///< "range" | "knn" | "complex".
  double radius = 0.0;         ///< Range/complex queries.
  size_t k = 0;                ///< k-NN queries.
  QueryStats stats;
  size_t results = 0;
  double latency_us = 0.0;
  /// The query's trace (per-level visits, prune reasons, drops); null when
  /// the query ran untraced. Read only during RecordQuery.
  const QueryTrace* trace = nullptr;
};

class BenchObserver {
 public:
  /// `bench_name` names the artifact files; nothing is opened (and no
  /// state is kept) unless observability is enabled.
  explicit BenchObserver(const std::string& bench_name);
  ~BenchObserver();

  BenchObserver(const BenchObserver&) = delete;
  BenchObserver& operator=(const BenchObserver&) = delete;

  bool enabled() const { return enabled_; }

  /// Starts a workload case (e.g. "D=10"). `params` are echoed into every
  /// record of the case; `predictions` seed the residual streams.
  void BeginCase(const std::string& label,
                 const std::vector<std::pair<std::string, double>>& params = {},
                 std::vector<CostPrediction> predictions = {});

  /// Records one executed query of the open case.
  void RecordQuery(const QueryObservation& obs);

  /// Closes the open case: writes its summary record and prints the
  /// residual table to stdout.
  void EndCase();

  /// Flushes everything (also ends an open case). Called by the destructor.
  void Finish();

  const std::string& artifact_path() const { return artifact_path_; }

 private:
  void WriteSummaryRecord();

  bool enabled_ = false;
  std::string bench_name_;
  std::string artifact_path_;
  std::unique_ptr<JsonlWriter> jsonl_;

  // Open-case state.
  bool case_open_ = false;
  std::string case_label_;
  std::vector<std::pair<std::string, double>> case_params_;
  std::vector<CostPrediction> predictions_;
  ResidualTracker residuals_;
  size_t case_queries_ = 0;
  double sum_nodes_ = 0.0;
  double sum_dists_ = 0.0;
  double sum_results_ = 0.0;
  double sum_pruned_ = 0.0;
  double sum_witness_avoided_ = 0.0;
  uint64_t sum_buffer_hits_ = 0;
  uint64_t sum_buffer_misses_ = 0;
  std::array<double, kNumQueryPhases> sum_phase_us_{};
  std::vector<double> latencies_us_;
  bool finished_ = false;
};

}  // namespace mcm

#endif  // MCM_OBS_BENCH_OBSERVER_H_
