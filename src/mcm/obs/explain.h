// EXPLAIN report: everything the cost model predicted about one query next
// to everything the instrumented execution measured — chosen access path
// and why, per-level N-MCM / L-MCM node and distance predictions with
// actuals and residuals, the prune-reason breakdown, and the phase-time
// table. The report itself is plain data; cost/explain.h fills it from an
// index + cost-model pair, and the renderers here produce the human (text)
// and machine (JSON, see scripts/explain_schema checks) forms.

#ifndef MCM_OBS_EXPLAIN_H_
#define MCM_OBS_EXPLAIN_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "mcm/common/query_stats.h"
#include "mcm/obs/trace.h"

namespace mcm {

/// One cost model's prediction for the explained query.
struct ExplainModelPrediction {
  std::string model;        ///< "nmcm" or "lmcm".
  double nodes = 0.0;       ///< Expected node reads.
  double distances = 0.0;   ///< Expected distance computations.
  std::vector<double> level_nodes;      ///< Index l-1 = level l (root = 1).
  std::vector<double> level_distances;  ///< Same layout.
};

/// Measured per-level tallies (from the query's trace).
struct ExplainLevelActual {
  uint64_t node_visits = 0;
  uint64_t distances = 0;        ///< Computed evaluations.
  uint64_t entries_scanned = 0;
  uint64_t entries_pruned = 0;   ///< Entries the parent filter skipped.
  uint64_t subtree_prunes = 0;
  uint64_t witness_avoided = 0;  ///< Evaluations cut by the witness cascade.
};

/// The full predicted-vs-actual story of one query execution.
struct ExplainReport {
  // Query.
  std::string kind;     ///< "range" or "knn".
  double radius = 0.0;  ///< Range queries.
  size_t k = 0;         ///< k-NN queries.

  // Index shape.
  size_t num_objects = 0;
  uint32_t height = 0;
  size_t num_nodes = 0;
  size_t node_size_bytes = 0;
  double d_plus = 0.0;  ///< BRM distance bound used as the root radius.

  // Plan: the optimizer's access-path decision and its cost estimates.
  std::string access_path;     ///< "index-scan" or "sequential-scan".
  double index_ms = 0.0;       ///< Predicted index-execution time.
  double sequential_ms = 0.0;  ///< Predicted sequential-scan time.

  // Model predictions (one entry per model; nmcm then lmcm).
  std::vector<ExplainModelPrediction> predictions;

  // Actuals.
  QueryStats stats;          ///< Counters + per-phase nanoseconds.
  size_t num_results = 0;
  double latency_us = 0.0;   ///< Wall time of the query call.
  std::vector<ExplainLevelActual> level_actuals;  ///< Index l-1 = level l.
  std::array<uint64_t, kNumPruneReasons> prunes_by_reason{};
  uint64_t trace_dropped = 0;
};

/// Human-readable rendering: summary lines plus aligned per-level and
/// phase-time tables.
std::string RenderExplainText(const ExplainReport& report);

/// One JSON object (parseable by obs/export.h's ParseJson) with the same
/// content; scripts/check_explain_json.py validates this shape.
std::string RenderExplainJson(const ExplainReport& report);

}  // namespace mcm

#endif  // MCM_OBS_EXPLAIN_H_
