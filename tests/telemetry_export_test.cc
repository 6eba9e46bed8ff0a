// Exporter contracts under concurrency: a 4-worker batch with tracing on
// yields a Chrome-trace JSON that parses, whose spans form a laminar
// (properly nesting) family within each thread lane; and the Prometheus
// snapshot reports exactly the registry's tallies — counter values,
// histogram _count/_sum, and the exemplar query ids.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "mcm/dataset/vector_datasets.h"
#include "mcm/engine/executor.h"
#include "mcm/metric/traits.h"
#include "mcm/mtree/mtree.h"
#include "mcm/obs/export.h"
#include "mcm/obs/metrics.h"
#include "mcm/obs/phase.h"
#include "mcm/obs/telemetry.h"

namespace mcm {
namespace {

using Traits = VectorTraits<L2Distance>;

class ObsGuard {
 public:
  explicit ObsGuard(bool enabled) : previous_(ObsEnabled()) {
    SetObsEnabledForTesting(enabled);
  }
  ~ObsGuard() { SetObsEnabledForTesting(previous_); }

 private:
  bool previous_;
};

MTree<Traits> BuildTree(size_t n = 500) {
  MTreeOptions options;
  options.node_size_bytes = 512;
  MTree<Traits> tree{L2Distance{}, options};
  const auto data =
      GenerateVectorDataset(VectorDatasetKind::kClustered, n, 4, 7);
  for (size_t i = 0; i < data.size(); ++i) tree.Insert(data[i], i);
  return tree;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Runs one 4-worker batch with a Chrome-trace path configured, which
/// makes the executor trace every query and submit its spans, and returns
/// the sink's snapshot. Nothing is written to the path without a flush.
std::vector<QuerySpans> RunTracedBatch(size_t num_queries = 32) {
  const auto tree = BuildTree();
  const auto queries = GenerateVectorDataset(VectorDatasetKind::kClustered,
                                             num_queries, 4, 11);
  engine::ExecutorOptions options;
  options.num_threads = 4;
  const engine::BatchExecutor<MTree<Traits>> executor(tree, options);
  SetTraceOutForTesting("telemetry_export_test_unflushed.json");
  const auto batch = executor.RangeSearchBatch(queries, 0.4);
  SetTraceOutForTesting("");
  EXPECT_EQ(batch.results.size(), num_queries);
  EXPECT_EQ(batch.traces.size(), num_queries);
  return TelemetrySink::Global().Snapshot();
}

TEST(TelemetrySink, CollectsEveryTracedQuery) {
  ObsGuard obs(true);
  TelemetrySink::Global().Clear();
  const auto snapshot = RunTracedBatch();
  EXPECT_EQ(snapshot.size(), 32u);
  for (const auto& q : snapshot) {
    EXPECT_FALSE(q.spans.empty());
  }
  TelemetrySink::Global().Clear();
  EXPECT_EQ(TelemetrySink::Global().size(), 0u);
}

TEST(ChromeTrace, SpansNestPerThreadLane) {
  ObsGuard obs(true);
  TelemetrySink::Global().Clear();
  const auto snapshot = RunTracedBatch();

  // Each query runs on one worker; within a (query, lane) pair any two
  // spans must be disjoint or strictly contained (a laminar family).
  size_t checked_pairs = 0;
  for (const auto& q : snapshot) {
    for (size_t i = 0; i < q.spans.size(); ++i) {
      for (size_t j = i + 1; j < q.spans.size(); ++j) {
        const auto& a = q.spans[i];
        const auto& b = q.spans[j];
        if (a.lane != b.lane) continue;
        const bool disjoint = a.end_ns <= b.start_ns || b.end_ns <= a.start_ns;
        const bool a_in_b = a.start_ns >= b.start_ns && a.end_ns <= b.end_ns;
        const bool b_in_a = b.start_ns >= a.start_ns && b.end_ns <= a.end_ns;
        EXPECT_TRUE(disjoint || a_in_b || b_in_a)
            << "overlapping spans " << ToString(a.phase) << " and "
            << ToString(b.phase) << " in lane " << a.lane;
        ++checked_pairs;
      }
    }
  }
  EXPECT_GT(checked_pairs, 0u);
  TelemetrySink::Global().Clear();
}

TEST(ChromeTrace, JsonParsesWithExpectedEventShape) {
  ObsGuard obs(true);
  TelemetrySink::Global().Clear();
  const auto snapshot = RunTracedBatch();
  std::ostringstream out;
  WriteChromeTrace(out, snapshot);

  const auto parsed = ParseJson(out.str());
  ASSERT_TRUE(parsed.has_value()) << "trace is not valid JSON";
  ASSERT_TRUE(parsed->is_array());
  size_t total_spans = 0;
  for (const auto& q : snapshot) total_spans += q.spans.size();
  EXPECT_EQ(parsed->array_value.size(), total_spans);

  for (const auto& event : parsed->array_value) {
    ASSERT_TRUE(event.is_object());
    const auto* ph = event.Find("ph");
    ASSERT_NE(ph, nullptr);
    EXPECT_EQ(ph->string_value, "X");
    EXPECT_NE(event.Find("name"), nullptr);
    EXPECT_NE(event.Find("ts"), nullptr);
    EXPECT_NE(event.Find("dur"), nullptr);
    EXPECT_NE(event.Find("tid"), nullptr);
    const auto* args = event.Find("args");
    ASSERT_NE(args, nullptr);
    EXPECT_NE(args->Find("query"), nullptr);
  }
  TelemetrySink::Global().Clear();
}

TEST(FlushTelemetry, WritesConfiguredFiles) {
  ObsGuard obs(true);
  TelemetrySink::Global().Clear();
  MetricsRegistry::Global().Clear();
  (void)RunTracedBatch();

  const std::string trace_path = "telemetry_export_test_trace.json";
  const std::string metrics_path = "telemetry_export_test_metrics.prom";
  SetTraceOutForTesting(trace_path);
  SetMetricsOutForTesting(metrics_path);
  EXPECT_EQ(FlushTelemetry(), 2);
  SetTraceOutForTesting("");
  SetMetricsOutForTesting("");
  EXPECT_EQ(TelemetrySink::Global().size(), 0u);  // Cleared by the flush.

  const auto trace = ParseJson(ReadFile(trace_path));
  ASSERT_TRUE(trace.has_value());
  EXPECT_TRUE(trace->is_array());
  EXPECT_FALSE(trace->array_value.empty());

  const std::string prom = ReadFile(metrics_path);
  EXPECT_NE(prom.find("# TYPE"), std::string::npos);
  EXPECT_NE(prom.find("mcm_phase_traverse_us_count"), std::string::npos);
  std::remove(trace_path.c_str());
  std::remove(metrics_path.c_str());
  MetricsRegistry::Global().Clear();
}

TEST(Prometheus, SnapshotMatchesRegistryExactly) {
  ObsGuard obs(true);
  TelemetrySink::Global().Clear();
  MetricsRegistry::Global().Clear();
  (void)RunTracedBatch();
  MetricsRegistry::Global().GetCounter("test.queries.total").Increment(32);

  std::ostringstream out;
  MetricsRegistry::Global().WritePrometheus(out);
  const std::string prom = out.str();

  // Counter value is reported verbatim (name sanitized to underscores).
  EXPECT_NE(prom.find("test_queries_total 32"), std::string::npos);

  // Every phase histogram's _count and exemplar line match the registry.
  auto& hist = MetricsRegistry::Global().GetHistogram(
      PhaseHistogramName(QueryPhase::kTraverse), DefaultLatencyBoundsUs());
  ASSERT_GT(hist.Count(), 0u);
  {
    std::ostringstream expected;
    expected << "mcm_phase_traverse_us_count " << hist.Count();
    EXPECT_NE(prom.find(expected.str()), std::string::npos)
        << "missing: " << expected.str();
  }
  double exemplar_value = 0.0;
  uint64_t exemplar_query = 0;
  ASSERT_TRUE(hist.LastExemplar(&exemplar_value, &exemplar_query));
  {
    std::ostringstream expected;
    expected << "query_id=\"" << exemplar_query << "\"";
    EXPECT_NE(prom.find(expected.str()), std::string::npos);
  }

  // Cumulative bucket counts: the +Inf bucket equals the total count.
  {
    std::ostringstream expected;
    expected << "mcm_phase_traverse_us_bucket{le=\"+Inf\"} " << hist.Count();
    EXPECT_NE(prom.find(expected.str()), std::string::npos)
        << "missing: " << expected.str();
  }
  MetricsRegistry::Global().Clear();
  TelemetrySink::Global().Clear();
}

}  // namespace
}  // namespace mcm
