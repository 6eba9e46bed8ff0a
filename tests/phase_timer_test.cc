// Phase-timer contracts: spans arm only when stats are attached AND
// observability is on, and land in the attached QueryTrace next to its
// visit events; with obs off a query's answers and counters are
// bit-identical to an instrumented run while every phase total stays zero;
// with obs on the traverse span encloses the distance-eval / page-read /
// decode spans it triggers (the nesting the Chrome-trace exporter relies
// on); and ObservePhaseTimes feeds the per-phase registry histograms with
// the query id as exemplar.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "mcm/dataset/vector_datasets.h"
#include "mcm/metric/traits.h"
#include "mcm/mtree/mtree.h"
#include "mcm/obs/metrics.h"
#include "mcm/obs/phase.h"
#include "mcm/obs/trace.h"

namespace mcm {
namespace {

using Traits = VectorTraits<L2Distance>;

/// Restores the cached MCM_OBS flag on scope exit so tests cannot leak
/// their override into each other.
class ObsGuard {
 public:
  explicit ObsGuard(bool enabled) : previous_(ObsEnabled()) {
    SetObsEnabledForTesting(enabled);
  }
  ~ObsGuard() { SetObsEnabledForTesting(previous_); }

 private:
  bool previous_;
};

/// Busy work so a surrounding span covers a measurably nonzero interval
/// even on coarse clocks.
void Spin() {
  volatile uint64_t sink = 0;
  for (uint64_t i = 0; i < 10'000; ++i) sink = sink + i;
}

MTree<Traits> BuildTree(size_t n = 400) {
  MTreeOptions options;
  options.node_size_bytes = 512;
  MTree<Traits> tree{L2Distance{}, options};
  const auto data =
      GenerateVectorDataset(VectorDatasetKind::kClustered, n, 4, 7);
  for (size_t i = 0; i < data.size(); ++i) tree.Insert(data[i], i);
  return tree;
}

TEST(ScopedSpan, ArmsOnlyWithStatsAndObsOn) {
  QueryStats stats;
  {
    ObsGuard obs(true);
    ScopedSpan with_stats(&stats, QueryPhase::kTraverse);
    EXPECT_TRUE(with_stats.armed());
    Spin();
    ScopedSpan without_stats(nullptr, QueryPhase::kTraverse);
    EXPECT_FALSE(without_stats.armed());
  }
  {
    ObsGuard obs(false);
    ScopedSpan span(&stats, QueryPhase::kTraverse);
    EXPECT_FALSE(span.armed());
  }
  EXPECT_GT(stats.PhaseNs(QueryPhase::kTraverse), 0u);  // The armed span.
}

TEST(ScopedSpan, AppendsToAttachedLog) {
  ObsGuard obs(true);
  QueryTrace trace;
  QueryStats stats;
  stats.trace = &trace;
  { ScopedSpan span(&stats, QueryPhase::kDecode); }
  { ScopedSpan span(&stats, QueryPhase::kCollect); }
  ASSERT_EQ(trace.spans().size(), 2u);
  EXPECT_EQ(trace.spans()[0].phase, QueryPhase::kDecode);
  EXPECT_EQ(trace.spans()[1].phase, QueryPhase::kCollect);
  EXPECT_LE(trace.spans()[0].start_ns, trace.spans()[0].end_ns);
  EXPECT_EQ(stats.TotalPhaseNs(),
            stats.PhaseNs(QueryPhase::kDecode) +
                stats.PhaseNs(QueryPhase::kCollect));
}

// The trace's span list keeps the first `capacity` spans and counts the
// newer ones it drops.
TEST(PhaseSpanLog, DropsPastCapacity) {
  ObsGuard obs(true);
  QueryTrace trace(2);
  QueryStats stats;
  stats.trace = &trace;
  for (int i = 0; i < 5; ++i) {
    ScopedSpan span(&stats, i < 2 ? QueryPhase::kTraverse
                                  : QueryPhase::kCollect);
  }
  ASSERT_EQ(trace.spans().size(), 2u);
  EXPECT_EQ(trace.spans()[1].phase, QueryPhase::kTraverse);  // Oldest kept.
  EXPECT_EQ(trace.dropped_spans(), 3u);
  trace.Clear();
  EXPECT_TRUE(trace.spans().empty());
  EXPECT_EQ(trace.dropped_spans(), 0u);
}

TEST(QueryTrace, HoldsEventsAndSpansThroughResetUntilClear) {
  ObsGuard obs(true);
  QueryTrace trace;
  QueryStats stats;
  stats.trace = &trace;
  trace.RecordVisit(/*node=*/1, /*level=*/1, /*entries_scanned=*/3,
                    /*entries_pruned=*/0, /*distances=*/3);
  { ScopedSpan span(&stats, QueryPhase::kTraverse); }

  // A search entry point resets the counters but keeps the attachment, and
  // with it everything the trace already holds.
  ResetCounters(&stats);
  EXPECT_EQ(stats.trace, &trace);
  EXPECT_EQ(trace.total_visits(), 1u);
  EXPECT_EQ(trace.size(), 1u);
  ASSERT_EQ(trace.spans().size(), 1u);
  EXPECT_EQ(trace.spans()[0].phase, QueryPhase::kTraverse);

  // The search appends to the same record.
  const auto tree = BuildTree();
  tree.RangeSearch(
      GenerateVectorDataset(VectorDatasetKind::kClustered, 1, 4, 13)[0], 0.4,
      &stats);
  EXPECT_EQ(trace.total_visits(), 1u + stats.nodes_accessed);
  EXPECT_GT(trace.spans().size(), 1u);

  trace.Clear();
  EXPECT_EQ(trace.size(), 0u);
  EXPECT_EQ(trace.total_visits(), 0u);
  EXPECT_TRUE(trace.levels().empty());
  EXPECT_TRUE(trace.spans().empty());
  EXPECT_EQ(trace.dropped(), 0u);
  EXPECT_EQ(trace.dropped_spans(), 0u);
}

TEST(PhaseTimer, ManualStartStop) {
  ObsGuard obs(true);
  QueryStats stats;
  PhaseTimer timer(&stats);
  timer.Start(QueryPhase::kPlan);
  Spin();
  timer.Stop();
  timer.Stop();  // Idempotent.
  EXPECT_GT(stats.PhaseNs(QueryPhase::kPlan), 0u);
  EXPECT_EQ(stats.PhaseNs(QueryPhase::kTraverse), 0u);
}

TEST(QueryStats, MergeAndResetKeepPhaseState) {
  QueryStats a;
  QueryStats b;
  a.phase_ns[static_cast<size_t>(QueryPhase::kTraverse)] = 10;
  b.phase_ns[static_cast<size_t>(QueryPhase::kTraverse)] = 5;
  b.phase_ns[static_cast<size_t>(QueryPhase::kDecode)] = 3;
  a += b;
  EXPECT_EQ(a.PhaseNs(QueryPhase::kTraverse), 15u);
  EXPECT_EQ(a.PhaseNs(QueryPhase::kDecode), 3u);

  QueryTrace trace;
  a.trace = &trace;
  ResetCounters(&a);
  EXPECT_EQ(a.TotalPhaseNs(), 0u);
  EXPECT_EQ(a.trace, &trace);  // Attachment survives the reset.
}

TEST(PhaseTimers, ObsOffIsBitIdentical) {
  const auto tree = BuildTree();
  const auto queries =
      GenerateVectorDataset(VectorDatasetKind::kClustered, 20, 4, 11);

  std::vector<QueryStats> off_stats;
  std::vector<size_t> off_results;
  {
    ObsGuard obs(false);
    for (const auto& q : queries) {
      QueryStats st;
      off_results.push_back(tree.RangeSearch(q, 0.4, &st).size());
      EXPECT_EQ(st.TotalPhaseNs(), 0u);  // Timers never fired.
      off_stats.push_back(st);
    }
  }
  {
    ObsGuard obs(true);
    for (size_t i = 0; i < queries.size(); ++i) {
      QueryStats st;
      const auto results = tree.RangeSearch(queries[i], 0.4, &st);
      EXPECT_EQ(results.size(), off_results[i]);
      EXPECT_EQ(st.nodes_accessed, off_stats[i].nodes_accessed);
      EXPECT_EQ(st.distance_computations,
                off_stats[i].distance_computations);
      EXPECT_EQ(st.nodes_pruned, off_stats[i].nodes_pruned);
      EXPECT_GT(st.PhaseNs(QueryPhase::kTraverse), 0u);
    }
  }
}

TEST(PhaseTimers, TraverseEnclosesInnerPhases) {
  ObsGuard obs(true);
  const auto tree = BuildTree();
  QueryTrace trace;
  QueryStats stats;
  stats.trace = &trace;
  const auto results = tree.KnnSearch(
      GenerateVectorDataset(VectorDatasetKind::kClustered, 1, 4, 13)[0], 5,
      &stats);
  ASSERT_EQ(results.size(), 5u);
  ASSERT_FALSE(trace.spans().empty());

  // Exactly one traverse span (single-threaded query), recorded last
  // because ScopedSpan logs on destruction.
  std::vector<PhaseSpan> traverse;
  for (const auto& s : trace.spans()) {
    if (s.phase == QueryPhase::kTraverse) traverse.push_back(s);
  }
  ASSERT_EQ(traverse.size(), 1u);
  size_t inner = 0;
  for (const auto& s : trace.spans()) {
    if (s.phase == QueryPhase::kTraverse || s.phase == QueryPhase::kCollect) {
      continue;
    }
    ++inner;
    EXPECT_GE(s.start_ns, traverse[0].start_ns);
    EXPECT_LE(s.end_ns, traverse[0].end_ns);
    EXPECT_EQ(s.lane, traverse[0].lane);
  }
  EXPECT_GT(inner, 0u);  // At least the distance-eval spans.

  // The traverse total consequently dominates each inner phase, and the
  // grand total exceeds the wall-clock of the traverse alone (nesting).
  EXPECT_GE(stats.PhaseNs(QueryPhase::kTraverse),
            stats.PhaseNs(QueryPhase::kDistanceEval));
}

TEST(ObservePhaseTimes, FeedsRegistryHistogramsWithExemplar) {
  ObsGuard obs(true);
  MetricsRegistry::Global().Clear();
  QueryStats stats;
  stats.phase_ns[static_cast<size_t>(QueryPhase::kTraverse)] = 42'000;
  ObservePhaseTimes(stats, /*query_id=*/7);

  auto& hist = MetricsRegistry::Global().GetHistogram(
      PhaseHistogramName(QueryPhase::kTraverse), DefaultLatencyBoundsUs());
  EXPECT_EQ(hist.Count(), 1u);
  EXPECT_DOUBLE_EQ(hist.Sum(), 42.0);  // Microseconds.
  double value = 0.0;
  uint64_t query_id = 0;
  ASSERT_TRUE(hist.LastExemplar(&value, &query_id));
  EXPECT_EQ(query_id, 7u);

  // Zero phases are skipped: no decode histogram appears.
  auto& decode = MetricsRegistry::Global().GetHistogram(
      PhaseHistogramName(QueryPhase::kDecode), DefaultLatencyBoundsUs());
  EXPECT_EQ(decode.Count(), 0u);
  MetricsRegistry::Global().Clear();
}

}  // namespace
}  // namespace mcm
