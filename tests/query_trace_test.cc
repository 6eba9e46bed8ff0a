#include "mcm/obs/trace.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "mcm/common/query_stats.h"
#include "mcm/dataset/vector_datasets.h"
#include "mcm/gnat/gnat.h"
#include "mcm/metric/traits.h"
#include "mcm/mtree/bulk_load.h"
#include "mcm/vptree/vptree.h"

namespace mcm {
namespace {

using Traits = VectorTraits<LInfDistance>;

TEST(QueryTraceTest, RecordsEventsAndTallies) {
  QueryTrace trace;
  trace.RecordVisit(/*node=*/1, /*level=*/1, /*entries_scanned=*/4,
                    /*entries_pruned=*/0, /*distances=*/4);
  trace.RecordPrune(/*node=*/7, /*level=*/2, PruneReason::kCoveringRadius);
  trace.RecordVisit(2, 2, 10, 3, 10);
  trace.RecordBufferFetch(/*node=*/2, /*hit=*/true);
  trace.RecordBufferFetch(/*node=*/3, /*hit=*/false);

  EXPECT_EQ(trace.total_visits(), 2u);
  EXPECT_EQ(trace.total_prunes(), 1u);
  EXPECT_EQ(trace.buffer_hits(), 1u);
  EXPECT_EQ(trace.buffer_misses(), 1u);
  EXPECT_EQ(
      trace.prunes_by_reason()[static_cast<size_t>(
          PruneReason::kCoveringRadius)],
      1u);

  const auto events = trace.Events();
  ASSERT_EQ(events.size(), 5u);
  EXPECT_EQ(events[0].kind, TraceEventKind::kNodeVisit);
  EXPECT_EQ(events[0].node, 1u);
  EXPECT_EQ(events[1].kind, TraceEventKind::kPrune);
  EXPECT_EQ(events[1].reason, PruneReason::kCoveringRadius);
  EXPECT_EQ(events[4].kind, TraceEventKind::kBufferFetch);
  EXPECT_FALSE(events[4].buffer_hit);

  ASSERT_EQ(trace.levels().size(), 2u);
  EXPECT_EQ(trace.levels()[0].node_visits, 1u);
  EXPECT_EQ(trace.levels()[1].node_visits, 1u);
  EXPECT_EQ(trace.levels()[1].entries_pruned, 3u);
  EXPECT_EQ(trace.levels()[1].subtree_prunes, 1u);

  const auto per_level = trace.LevelNodeVisits();
  ASSERT_EQ(per_level.size(), 2u);
  EXPECT_DOUBLE_EQ(per_level[0], 1.0);
  EXPECT_DOUBLE_EQ(per_level[1], 1.0);
}

TEST(QueryTraceTest, RingOverflowKeepsNewestAndExactTallies) {
  QueryTrace trace(/*capacity=*/4);
  for (uint64_t i = 0; i < 10; ++i) {
    trace.RecordVisit(i, /*level=*/1, 1, 0, 1);
  }
  EXPECT_EQ(trace.size(), 4u);
  EXPECT_EQ(trace.dropped(), 6u);
  EXPECT_EQ(trace.total_visits(), 10u);  // Aggregates survive overflow.
  const auto events = trace.Events();
  ASSERT_EQ(events.size(), 4u);
  // Oldest first, and only the newest four nodes (6, 7, 8, 9) remain.
  EXPECT_EQ(events[0].node, 6u);
  EXPECT_EQ(events[3].node, 9u);
}

TEST(QueryTraceTest, ClearResetsEverything) {
  QueryTrace trace(4);
  trace.RecordVisit(1, 1, 1, 0, 1);
  trace.RecordPrune(2, 2, PruneReason::kShellBound);
  trace.Clear();
  EXPECT_EQ(trace.size(), 0u);
  EXPECT_EQ(trace.dropped(), 0u);
  EXPECT_EQ(trace.total_visits(), 0u);
  EXPECT_EQ(trace.total_prunes(), 0u);
  EXPECT_TRUE(trace.levels().empty());
  EXPECT_TRUE(trace.Events().empty());
}

TEST(QueryTraceTest, ToStringCoversAllReasons) {
  for (size_t i = 0; i < kNumPruneReasons; ++i) {
    EXPECT_NE(std::string(ToString(static_cast<PruneReason>(i))), "");
  }
}

TEST(QueryTraceMTreeTest, RangeQueryEmitsVisitsAndCoveringRadiusPrunes) {
  const auto data = GenerateClustered(400, 5, /*seed=*/42);
  MTreeOptions options;
  options.seed = 42;
  auto tree = MTree<Traits>::BulkLoad(data, LInfDistance{}, options);
  ASSERT_GT(tree.height(), 1u);  // Need routing nodes for subtree prunes.

  QueryTrace trace;
  QueryStats stats;
  stats.trace = &trace;
  const auto results = tree.RangeSearch(data[0], 0.05, &stats);
  ASSERT_FALSE(results.empty());  // The query object itself.

  // Every accessed node produced exactly one visit event.
  EXPECT_EQ(trace.total_visits(), stats.nodes_accessed);
  // Subtree prunes agree between the trace and the QueryStats counter.
  EXPECT_EQ(trace.total_prunes(), stats.nodes_pruned);
  // A selective query on a multi-level tree must prune something; range
  // subtrees are cut by the covering-radius test or, before their routing
  // distance is computed, by the parent filter.
  EXPECT_GT(stats.nodes_pruned, 0u);
  const auto& by_reason = trace.prunes_by_reason();
  uint64_t subtree_prunes =
      by_reason[static_cast<size_t>(PruneReason::kCoveringRadius)] +
      by_reason[static_cast<size_t>(PruneReason::kParentFilter)];
  EXPECT_EQ(subtree_prunes, stats.nodes_pruned);

  // Per-level visit totals sum to the node count, and level 1 (the root)
  // was visited exactly once.
  const auto per_level = trace.LevelNodeVisits();
  ASSERT_FALSE(per_level.empty());
  EXPECT_DOUBLE_EQ(per_level[0], 1.0);
  double total = 0;
  for (double v : per_level) total += v;
  EXPECT_DOUBLE_EQ(total, static_cast<double>(stats.nodes_accessed));
}

TEST(QueryTraceMTreeTest, TinyTreeHandChecked) {
  // 8 objects in a 16-entry node: the tree is a single root leaf. The only
  // event must be one visit of level 1 scanning all 8 entries, no prunes.
  std::vector<FloatVector> data;
  for (int i = 0; i < 8; ++i) {
    data.push_back(FloatVector{static_cast<float>(i) / 8.0f, 0.0f});
  }
  MTreeOptions options;
  options.seed = 42;
  auto tree = MTree<Traits>::BulkLoad(data, LInfDistance{}, options);
  ASSERT_EQ(tree.height(), 1u);

  QueryTrace trace;
  QueryStats stats;
  stats.trace = &trace;
  tree.RangeSearch(data[0], 10.0, &stats);
  EXPECT_EQ(stats.nodes_accessed, 1u);
  EXPECT_EQ(stats.nodes_pruned, 0u);
  const auto events = trace.Events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, TraceEventKind::kNodeVisit);
  EXPECT_EQ(events[0].level, 1u);
  EXPECT_EQ(events[0].entries_scanned, 8u);
  EXPECT_EQ(events[0].entries_pruned, 0u);
}

TEST(QueryTraceMTreeTest, KnnRecordsKnnBoundPrunes) {
  const auto data = GenerateClustered(400, 5, 42);
  MTreeOptions options;
  options.seed = 42;
  auto tree = MTree<Traits>::BulkLoad(data, LInfDistance{}, options);
  QueryTrace trace;
  QueryStats stats;
  stats.trace = &trace;
  const auto results = tree.KnnSearch(data[0], 3, &stats);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(trace.total_visits(), stats.nodes_accessed);
  EXPECT_EQ(trace.total_prunes(), stats.nodes_pruned);
  // k-NN on clustered data terminates before draining the frontier.
  EXPECT_GT(trace.prunes_by_reason()[static_cast<size_t>(
                PruneReason::kKnnBound)],
            0u);
}

TEST(QueryTraceMTreeTest, ParentFilterPrunesInOptimizedMode) {
  // The search always runs the parent filter (the original M-tree's
  // optimized search). Entries it skips show up as entries_pruned in visit
  // events and, one each, as avoided evaluations in QueryStats.
  const auto data = GenerateClustered(400, 5, 42);
  MTreeOptions options;
  options.seed = 42;
  auto tree = MTree<Traits>::BulkLoad(data, LInfDistance{}, options);
  QueryTrace trace;
  QueryStats stats;
  stats.trace = &trace;
  tree.RangeSearch(data[0], 0.05, &stats);
  EXPECT_EQ(trace.total_prunes(), stats.nodes_pruned);
  uint64_t entries_pruned = 0;
  uint64_t distances = 0;
  for (const auto& tally : trace.levels()) {
    entries_pruned += tally.entries_pruned;
    distances += tally.distances;
    EXPECT_EQ(tally.witness_avoided, 0u);  // No cascade installed.
  }
  EXPECT_GT(entries_pruned, 0u);
  EXPECT_EQ(entries_pruned, stats.distance_calcs_avoided_by_witness);
  EXPECT_EQ(distances, stats.distance_computations);
}

TEST(QueryTraceVpTreeTest, ShellBoundPrunesAndStatsPopulated) {
  const auto data = GenerateClustered(500, 5, 42);
  VpTreeOptions options;
  options.seed = 42;
  const VpTree<Traits> tree(data, LInfDistance{}, options);
  QueryTrace trace;
  QueryStats stats;
  stats.trace = &trace;
  const auto results = tree.RangeSearch(data[0], 0.05, &stats);
  ASSERT_FALSE(results.empty());
  EXPECT_EQ(trace.total_visits(), stats.nodes_accessed);
  EXPECT_EQ(trace.total_prunes(), stats.nodes_pruned);
  EXPECT_GT(stats.nodes_pruned, 0u);
  EXPECT_EQ(trace.prunes_by_reason()[static_cast<size_t>(
                PruneReason::kShellBound)],
            stats.nodes_pruned);
}

TEST(QueryTraceGnatTest, RangeTablePrunesAndStatsPopulated) {
  const auto data = GenerateClustered(500, 5, 42);
  GnatOptions options;
  options.seed = 42;
  const Gnat<Traits> tree(data, LInfDistance{}, options);
  QueryTrace trace;
  QueryStats stats;
  stats.trace = &trace;
  const auto results = tree.RangeSearch(data[0], 0.05, &stats);
  ASSERT_FALSE(results.empty());
  EXPECT_EQ(trace.total_visits(), stats.nodes_accessed);
  EXPECT_EQ(trace.total_prunes(), stats.nodes_pruned);
  EXPECT_GT(stats.nodes_pruned, 0u);
  EXPECT_EQ(trace.prunes_by_reason()[static_cast<size_t>(
                PruneReason::kRangeTable)],
            stats.nodes_pruned);
}

TEST(QueryStatsTest, ResetCountersPreservesTrace) {
  QueryTrace trace;
  QueryStats stats;
  stats.nodes_accessed = 5;
  stats.trace = &trace;
  ResetCounters(&stats);
  EXPECT_EQ(stats.nodes_accessed, 0u);
  EXPECT_EQ(stats.trace, &trace);
}

TEST(QueryStatsTest, PlusEqualsSumsNewCounters) {
  QueryStats a, b;
  a.nodes_pruned = 2;
  a.buffer_hits = 3;
  a.buffer_misses = 1;
  b.nodes_pruned = 5;
  b.buffer_hits = 7;
  b.buffer_misses = 2;
  a += b;
  EXPECT_EQ(a.nodes_pruned, 7u);
  EXPECT_EQ(a.buffer_hits, 10u);
  EXPECT_EQ(a.buffer_misses, 3u);
}

}  // namespace
}  // namespace mcm
