// The engine layer's contracts: the MetricIndex concept is satisfied by
// all four access paths; the thread pool runs every iteration exactly once
// and propagates failures; and the batch executor is deterministic — the
// batched answers and the merged counters are identical to a sequential
// loop running the same queries, for every index and both query kinds.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "mcm/baseline/linear_scan.h"
#include "mcm/dataset/vector_datasets.h"
#include "mcm/engine/executor.h"
#include "mcm/engine/metric_index.h"
#include "mcm/gnat/gnat.h"
#include "mcm/metric/traits.h"
#include "mcm/mtree/bulk_load.h"
#include "mcm/mtree/persist.h"
#include "mcm/vptree/vptree.h"
#include "temp_dir.h"

namespace mcm {
namespace {

using VecTraits = VectorTraits<LInfDistance>;

static_assert(MetricIndex<MTree<VecTraits>>);
static_assert(MetricIndex<VpTree<VecTraits>>);
static_assert(MetricIndex<Gnat<VecTraits>>);
static_assert(MetricIndex<LinearScan<VecTraits>>);
static_assert(DynamicMetricIndex<MTree<VecTraits>>);
static_assert(!DynamicMetricIndex<VpTree<VecTraits>>);
static_assert(StatsViewIndex<VpTree<VecTraits>>);
static_assert(StatsViewIndex<Gnat<VecTraits>>);

TEST(ResolveThreadCount, ExplicitRequestWins) {
  EXPECT_EQ(engine::ResolveThreadCount(3), 3u);
  EXPECT_EQ(engine::ResolveThreadCount(1), 1u);
}

TEST(ResolveThreadCount, EnvVariableFallback) {
  ASSERT_EQ(setenv("MCM_THREADS", "5", /*overwrite=*/1), 0);
  EXPECT_EQ(engine::ResolveThreadCount(0), 5u);
  EXPECT_EQ(engine::ResolveThreadCount(2), 2u);  // Explicit still wins.
  ASSERT_EQ(unsetenv("MCM_THREADS"), 0);
  EXPECT_GE(engine::ResolveThreadCount(0), 1u);  // Hardware fallback.
}

TEST(ThreadPool, RunsEveryIterationExactlyOnce) {
  engine::ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  constexpr size_t kCount = 1000;
  std::vector<std::atomic<int>> touched(kCount);
  pool.ParallelFor(kCount, [&](size_t i) { ++touched[i]; });
  for (size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(touched[i].load(), 1) << "i=" << i;
  }
  // The pool is reusable: a second job must also cover everything.
  pool.ParallelFor(kCount, [&](size_t i) { ++touched[i]; });
  for (size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(touched[i].load(), 2) << "i=" << i;
  }
}

TEST(ThreadPool, EmptyJobReturnsImmediately) {
  engine::ThreadPool pool(2);
  pool.ParallelFor(0, [](size_t) { FAIL() << "must not run"; });
}

TEST(ThreadPool, PropagatesFirstException) {
  engine::ThreadPool pool(3);
  std::atomic<size_t> completed{0};
  EXPECT_THROW(
      pool.ParallelFor(100,
                       [&](size_t i) {
                         if (i == 17) throw std::runtime_error("boom");
                         ++completed;
                       }),
      std::runtime_error);
  // The remaining iterations still ran to completion.
  EXPECT_EQ(completed.load(), 99u);
  // The pool survives: the next job is clean.
  pool.ParallelFor(10, [](size_t) {});
}

void ExpectStatsEqual(const QueryStats& a, const QueryStats& b,
                      const char* what) {
  EXPECT_EQ(a.nodes_accessed, b.nodes_accessed) << what;
  EXPECT_EQ(a.distance_computations, b.distance_computations) << what;
  EXPECT_EQ(a.nodes_pruned, b.nodes_pruned) << what;
  EXPECT_EQ(a.buffer_hits, b.buffer_hits) << what;
  EXPECT_EQ(a.buffer_misses, b.buffer_misses) << what;
}

template <typename Object>
void ExpectResultsEqual(const std::vector<SearchResult<Object>>& a,
                        const std::vector<SearchResult<Object>>& b,
                        const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].oid, b[i].oid) << what << " i=" << i;
    EXPECT_EQ(a[i].distance, b[i].distance) << what << " i=" << i;
  }
}

/// The determinism contract, checked for one index: batched range and k-NN
/// answers, per-query counters, and merged totals are all identical to the
/// sequential loop — at every thread count.
template <typename Index, typename Object>
void CheckBatchMatchesSequential(const Index& index,
                                 const std::vector<Object>& queries,
                                 double radius, size_t k) {
  for (const size_t threads : {1, 2, 4}) {
    engine::ExecutorOptions options;
    options.num_threads = threads;
    const engine::BatchExecutor<Index> executor(index, options);
    EXPECT_EQ(executor.num_threads(), threads);

    const auto range_batch = executor.RangeSearchBatch(queries, radius);
    const auto knn_batch = executor.KnnSearchBatch(queries, k);
    ASSERT_EQ(range_batch.results.size(), queries.size());
    ASSERT_EQ(knn_batch.results.size(), queries.size());

    QueryStats range_totals;
    QueryStats knn_totals;
    for (size_t i = 0; i < queries.size(); ++i) {
      QueryStats st;
      const auto expected_range = index.RangeSearch(queries[i], radius, &st);
      ExpectResultsEqual(range_batch.results[i], expected_range, "range");
      ExpectStatsEqual(range_batch.per_query[i], st, "range stats");
      range_totals += st;

      QueryStats kst;
      const auto expected_knn = index.KnnSearch(queries[i], k, &kst);
      ExpectResultsEqual(knn_batch.results[i], expected_knn, "knn");
      ExpectStatsEqual(knn_batch.per_query[i], kst, "knn stats");
      knn_totals += kst;
    }
    ExpectStatsEqual(range_batch.totals, range_totals, "range totals");
    ExpectStatsEqual(knn_batch.totals, knn_totals, "knn totals");
  }
}

class ExecutorDeterminismTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data_ = GenerateClustered(1500, 6, 733);
    queries_ =
        GenerateVectorQueries(VectorDatasetKind::kClustered, 40, 6, 733);
  }

  std::vector<FloatVector> data_;
  std::vector<FloatVector> queries_;
};

TEST_F(ExecutorDeterminismTest, MTreeMemoryStore) {
  MTreeOptions options;
  options.seed = 42;
  const auto tree = MTree<VecTraits>::BulkLoad(data_, LInfDistance{}, options);
  CheckBatchMatchesSequential(tree, queries_, 0.1, 5);
}

TEST_F(ExecutorDeterminismTest, VpTree) {
  VpTreeOptions options;
  options.seed = 42;
  const VpTree<VecTraits> tree(data_, LInfDistance{}, options);
  CheckBatchMatchesSequential(tree, queries_, 0.1, 5);
}

TEST_F(ExecutorDeterminismTest, Gnat) {
  GnatOptions options;
  options.seed = 42;
  const Gnat<VecTraits> tree(data_, LInfDistance{}, options);
  CheckBatchMatchesSequential(tree, queries_, 0.1, 5);
}

TEST_F(ExecutorDeterminismTest, LinearScan) {
  const LinearScan<VecTraits> scan(data_, LInfDistance{});
  CheckBatchMatchesSequential(scan, queries_, 0.1, 5);
}

TEST_F(ExecutorDeterminismTest, PagedMTreeConcurrentReads) {
  MTreeOptions options;
  options.seed = 42;
  auto store = std::make_unique<PagedNodeStore<VecTraits>>(
      std::make_unique<InMemoryPageFile>(options.node_size_bytes),
      /*pool_frames=*/256);
  const auto tree = MTree<VecTraits>::BulkLoad(data_, LInfDistance{}, options,
                                               std::move(store));

  engine::ExecutorOptions exec_options;
  exec_options.num_threads = 4;
  const engine::BatchExecutor<MTree<VecTraits>> executor(tree, exec_options);
  const auto batch = executor.RangeSearchBatch(queries_, 0.1);

  QueryStats totals;
  for (size_t i = 0; i < queries_.size(); ++i) {
    QueryStats st;
    const auto expected = tree.RangeSearch(queries_[i], 0.1, &st);
    ExpectResultsEqual(batch.results[i], expected, "paged range");
    // Logical costs are schedule-independent even on a shared pool...
    EXPECT_EQ(batch.per_query[i].nodes_accessed, st.nodes_accessed);
    EXPECT_EQ(batch.per_query[i].distance_computations,
              st.distance_computations);
    EXPECT_EQ(batch.per_query[i].nodes_pruned, st.nodes_pruned);
    // ...and every node access is attributed as exactly one hit or miss
    // (the hit/miss *split* is schedule-dependent, their sum is not).
    EXPECT_EQ(batch.per_query[i].buffer_hits + batch.per_query[i].buffer_misses,
              batch.per_query[i].nodes_accessed);
    totals += batch.per_query[i];
  }
  ExpectStatsEqual(batch.totals, totals, "paged totals");
}

TEST_F(ExecutorDeterminismTest, FileBackedMTreeConcurrentReads) {
  // A saved and reopened tree behind a 16-frame pool: four threads share
  // the file (positional reads), the pool's reused frames and the store's
  // recycled nodes.
  MTreeOptions options;
  options.seed = 42;
  options.buffer_pool_frames = 16;
  test::ScopedTempDir dir;
  const std::string path = dir.File("tree.mtree");
  SaveMTree(MTree<VecTraits>::BulkLoad(data_, LInfDistance{}, options), path);
  const auto tree = OpenMTree<VecTraits>(path, LInfDistance{}, options);
  ASSERT_GT(tree.store().NumNodes(), 16u);

  engine::ExecutorOptions exec_options;
  exec_options.num_threads = 4;
  const engine::BatchExecutor<MTree<VecTraits>> executor(tree, exec_options);
  const auto range_batch = executor.RangeSearchBatch(queries_, 0.1);
  const auto knn_batch = executor.KnnSearchBatch(queries_, 5);
  for (size_t i = 0; i < queries_.size(); ++i) {
    QueryStats st;
    const auto expected_range = tree.RangeSearch(queries_[i], 0.1, &st);
    ExpectResultsEqual(range_batch.results[i], expected_range, "file range");
    QueryStats kst;
    const auto expected_knn = tree.KnnSearch(queries_[i], 5, &kst);
    ExpectResultsEqual(knn_batch.results[i], expected_knn, "file knn");
    for (const auto& [batch, seq] :
         {std::pair{&range_batch.per_query[i], &st},
          std::pair{&knn_batch.per_query[i], &kst}}) {
      EXPECT_EQ(batch->nodes_accessed, seq->nodes_accessed) << "i=" << i;
      EXPECT_EQ(batch->distance_computations, seq->distance_computations)
          << "i=" << i;
      EXPECT_EQ(batch->nodes_pruned, seq->nodes_pruned) << "i=" << i;
      EXPECT_EQ(batch->buffer_hits + batch->buffer_misses,
                batch->nodes_accessed)
          << "i=" << i;
    }
  }
}

TEST_F(ExecutorDeterminismTest, TracesMergeDeterministically) {
  VpTreeOptions options;
  options.seed = 42;
  const VpTree<VecTraits> tree(data_, LInfDistance{}, options);

  engine::ExecutorOptions exec_options;
  exec_options.num_threads = 4;
  exec_options.trace_capacity = 4096;
  const engine::BatchExecutor<VpTree<VecTraits>> executor(tree, exec_options);
  const auto batch = executor.RangeSearchBatch(queries_, 0.1);

  ASSERT_EQ(batch.traces.size(), queries_.size());
  for (size_t i = 0; i < queries_.size(); ++i) {
    // Each query's private trace tallies exactly its own counters.
    QueryTrace expected(4096);
    QueryStats st;
    st.trace = &expected;
    tree.RangeSearch(queries_[i], 0.1, &st);
    EXPECT_EQ(batch.traces[i].Events().size(), expected.Events().size())
        << "i=" << i;
    EXPECT_EQ(batch.traces[i].prunes_by_reason(),
              expected.prunes_by_reason())
        << "i=" << i;
  }
}

TEST(BatchExecutor, QpsReportsWallClock) {
  const auto data = GenerateUniform(400, 4, 811);
  const LinearScan<VecTraits> scan(data, LInfDistance{});
  engine::ExecutorOptions options;
  options.num_threads = 2;
  const engine::BatchExecutor<LinearScan<VecTraits>> executor(scan, options);
  const auto queries =
      GenerateVectorQueries(VectorDatasetKind::kUniform, 30, 4, 811);
  const auto batch = executor.RangeSearchBatch(queries, 0.2);
  EXPECT_GT(batch.wall_seconds, 0.0);
  EXPECT_GT(batch.Qps(), 0.0);
}

TEST(BatchExecutor, EmptyBatch) {
  const std::vector<FloatVector> data = {{0.1f}, {0.9f}};
  const LinearScan<VecTraits> scan(data, LInfDistance{});
  const engine::BatchExecutor<LinearScan<VecTraits>> executor(scan, {});
  const auto batch = executor.RangeSearchBatch({}, 0.5);
  EXPECT_TRUE(batch.results.empty());
  EXPECT_EQ(batch.totals.distance_computations, 0u);
}

}  // namespace
}  // namespace mcm
