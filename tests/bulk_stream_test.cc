// Out-of-core / parallel bulk loading tests: thread-count bit-identity of
// the page bytes, spill-path correctness against the in-memory loader,
// structural invariants, and budget handling.

#include <algorithm>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <latch>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "mcm/check/check_mtree.h"
#include "mcm/dataset/vector_datasets.h"
#include "mcm/metric/traits.h"
#include "mcm/mtree/bulk_load.h"
#include "mcm/mtree/bulk_stream.h"
#include "temp_dir.h"

namespace mcm {
namespace {

using VecTraits = VectorTraits<LInfDistance>;

std::vector<unsigned char> FileBytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    ADD_FAILURE() << "cannot open " << path;
    return {};
  }
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  std::vector<unsigned char> bytes(static_cast<size_t>(size));
  if (!bytes.empty() &&
      std::fread(bytes.data(), 1, bytes.size(), f) != bytes.size()) {
    ADD_FAILURE() << "cannot read " << path;
  }
  std::fclose(f);
  return bytes;
}

std::vector<uint64_t> SortedOids(
    const std::vector<SearchResult<FloatVector>>& results) {
  std::vector<uint64_t> oids;
  oids.reserve(results.size());
  for (const auto& r : results) oids.push_back(r.oid);
  std::sort(oids.begin(), oids.end());
  return oids;
}

// Builds with the plain in-memory BulkLoader into a real page file and
// returns the flushed file's bytes.
std::vector<unsigned char> BulkLoadPageBytes(
    const std::vector<FloatVector>& data, MTreeOptions options,
    const std::string& path) {
  auto store = std::make_unique<PagedNodeStore<VecTraits>>(
      std::make_unique<StdioPageFile>(path, options.node_size_bytes),
      options.buffer_pool_frames);
  auto* paged = store.get();
  auto tree = MTree<VecTraits>::BulkLoad(data, LInfDistance{}, options,
                                         std::move(store));
  paged->Flush();
  return FileBytes(path);
}

// Builds with the streaming loader (spilling under `budget` into
// `spill_dir`) into a real page file and returns the flushed file's bytes.
std::vector<unsigned char> StreamLoadPageBytes(
    const std::vector<FloatVector>& data, MTreeOptions options,
    int64_t budget, const std::string& path,
    const std::string& spill_dir = ::testing::TempDir()) {
  auto store = std::make_unique<PagedNodeStore<VecTraits>>(
      std::make_unique<StdioPageFile>(path, options.node_size_bytes),
      options.buffer_pool_frames);
  auto* paged = store.get();
  VectorObjectSource<VecTraits> source(data);
  auto tree = StreamBulkLoader<VecTraits>::Load(
      source, LInfDistance{}, options, std::move(store), spill_dir, budget);
  paged->Flush();
  return FileBytes(path);
}

TEST(ParallelBulkLoad, PageBytesIdenticalAcrossThreadCounts) {
  const auto data = GenerateClustered(20000, 8, 91);
  MTreeOptions options;
  options.node_size_bytes = 1024;

  const test::ScopedTempDir dir;
  options.build_threads = 1;
  const auto reference =
      BulkLoadPageBytes(data, options, dir.File("bulk_t1.bin"));
  ASSERT_FALSE(reference.empty());

  for (const size_t threads : {2u, 4u, 8u}) {
    options.build_threads = threads;
    const auto bytes = BulkLoadPageBytes(
        data, options, dir.File("bulk_t" + std::to_string(threads) + ".bin"));
    EXPECT_EQ(bytes, reference) << "thread count " << threads
                                << " changed the page bytes";
  }
}

TEST(StreamBulkLoad, PageBytesIdenticalAcrossThreadCounts) {
  const auto data = GenerateClustered(20000, 8, 93);
  MTreeOptions options;
  options.node_size_bytes = 1024;
  // ~1 MB of leaf entries against a 128 KB budget: forces the spill path
  // (several dozen partitions).
  const int64_t budget = 128 << 10;

  const test::ScopedTempDir dir;
  options.build_threads = 1;
  const auto reference =
      StreamLoadPageBytes(data, options, budget, dir.File("stream_t1.bin"));
  ASSERT_FALSE(reference.empty());

  for (const size_t threads : {2u, 4u, 8u}) {
    options.build_threads = threads;
    const auto bytes = StreamLoadPageBytes(
        data, options, budget,
        dir.File("stream_t" + std::to_string(threads) + ".bin"));
    EXPECT_EQ(bytes, reference) << "thread count " << threads
                                << " changed the page bytes";
  }
}

// Two loads spilling into one directory at the same time keep their spill
// files apart: each yields the page bytes of a solo load (different
// dimensionalities, so a shared spill file could not go unnoticed), and
// the shared directory is left empty.
TEST(StreamBulkLoad, ConcurrentLoadsShareOneSpillDirectory) {
  const std::vector<std::vector<FloatVector>> data = {
      GenerateClustered(20000, 8, 93), GenerateClustered(20000, 6, 95)};
  MTreeOptions options;
  options.node_size_bytes = 1024;
  options.build_threads = 2;
  const int64_t budget = 128 << 10;  // Spills several dozen partitions.
  const test::ScopedTempDir spill_dir;
  const test::ScopedTempDir pages;

  std::vector<std::vector<unsigned char>> solo(data.size());
  for (size_t i = 0; i < data.size(); ++i) {
    solo[i] = StreamLoadPageBytes(data[i], options, budget,
                                  pages.File("solo" + std::to_string(i)),
                                  spill_dir.path());
    ASSERT_FALSE(solo[i].empty());
  }

  std::vector<std::vector<unsigned char>> together(data.size());
  std::vector<std::exception_ptr> errors(data.size());
  std::latch start(static_cast<std::ptrdiff_t>(data.size()));
  std::vector<std::thread> threads;
  for (size_t i = 0; i < data.size(); ++i) {
    threads.emplace_back([&, i] {
      start.arrive_and_wait();
      try {
        together[i] = StreamLoadPageBytes(
            data[i], options, budget,
            pages.File("together" + std::to_string(i)), spill_dir.path());
      } catch (...) {
        errors[i] = std::current_exception();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (size_t i = 0; i < data.size(); ++i) {
    EXPECT_FALSE(errors[i]) << "load " << i << " threw";
    EXPECT_EQ(together[i], solo[i]) << "load " << i << " changed its pages";
  }
  EXPECT_TRUE(std::filesystem::is_empty(spill_dir.path()));
}

TEST(StreamBulkLoad, SpillPathMatchesInMemoryAnswers) {
  const auto data = GenerateClustered(12000, 6, 97);
  MTreeOptions options;
  options.node_size_bytes = 1024;
  options.build_threads = 4;

  auto memory_tree = MTree<VecTraits>::BulkLoad(data, LInfDistance{},
                                                options);
  VectorObjectSource<VecTraits> source(data);
  auto streamed = StreamBulkLoader<VecTraits>::Load(
      source, LInfDistance{}, options,
      std::make_unique<PagedNodeStore<VecTraits>>(
          std::make_unique<InMemoryPageFile>(options.node_size_bytes),
          options.buffer_pool_frames),
      ::testing::TempDir(), /*ingest_budget_bytes=*/64 << 10);

  EXPECT_EQ(streamed.size(), data.size());
  const auto check = check::CheckMTree(streamed);
  EXPECT_TRUE(check.ok()) << check.Summary();

  const auto queries =
      GenerateVectorQueries(VectorDatasetKind::kClustered, 25, 6, 97);
  for (const auto& q : queries) {
    // Different tree shapes, identical answer sets.
    EXPECT_EQ(SortedOids(streamed.RangeSearch(q, 0.2)),
              SortedOids(memory_tree.RangeSearch(q, 0.2)));
  }
}

TEST(StreamBulkLoad, ReportsBuildDistances) {
  const auto data = GenerateClustered(6000, 6, 101);
  MTreeOptions options;
  options.node_size_bytes = 1024;
  BulkLoadStats stats;
  VectorObjectSource<VecTraits> source(data);
  auto tree = StreamBulkLoader<VecTraits>::Load(
      source, LInfDistance{}, options, nullptr, ::testing::TempDir(),
      /*ingest_budget_bytes=*/64 << 10, &stats);
  EXPECT_EQ(tree.size(), data.size());
  // Every object was at least assigned to a seed once.
  EXPECT_GE(stats.distance_computations, data.size());
}

TEST(StreamBulkLoad, LargeBudgetTakesInMemoryPathBitIdentically) {
  const auto data = GenerateClustered(4000, 6, 103);
  MTreeOptions options;
  options.node_size_bytes = 1024;

  const test::ScopedTempDir dir;
  const auto bulk_bytes =
      BulkLoadPageBytes(data, options, dir.File("inmem_bulk.bin"));
  const auto stream_bytes = StreamLoadPageBytes(
      data, options, /*budget=*/1 << 30, dir.File("inmem_stream.bin"));
  // A dataset far under budget must delegate to the in-memory loader and
  // reproduce its pages exactly.
  EXPECT_EQ(stream_bytes, bulk_bytes);
}

TEST(StreamBulkLoad, EmptyAndTinySources) {
  MTreeOptions options;
  const std::vector<FloatVector> none;
  VectorObjectSource<VecTraits> empty_source(none);
  auto empty = StreamBulkLoader<VecTraits>::Load(
      empty_source, LInfDistance{}, options, nullptr, ::testing::TempDir());
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_EQ(empty.height(), 0u);

  const std::vector<FloatVector> two = {{0.1f, 0.1f}, {0.9f, 0.9f}};
  VectorObjectSource<VecTraits> tiny_source(two);
  auto tiny = StreamBulkLoader<VecTraits>::Load(
      tiny_source, LInfDistance{}, options, nullptr, ::testing::TempDir());
  EXPECT_EQ(tiny.size(), 2u);
  EXPECT_EQ(tiny.RangeSearch({0.0f, 0.0f}, 1.0).size(), 2u);
}

TEST(StreamBulkLoad, ExplicitOidsSurviveSpill) {
  const auto data = GenerateClustered(3000, 4, 107);
  std::vector<uint64_t> oids(data.size());
  for (size_t i = 0; i < oids.size(); ++i) oids[i] = 1000 + i * 2;
  MTreeOptions options;
  options.node_size_bytes = 512;
  VectorObjectSource<VecTraits> source(data, oids);
  auto tree = StreamBulkLoader<VecTraits>::Load(
      source, LInfDistance{}, options, nullptr, ::testing::TempDir(),
      /*ingest_budget_bytes=*/32 << 10);
  const auto r = tree.RangeSearch(data[5], 0.0);
  ASSERT_FALSE(r.empty());
  bool found = false;
  for (const auto& hit : r) found = found || hit.oid == 1000 + 5 * 2;
  EXPECT_TRUE(found);
}

TEST(BulkLoad, ReportsBuildDistancesThroughCountedMetric) {
  const auto data = GenerateClustered(2000, 6, 109);
  BulkLoadStats stats;
  auto tree = BulkLoader<VecTraits>::Load(data, {}, LInfDistance{},
                                          MTreeOptions{}, nullptr, &stats);
  EXPECT_EQ(tree.size(), data.size());
  // Clustering must at least touch every object once; and the seed-reuse
  // satellite keeps the total at a sane multiple of n (each level's
  // assignment is O(n * fanout)).
  EXPECT_GE(stats.distance_computations, data.size());
  EXPECT_LT(stats.distance_computations, data.size() * 1000);
}

}  // namespace
}  // namespace mcm
