// Witness-cascade integration tests: answers must be bit-identical with
// the cascade on and off across every index family, capacity 0 must leave
// no witness footprint at all (the pre-witness behavior), the M-tree must
// save a measurable fraction of metric evaluations on a string workload,
// and the persisted ancestor distances must survive save/open — including
// legacy version-1 files written before the cascade existed.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "mcm/baseline/linear_scan.h"
#include "mcm/check/check_mtree.h"
#include "mcm/dataset/text_datasets.h"
#include "mcm/gnat/gnat.h"
#include "mcm/metric/traits.h"
#include "mcm/mtree/bulk_load.h"
#include "mcm/mtree/mtree.h"
#include "mcm/mtree/persist.h"
#include "mcm/obs/trace.h"
#include "mcm/vptree/vptree.h"
#include "temp_dir.h"

namespace mcm {
namespace {

using Traits = StringTraits<EditDistanceMetric>;

constexpr size_t kN = 1200;
constexpr size_t kNumQueries = 15;
constexpr uint64_t kSeed = 77;
const double kRadii[] = {1.0, 2.0, 3.0};

std::vector<std::string> Words() { return GenerateKeywords(kN, kSeed); }
std::vector<std::string> Queries() {
  return GenerateKeywordQueries(kNumQueries, kSeed + 1);
}

/// One workload execution: flattened (oid, distance) answer list over all
/// queries and radii, plus the summed counters.
struct WorkloadRun {
  std::vector<std::pair<uint64_t, double>> answers;
  uint64_t distances = 0;
  uint64_t avoided = 0;
};

template <typename Index>
WorkloadRun RunWorkload(const Index& index) {
  WorkloadRun run;
  for (const auto& q : Queries()) {
    for (const double radius : kRadii) {
      QueryStats st;
      for (const auto& r : index.RangeSearch(q, radius, &st)) {
        run.answers.emplace_back(r.oid, r.distance);
      }
      run.distances += st.distance_computations;
      run.avoided += st.distance_calcs_avoided_by_witness;
    }
  }
  return run;
}

MTree<Traits> MakeMTree(int capacity) {
  MTreeOptions options;
  options.node_size_bytes = 1024;
  options.witness_capacity = capacity;
  auto tree = MTree<Traits>::BulkLoad(Words(), EditDistanceMetric{}, options);
  tree.InstallWitnessCascade();
  return tree;
}

TEST(WitnessReuse, MTreeAnswersIdenticalAndCheaperWithWitnesses) {
  const auto off = RunWorkload(MakeMTree(0));
  const auto on = RunWorkload(MakeMTree(8));
  EXPECT_EQ(off.answers, on.answers);
  EXPECT_EQ(off.avoided, 0u);
  EXPECT_GT(on.avoided, 0u);
  EXPECT_LE(on.distances, off.distances);
}

TEST(WitnessReuse, MTreeSavesAtLeastFifteenPercentOnStrings) {
  const auto off = RunWorkload(MakeMTree(0));
  const auto on = RunWorkload(MakeMTree(8));
  EXPECT_LE(static_cast<double>(on.distances),
            0.85 * static_cast<double>(off.distances))
      << "w0 = " << off.distances << ", w8 = " << on.distances;
}

TEST(WitnessReuse, VpTreeAnswersIdenticalAndCheaperWithWitnesses) {
  // Bucketed leaves (capacity > 1) exercise the per-object guarded path;
  // with singleton leaves every witness cut is a whole-subtree prune and
  // the avoided-evaluation counter legitimately stays 0.
  VpTreeOptions w0;
  w0.witness_capacity = 0;
  w0.leaf_capacity = 8;
  VpTreeOptions w8;
  w8.witness_capacity = 8;
  w8.leaf_capacity = 8;
  const auto off =
      RunWorkload(VpTree<Traits>(Words(), EditDistanceMetric{}, w0));
  const auto on =
      RunWorkload(VpTree<Traits>(Words(), EditDistanceMetric{}, w8));
  EXPECT_EQ(off.answers, on.answers);
  EXPECT_EQ(off.avoided, 0u);
  EXPECT_GT(on.avoided, 0u);
  EXPECT_LE(on.distances, off.distances);
}

TEST(WitnessReuse, GnatAnswersIdenticalAndCheaperWithWitnesses) {
  GnatOptions w0;
  w0.witness_capacity = 0;
  GnatOptions w8;
  w8.witness_capacity = 8;
  const auto off =
      RunWorkload(Gnat<Traits>(Words(), EditDistanceMetric{}, w0));
  const auto on = RunWorkload(Gnat<Traits>(Words(), EditDistanceMetric{}, w8));
  EXPECT_EQ(off.answers, on.answers);
  EXPECT_EQ(off.avoided, 0u);
  EXPECT_GT(on.avoided, 0u);
  EXPECT_LE(on.distances, off.distances);
}

TEST(WitnessReuse, AllIndexesAgreeWithTheLinearScan) {
  const auto words = Words();  // LinearScan keeps a reference
  const LinearScan<Traits> scan(words, EditDistanceMetric{});
  const auto expected = RunWorkload(scan);
  EXPECT_EQ(expected.avoided, 0u);  // no witnesses without stored distances

  EXPECT_EQ(RunWorkload(MakeMTree(8)).answers, expected.answers);
  VpTreeOptions vo;
  vo.witness_capacity = 8;
  vo.leaf_capacity = 8;
  EXPECT_EQ(RunWorkload(VpTree<Traits>(Words(), EditDistanceMetric{}, vo))
                .answers,
            expected.answers);
  GnatOptions go;
  go.witness_capacity = 8;
  EXPECT_EQ(
      RunWorkload(Gnat<Traits>(Words(), EditDistanceMetric{}, go)).answers,
      expected.answers);
}

TEST(WitnessReuse, CapacityZeroLeavesNoWitnessFootprint) {
  // With capacity 0 no prune may ever be attributed to a witness and the
  // avoided counter must stay zero — the pre-witness execution, exactly.
  const auto tree = MakeMTree(0);
  VpTreeOptions vo;
  vo.witness_capacity = 0;
  const VpTree<Traits> vp(Words(), EditDistanceMetric{}, vo);
  GnatOptions go;
  go.witness_capacity = 0;
  const Gnat<Traits> gnat(Words(), EditDistanceMetric{}, go);

  const auto check = [](const auto& index) {
    for (const auto& q : Queries()) {
      QueryTrace trace;
      QueryStats st;
      st.trace = &trace;
      index.RangeSearch(q, 3.0, &st);
      EXPECT_EQ(st.distance_calcs_avoided_by_witness, 0u);
      EXPECT_EQ(trace.prunes_by_reason()[static_cast<size_t>(
                    PruneReason::kWitness)],
                0u);
    }
  };
  check(tree);
  check(vp);
  check(gnat);
}

TEST(WitnessReuse, PersistRoundTripKeepsTheCascade) {
  const test::ScopedTempDir dir;
  const std::string path = dir.File("witness_roundtrip.mtree");
  MTreeOptions options;
  options.node_size_bytes = 1024;
  options.witness_capacity = 8;
  const auto before = RunWorkload(MakeMTree(8));
  {
    auto tree = MakeMTree(8);
    ASSERT_TRUE(tree.cascade_installed());
    SaveMTree(tree, path);
  }
  auto reopened = OpenMTree<Traits>(path, EditDistanceMetric{}, options);
  EXPECT_TRUE(reopened.cascade_installed());
  const auto after = RunWorkload(reopened);
  EXPECT_EQ(after.answers, before.answers);
  EXPECT_GT(after.avoided, 0u);  // witnesses work from persisted distances
  EXPECT_TRUE(check::CheckMTree(reopened).ok());
}

TEST(WitnessReuse, LegacyVersionOneFileLoadsWithoutCascade) {
  // A tree saved before InstallWitnessCascade writes tag-0/1 pages; demote
  // its metadata to version 1 (no flags word) to reproduce a pre-cascade
  // file byte-for-byte. It must open, answer identically to the scan, and
  // report the cascade as not installed.
  const test::ScopedTempDir dir;
  const std::string path = dir.File("witness_legacy.mtree");
  MTreeOptions options;
  options.node_size_bytes = 1024;
  {
    auto tree =
        MTree<Traits>::BulkLoad(Words(), EditDistanceMetric{}, options);
    ASSERT_FALSE(tree.cascade_installed());
    SaveMTree(tree, path);
  }
  const std::string meta_path = path + ".meta";
  {
    std::FILE* f = std::fopen(meta_path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 0, SEEK_END);
    const long size = std::ftell(f);
    std::fseek(f, 0, SEEK_SET);
    std::vector<uint8_t> bytes(static_cast<size_t>(size));
    ASSERT_EQ(std::fread(bytes.data(), 1, bytes.size(), f), bytes.size());
    std::fclose(f);
    const uint32_t v1 = persist_internal::kMinVersion;
    std::memcpy(bytes.data() + sizeof(uint32_t), &v1, sizeof(v1));
    bytes.resize(2 * sizeof(uint32_t) + persist_internal::kMetaV1Size);
    f = std::fopen(meta_path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
    std::fclose(f);
  }
  auto reopened = OpenMTree<Traits>(path, EditDistanceMetric{}, options);
  EXPECT_FALSE(reopened.cascade_installed());
  const auto got = RunWorkload(reopened);
  EXPECT_EQ(got.avoided, 0u);  // no stored side, no witness bounds
  const auto words = Words();  // LinearScan keeps a reference
  const LinearScan<Traits> scan(words, EditDistanceMetric{});
  EXPECT_EQ(got.answers, RunWorkload(scan).answers);
}

TEST(WitnessReuse, TinyPagesFallBackSafelyWhenArraysWouldOverflow) {
  // At 512-byte pages deep entries cannot always afford their ancestor
  // arrays; InstallWitnessCascade must leave those empty rather than
  // overflow, and queries plus the structural checker must stay clean.
  MTreeOptions options;
  options.node_size_bytes = 512;
  options.witness_capacity = 8;
  auto tree = MTree<Traits>::BulkLoad(Words(), EditDistanceMetric{}, options);
  tree.InstallWitnessCascade();
  const test::ScopedTempDir dir;
  const std::string path = dir.File("witness_tiny.mtree");
  SaveMTree(tree, path);
  auto reopened = OpenMTree<Traits>(path, EditDistanceMetric{}, options);
  EXPECT_TRUE(check::CheckMTree(reopened).ok());
  const auto words = Words();  // LinearScan keeps a reference
  const LinearScan<Traits> scan(words, EditDistanceMetric{});
  EXPECT_EQ(RunWorkload(reopened).answers, RunWorkload(scan).answers);
}

}  // namespace
}  // namespace mcm
