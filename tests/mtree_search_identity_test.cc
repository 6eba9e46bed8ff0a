// The M-tree's one search against the basic search the cost model prices.
// For L-infinity vectors and edit-distance strings, trees built by
// BulkLoad, StreamBulkLoader and Insert, range and k-NN queries, with the
// witness cascade off and installed at capacity 8:
//
//  - answers equal LinearScan;
//  - nodes_accessed equals a test-local reference search that evaluates
//    every entry of every node it reads (the basic search of Eq. 7);
//  - computed + avoided equals that reference's evaluation count;
//  - the metric's own ledger agrees with QueryStats, computed and avoided;
//  - every traced visit accounts for each entry exactly once:
//    scanned + entries_pruned + witness_avoided = entries.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "mcm/baseline/linear_scan.h"
#include "mcm/dataset/text_datasets.h"
#include "mcm/dataset/vector_datasets.h"
#include "mcm/engine/search_core.h"
#include "mcm/metric/counted_metric.h"
#include "mcm/metric/traits.h"
#include "mcm/mtree/bulk_load.h"
#include "mcm/mtree/bulk_stream.h"
#include "mcm/mtree/mtree.h"
#include "mcm/obs/trace.h"

namespace mcm {
namespace {

struct VectorSpace {
  using Inner = LInfDistance;
  using Traits = VectorTraits<CountedMetric<Inner>>;
  using ScanTraits = VectorTraits<Inner>;
  static std::vector<FloatVector> Data() {
    return GenerateClustered(1500, 4, 61);
  }
  static std::vector<FloatVector> Queries() {
    return GenerateVectorQueries(VectorDatasetKind::kClustered, 10, 4, 61);
  }
  static std::vector<double> Radii() { return {0.05, 0.1, 0.2}; }
};

struct StringSpace {
  using Inner = EditDistanceMetric;
  using Traits = StringTraits<CountedMetric<Inner>>;
  using ScanTraits = StringTraits<Inner>;
  static std::vector<std::string> Data() { return GenerateKeywords(1500, 67); }
  static std::vector<std::string> Queries() {
    return GenerateKeywordQueries(10, 67);
  }
  static std::vector<double> Radii() { return {1.0, 2.0, 3.0}; }
};

enum class Build { kBulkLoad, kStream, kInsert };

const char* Name(Build how) {
  switch (how) {
    case Build::kBulkLoad:
      return "BulkLoad";
    case Build::kStream:
      return "StreamBulkLoader";
    case Build::kInsert:
      return "Insert";
  }
  return "?";
}

template <typename Traits>
MTree<Traits> BuildTree(Build how,
                        const std::vector<typename Traits::Object>& data,
                        const typename Traits::Metric& metric, int capacity) {
  MTreeOptions options;
  options.node_size_bytes = 512;
  options.witness_capacity = capacity;
  switch (how) {
    case Build::kBulkLoad:
      return MTree<Traits>::BulkLoad(data, metric, options);
    case Build::kStream: {
      // A budget far below the data: the spilling, glued build.
      VectorObjectSource<Traits> source(data);
      return StreamBulkLoader<Traits>::Load(source, metric, options, nullptr,
                                            ::testing::TempDir(),
                                            /*ingest_budget_bytes=*/16 << 10);
    }
    case Build::kInsert: {
      MTree<Traits> tree(metric, options);
      for (size_t i = 0; i < data.size(); ++i) tree.Insert(data[i], i);
      return tree;
    }
  }
  throw std::logic_error("unknown build");
}

struct ReferenceCounts {
  uint64_t nodes = 0;
  uint64_t dists = 0;
};

/// The basic search over `tree`'s nodes: engine::BestFirstSearch, with
/// every entry of every node it reads evaluated in full by `metric`.
template <typename Tree, typename Metric, typename Collector>
ReferenceCounts ReferenceSearch(const Tree& tree, const Metric& metric,
                                const typename Tree::Object& q,
                                Collector& collector) {
  ReferenceCounts counts;
  QueryStats st;
  engine::BestFirstSearch<NodeId>(
      tree.root(), tree.root(), collector, &st,
      [&](const engine::FrontierEntry<NodeId>& item, auto& frontier) {
        const auto node = tree.store().Read(item.handle);
        ++counts.nodes;
        counts.dists += node.NumEntries();
        for (const auto& e : node.leaf_entries) {
          collector.Offer(e.oid, e.object, metric(q, e.object));
        }
        for (const auto& e : node.routing_entries) {
          const double dmin =
              std::max(metric(q, e.object) - e.covering_radius, 0.0);
          frontier.PushOrPrune(dmin, item.level + 1, e.child, e.child,
                               PruneReason::kCoveringRadius);
        }
      });
  return counts;
}

template <typename Results>
std::vector<std::pair<uint64_t, double>> Flatten(const Results& results) {
  std::vector<std::pair<uint64_t, double>> out;
  for (const auto& r : results) out.emplace_back(r.oid, r.distance);
  return out;
}

/// One traced search's checks against the reference and the scan.
template <typename Tree, typename Search, typename Reference>
void CheckSearch(const Tree& tree, const Search& search,
                 const Reference& reference,
                 const std::vector<std::pair<uint64_t, double>>& expected,
                 uint64_t* cascade_avoided) {
  tree.metric().Reset();
  QueryTrace trace;
  QueryStats st;
  st.trace = &trace;
  EXPECT_EQ(Flatten(search(&st)), expected);
  const ReferenceCounts ref = reference();
  EXPECT_EQ(st.nodes_accessed, ref.nodes);
  EXPECT_EQ(st.PricedDistances(), ref.dists);
  EXPECT_EQ(tree.metric().count(), st.distance_computations);
  EXPECT_EQ(tree.metric().avoided_count(),
            st.distance_calcs_avoided_by_witness);
  ASSERT_EQ(trace.dropped(), 0u);
  for (const TraceEvent& e : trace.Events()) {
    if (e.kind != TraceEventKind::kNodeVisit) continue;
    const auto node = tree.store().Read(static_cast<NodeId>(e.node));
    EXPECT_EQ(e.entries_scanned + e.entries_pruned + e.witness_avoided,
              node.NumEntries())
        << "node " << e.node << " level " << e.level;
    *cascade_avoided += e.witness_avoided;
  }
}

template <typename Space>
class MTreeSearchIdentity : public ::testing::Test {};

using Spaces = ::testing::Types<VectorSpace, StringSpace>;
TYPED_TEST_SUITE(MTreeSearchIdentity, Spaces);

TYPED_TEST(MTreeSearchIdentity, MatchesTheBasicSearchEverywhere) {
  using Space = TypeParam;
  using Traits = typename Space::Traits;
  const auto data = Space::Data();
  const auto queries = Space::Queries();
  const typename Space::Inner inner;
  const LinearScan<typename Space::ScanTraits> scan(data, inner);

  for (const Build how : {Build::kBulkLoad, Build::kStream, Build::kInsert}) {
    for (const int capacity : {0, 8}) {
      SCOPED_TRACE(std::string(Name(how)) + " capacity " +
                   std::to_string(capacity));
      auto tree =
          BuildTree<Traits>(how, data, typename Traits::Metric{}, capacity);
      ASSERT_GE(tree.height(), 3u);
      if (capacity > 0) {
        tree.InstallWitnessCascade();
        ASSERT_TRUE(tree.cascade_installed());
      }
      uint64_t cascade_avoided = 0;
      for (const auto& q : queries) {
        for (const double radius : Space::Radii()) {
          CheckSearch(
              tree,
              [&](QueryStats* st) { return tree.RangeSearch(q, radius, st); },
              [&] {
                engine::RangeCollector<typename Space::Traits::Object> c(
                    radius);
                return ReferenceSearch(tree, inner, q, c);
              },
              Flatten(scan.RangeSearch(q, radius)), &cascade_avoided);
        }
        for (const size_t k : {1u, 5u, 20u}) {
          CheckSearch(
              tree, [&](QueryStats* st) { return tree.KnnSearch(q, k, st); },
              [&] {
                engine::KnnCollector<typename Space::Traits::Object> c(k);
                return ReferenceSearch(tree, inner, q, c);
              },
              Flatten(scan.KnnSearch(q, k)), &cascade_avoided);
        }
      }
      // The cascade is off at capacity 0 and does some work at 8.
      if (capacity == 0) {
        EXPECT_EQ(cascade_avoided, 0u);
      } else {
        EXPECT_GT(cascade_avoided, 0u);
      }
    }
  }
}

}  // namespace
}  // namespace mcm
