// The shard layer's contracts. The ones that matter most:
//
//  - N=1 degeneracy: one-shard execution is bit-identical to the
//    unsharded M-tree — the answer lists AND the distance/node counters.
//  - Any-N determinism: range and k-NN answers match the unsharded index
//    exactly (oids, distances, order) for both assignment policies, with
//    and without cost routing, and at any executor thread count.
//  - Provable skipping: every shard the range plan skips is exhaustively
//    verified to contain no result.
//  - k-NN bound propagation tightens work without changing answers.
//  - Nearest-pivot-first dispatch: the plan order is sorted by (annulus
//    bound, pivot distance, shard id).
//  - Memoized k-NN costs equal the direct N-MCM calls bit for bit, cold
//    and warm, and a concurrent cold start changes no answer.
//  - Admission control under a tiny budget neither deadlocks nor changes
//    batch results.
//  - Persistence round-trips trees and sidecars.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "mcm/dataset/vector_datasets.h"
#include "mcm/engine/executor.h"
#include "mcm/engine/metric_index.h"
#include "mcm/metric/traits.h"
#include "mcm/mtree/bulk_load.h"
#include "mcm/mtree/mtree.h"
#include "mcm/shard/partition.h"
#include "mcm/shard/router.h"
#include "mcm/shard/sharded_index.h"
#include "temp_dir.h"

namespace mcm {
namespace {

using VecTraits = VectorTraits<L2Distance>;
using Router = shard::ShardRouter<VecTraits>;

static_assert(MetricIndex<Router>);

constexpr size_t kN = 600;
constexpr size_t kDim = 4;
constexpr size_t kQueries = 25;
constexpr uint64_t kSeed = 42;

std::vector<FloatVector> Dataset() {
  return GenerateVectorDataset(VectorDatasetKind::kClustered, kN, kDim,
                               kSeed);
}

std::vector<FloatVector> Queries() {
  return GenerateVectorQueries(VectorDatasetKind::kClustered, kQueries,
                               kDim, kSeed + 1);
}

MTreeOptions SmallNodes() {
  MTreeOptions options;
  options.node_size_bytes = 512;  // A few levels even at this scale.
  return options;
}

shard::ShardedMTree<VecTraits> BuildSharded(size_t num_shards,
                                            shard::Assignment assignment) {
  shard::ShardedOptions options;
  options.num_shards = num_shards;
  options.assignment = assignment;
  options.tree = SmallNodes();
  return shard::ShardedMTree<VecTraits>::Create(Dataset(), L2Distance{},
                                               options);
}

template <typename Object>
void ExpectSameResults(const std::vector<SearchResult<Object>>& expected,
                       const std::vector<SearchResult<Object>>& actual) {
  ASSERT_EQ(expected.size(), actual.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i].oid, actual[i].oid) << "position " << i;
    EXPECT_DOUBLE_EQ(expected[i].distance, actual[i].distance)
        << "position " << i;
  }
}

TEST(ShardPlanner, CoversEveryObjectExactlyOnce) {
  const auto objects = Dataset();
  for (const auto assignment :
       {shard::Assignment::kHash, shard::Assignment::kClustered}) {
    const auto plan =
        shard::PlanShards(objects, L2Distance{}, 8, assignment, kSeed);
    std::set<size_t> seen;
    for (const auto& members : plan.members) {
      for (const size_t position : members) {
        EXPECT_TRUE(seen.insert(position).second)
            << "position " << position << " assigned twice";
      }
    }
    EXPECT_EQ(seen.size(), objects.size());
  }
}

TEST(ShardPlanner, ClusteredShardsAreNonEmpty) {
  const auto objects = Dataset();
  const auto plan = shard::PlanShards(objects, L2Distance{}, 8,
                                      shard::Assignment::kClustered, kSeed);
  for (size_t s = 0; s < plan.members.size(); ++s) {
    EXPECT_FALSE(plan.members[s].empty()) << "shard " << s;
  }
}

// N=1: answers AND counters must match the unsharded tree bit for bit —
// the sharded build with one shard is the same bulk load, and the router
// passes the query straight through.
TEST(ShardRouter, SingleShardBitIdenticalIncludingCounters) {
  const auto objects = Dataset();
  const auto queries = Queries();
  const auto unsharded =
      MTree<VecTraits>::BulkLoad(objects, L2Distance{}, SmallNodes());
  const auto sharded = BuildSharded(1, shard::Assignment::kClustered);
  const Router router(sharded);
  const double radius = 0.5;
  for (const auto& q : queries) {
    QueryStats expected_stats;
    QueryStats actual_stats;
    ExpectSameResults(unsharded.RangeSearch(q, radius, &expected_stats),
                      router.RangeSearch(q, radius, &actual_stats));
    EXPECT_EQ(expected_stats.distance_computations,
              actual_stats.distance_computations);
    EXPECT_EQ(expected_stats.nodes_accessed, actual_stats.nodes_accessed);

    ExpectSameResults(unsharded.KnnSearch(q, 10, &expected_stats),
                      router.KnnSearch(q, 10, &actual_stats));
    EXPECT_EQ(expected_stats.distance_computations,
              actual_stats.distance_computations);
    EXPECT_EQ(expected_stats.nodes_accessed, actual_stats.nodes_accessed);
  }
}

// Any shard count, both assignment policies, routing on and off: the
// merged answers match the unsharded index exactly.
TEST(ShardRouter, AnswersMatchUnshardedAtAnyShardCount) {
  const auto objects = Dataset();
  const auto queries = Queries();
  const auto unsharded =
      MTree<VecTraits>::BulkLoad(objects, L2Distance{}, SmallNodes());
  for (const auto assignment :
       {shard::Assignment::kHash, shard::Assignment::kClustered}) {
    for (const size_t num_shards : {2u, 4u, 16u}) {
      const auto sharded = BuildSharded(num_shards, assignment);
      ASSERT_EQ(sharded.size(), objects.size());
      for (const bool cost_routing : {false, true}) {
        shard::RouterOptions options;
        options.cost_routing = cost_routing;
        const Router router(sharded, options);
        for (const auto& q : queries) {
          for (const double radius : {0.15, 0.5, 1.5}) {
            ExpectSameResults(unsharded.RangeSearch(q, radius),
                              router.RangeSearch(q, radius));
          }
          for (const size_t k : {1u, 5u, 20u}) {
            ExpectSameResults(unsharded.KnnSearch(q, k),
                              router.KnnSearch(q, k));
          }
        }
      }
    }
  }
}

// Every shard the plan skips provably contains no result: brute-force
// every member of the skipped shard and require d(Q, member) > radius.
TEST(ShardRouter, SkippedShardsProvablyEmpty) {
  const auto objects = Dataset();
  const auto queries = Queries();
  const L2Distance metric;
  const auto sharded = BuildSharded(8, shard::Assignment::kClustered);
  const Router router(sharded);
  size_t total_skips = 0;
  for (const auto& q : queries) {
    for (const double radius : {0.1, 0.3, 0.8}) {
      const auto plan = router.PlanRange(q, radius);
      for (const auto& decision : plan.decisions) {
        if (decision.dispatched) continue;
        ++total_skips;
        for (const uint64_t oid : sharded.shard_oids(decision.shard)) {
          EXPECT_GT(metric(q, objects[oid]), radius)
              << "shard " << decision.shard << " skipped but oid " << oid
              << " is a result";
        }
      }
    }
  }
  // The clustered workload at these radii must actually exercise the
  // skip path — a plan that never skips would vacuously pass.
  EXPECT_GT(total_skips, 0u);
}

// Cost routing must reduce node reads on the clustered workload, for range
// (provable annulus skips) and for k-NN on its own (nearest-pivot-first
// dispatch finds a tight k-th distance in the first shard, so the bound
// skips or narrows every later shard), while answers stay identical.
TEST(ShardRouter, CostRoutingReadsFewerNodes) {
  const auto queries = Queries();
  const auto sharded = BuildSharded(8, shard::Assignment::kClustered);
  shard::RouterOptions naive_options;
  naive_options.cost_routing = false;
  const Router naive(sharded, naive_options);
  const Router routed(sharded);
  uint64_t naive_range = 0;
  uint64_t routed_range = 0;
  uint64_t naive_knn = 0;
  uint64_t routed_knn = 0;
  for (const auto& q : queries) {
    QueryStats naive_stats;
    QueryStats routed_stats;
    ExpectSameResults(naive.RangeSearch(q, 0.3, &naive_stats),
                      routed.RangeSearch(q, 0.3, &routed_stats));
    naive_range += naive_stats.nodes_accessed;
    routed_range += routed_stats.nodes_accessed;

    ExpectSameResults(naive.KnnSearch(q, 5, &naive_stats),
                      routed.KnnSearch(q, 5, &routed_stats));
    naive_knn += naive_stats.nodes_accessed;
    routed_knn += routed_stats.nodes_accessed;
  }
  EXPECT_LT(routed_range, naive_range) << "range";
  EXPECT_LT(routed_knn, naive_knn) << "k-NN";
}

// Dispatch order is nearest-pivot-first for both plan kinds: sorted by
// (annulus bound, d(Q, pivot), shard id), with the pivot distance each
// decision records equal to the metric's own value.
TEST(ShardRouter, PlanOrderIsNearestPivotFirst) {
  const auto queries = Queries();
  const L2Distance metric;
  for (const size_t num_shards : {4u, 16u}) {
    const auto sharded =
        BuildSharded(num_shards, shard::Assignment::kClustered);
    const Router router(sharded);
    for (const auto& q : queries) {
      for (const auto& plan :
           {router.PlanRange(q, 0.3), router.PlanKnn(q, 5)}) {
        ASSERT_EQ(plan.order.size() + plan.skipped, num_shards);
        for (const auto& d : plan.decisions) {
          if (sharded.tree(d.shard).size() == 0) continue;
          EXPECT_EQ(d.pivot_distance,
                    metric(q, sharded.sidecar(d.shard).pivot));
        }
        for (size_t i = 1; i < plan.order.size(); ++i) {
          const auto& a = plan.decisions[plan.order[i - 1]];
          const auto& b = plan.decisions[plan.order[i]];
          EXPECT_LT(std::tie(a.lower_bound, a.pivot_distance, a.shard),
                    std::tie(b.lower_bound, b.pivot_distance, b.shard))
              << num_shards << " shards, position " << i;
        }
      }
    }
  }
}

// Requires PlanKnn's per-shard predictions for `k` to equal the direct
// NnNodes / NnDistances calls at min(k, |s|), bit for bit.
void ExpectKnnCostsMatchModels(const shard::ShardedMTree<VecTraits>& sharded,
                               const Router& router, const FloatVector& query,
                               size_t k) {
  const auto plan = router.PlanKnn(query, k);
  for (size_t s = 0; s < sharded.num_shards(); ++s) {
    const auto& model = sharded.sidecar(s).model;
    ASSERT_TRUE(model.has_value()) << "shard " << s;
    const size_t shard_k = std::min(k, sharded.tree(s).size());
    EXPECT_EQ(plan.decisions[s].predicted_nodes, model->NnNodes(shard_k))
        << "shard " << s << ", k " << k;
    EXPECT_EQ(plan.decisions[s].predicted_dists, model->NnDistances(shard_k))
        << "shard " << s << ", k " << k;
  }
}

// The per-k memo returns exactly what the shard models compute: for every
// shard and k in {1, 5, 10, |s| + 3}, on one router, the first plan for a
// k (cold) and repeat plans (warm, other queries) match the models.
TEST(ShardRouter, MemoizedKnnCostsEqualModelCalls) {
  const auto queries = Queries();
  const auto sharded = BuildSharded(4, shard::Assignment::kClustered);
  std::set<size_t> ks = {1, 5, 10};
  for (size_t s = 0; s < sharded.num_shards(); ++s) {
    ks.insert(sharded.tree(s).size() + 3);
  }
  const Router router(sharded);
  for (const size_t k : ks) {
    for (const size_t q : {0u, 1u, 2u}) {
      ExpectKnnCostsMatchModels(sharded, router, queries[q], k);
    }
  }
}

// Answers k-NN query i with its own k, so one batch mixes several k.
class MixedKRouter {
 public:
  using Object = FloatVector;

  MixedKRouter(const Router& router, std::map<FloatVector, size_t> k_of)
      : router_(router), k_of_(std::move(k_of)) {}

  std::vector<SearchResult<FloatVector>> RangeSearch(
      const FloatVector& query, double radius, QueryStats* stats) const {
    return router_.RangeSearch(query, radius, stats);
  }
  std::vector<SearchResult<FloatVector>> KnnSearch(const FloatVector& query,
                                                   size_t /*k*/,
                                                   QueryStats* stats) const {
    return router_.KnnSearch(query, k_of_.at(query), stats);
  }
  size_t size() const { return router_.size(); }

 private:
  const Router& router_;
  std::map<FloatVector, size_t> k_of_;
};

// Eight workers start cold on one router with mixed k, so first queries
// for a k race to fill the memo; every answer must match the sequential
// answers of another router.
TEST(ShardRouter, ConcurrentColdKnnMemoMatchesSequential) {
  const auto queries = Queries();
  const auto sharded = BuildSharded(4, shard::Assignment::kClustered);
  const size_t ks[] = {1, 5, 10, 20};
  std::map<FloatVector, size_t> k_of;
  for (size_t i = 0; i < queries.size(); ++i) {
    k_of.emplace(queries[i], ks[i % 4]);
  }
  ASSERT_EQ(k_of.size(), queries.size());
  const Router sequential(sharded);
  const Router cold(sharded);
  engine::ExecutorOptions options;
  options.num_threads = 8;
  const MixedKRouter mixed(cold, k_of);
  const engine::BatchExecutor<MixedKRouter> executor(mixed, options);
  const auto batch = executor.KnnSearchBatch(queries, 0);
  ASSERT_EQ(batch.results.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    ExpectSameResults(sequential.KnnSearch(queries[i], ks[i % 4]),
                      batch.results[i]);
  }
  // The memo the racing workers filled holds the models' values.
  for (const size_t k : ks) {
    ExpectKnnCostsMatchModels(sharded, cold, queries[0], k);
  }
}

// The router is a MetricIndex: batch execution over it is bit-identical
// at any thread count (and to the sequential loop).
TEST(ShardRouter, BatchExecutionThreadCountInvariant) {
  const auto queries = Queries();
  const auto sharded = BuildSharded(4, shard::Assignment::kClustered);
  const Router router(sharded);
  const double radius = 0.5;
  std::vector<std::vector<SearchResult<FloatVector>>> sequential;
  for (const auto& q : queries) {
    sequential.push_back(router.RangeSearch(q, radius));
  }
  for (const size_t threads : {1u, 2u, 4u, 8u}) {
    engine::ExecutorOptions options;
    options.num_threads = threads;
    const engine::BatchExecutor<Router> executor(router, options);
    const auto batch = executor.RangeSearchBatch(queries, radius);
    ASSERT_EQ(batch.results.size(), sequential.size());
    ASSERT_EQ(batch.latencies_us.size(), queries.size());
    for (size_t i = 0; i < sequential.size(); ++i) {
      ExpectSameResults(sequential[i], batch.results[i]);
      EXPECT_GT(batch.latencies_us[i], 0.0);
    }
  }
}

// A tiny predicted-node budget forces queries to queue; the batch must
// still complete with identical answers (no deadlock, no loss).
TEST(ShardRouter, AdmissionControlUnderTinyBudget) {
  const auto queries = Queries();
  const auto sharded = BuildSharded(4, shard::Assignment::kClustered);
  const Router unthrottled(sharded);
  shard::RouterOptions options;
  options.inflight_budget = 2.0;  // Far below any query's demand.
  options.per_shard_inflight = 1;
  const Router throttled(sharded, options);
  engine::ExecutorOptions executor_options;
  executor_options.num_threads = 8;
  const engine::BatchExecutor<Router> executor(throttled, executor_options);
  const auto batch = executor.RangeSearchBatch(queries, 0.5);
  for (size_t i = 0; i < queries.size(); ++i) {
    ExpectSameResults(unthrottled.RangeSearch(queries[i], 0.5),
                      batch.results[i]);
  }
}

// EXPLAIN rows account for every shard and reconcile with the totals.
TEST(ShardRouter, ExplainReportAccountsForEveryShard) {
  const auto queries = Queries();
  const auto sharded = BuildSharded(8, shard::Assignment::kClustered);
  const Router router(sharded);
  const auto report = router.ExplainRange(queries[0], 0.3);
  EXPECT_EQ(report.rows.size(), sharded.num_shards());
  EXPECT_EQ(report.dispatched + report.skipped, sharded.num_shards());
  uint64_t nodes = 0;
  for (const auto& row : report.rows) {
    if (!row.dispatched) {
      EXPECT_GT(row.lower_bound, 0.3);
      EXPECT_EQ(row.actual_nodes, 0u);
    }
    nodes += row.actual_nodes;
  }
  EXPECT_EQ(nodes, report.actual_nodes);

  const auto knn_report = router.ExplainKnn(queries[0], 5);
  EXPECT_EQ(knn_report.rows.size(), sharded.num_shards());
  EXPECT_EQ(knn_report.results, 5u);
}

// Save + reopen: identical answers and identical routing decisions.
TEST(ShardedMTree, PersistenceRoundTrip) {
  const auto queries = Queries();
  const auto sharded = BuildSharded(4, shard::Assignment::kClustered);
  const Router router(sharded);

  const test::ScopedTempDir dir;
  const std::string path = dir.File("sharded_roundtrip");
  SaveShardedMTree(sharded, path);
  shard::ShardedOptions open_options;
  open_options.tree = SmallNodes();
  const auto reopened = shard::OpenShardedMTree<VecTraits>(
      path, L2Distance{}, open_options);
  EXPECT_EQ(reopened.num_shards(), sharded.num_shards());
  EXPECT_EQ(reopened.size(), sharded.size());
  EXPECT_DOUBLE_EQ(reopened.d_plus(), sharded.d_plus());
  const Router reopened_router(reopened);
  for (const auto& q : queries) {
    ExpectSameResults(router.RangeSearch(q, 0.5),
                      reopened_router.RangeSearch(q, 0.5));
    ExpectSameResults(router.KnnSearch(q, 10),
                      reopened_router.KnnSearch(q, 10));
    const auto before = router.PlanRange(q, 0.3);
    const auto after = reopened_router.PlanRange(q, 0.3);
    ASSERT_EQ(before.decisions.size(), after.decisions.size());
    for (size_t s = 0; s < before.decisions.size(); ++s) {
      EXPECT_EQ(before.decisions[s].dispatched,
                after.decisions[s].dispatched);
      EXPECT_DOUBLE_EQ(before.decisions[s].lower_bound,
                       after.decisions[s].lower_bound);
    }
    ASSERT_EQ(before.order.size(), after.order.size());
    for (size_t i = 0; i < before.order.size(); ++i) {
      EXPECT_EQ(before.order[i], after.order[i]);
    }
  }
}

}  // namespace
}  // namespace mcm
