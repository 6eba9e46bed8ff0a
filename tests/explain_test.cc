// EXPLAIN driver contracts: both cost models predict totals and per-level
// vectors, the instrumented execution's per-level actuals sum to the query
// counters, the access-path decision is reported, the text and JSON
// renderings carry the full story (and the JSON parses), and with obs off
// the explained query's answers and counters match an instrumented run.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "mcm/cost/explain.h"
#include "mcm/dataset/vector_datasets.h"
#include "mcm/distribution/estimator.h"
#include "mcm/metric/traits.h"
#include "mcm/mtree/mtree.h"
#include "mcm/obs/export.h"
#include "mcm/obs/metrics.h"

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

struct Fixture {
  MTree<Traits> tree;
  DistanceHistogram histogram;
  std::vector<FloatVector> data;
  double d_plus;
};

Fixture MakeFixture() {
  MTreeOptions options;
  options.node_size_bytes = 512;
  MTree<Traits> tree{L2Distance{}, options};
  auto data = GenerateVectorDataset(VectorDatasetKind::kClustered,
                                    /*n=*/500, /*dim=*/4, /*seed=*/7);
  for (size_t i = 0; i < data.size(); ++i) tree.Insert(data[i], i);

  const double d_plus = 2.0;
  EstimatorOptions eo;
  eo.d_plus = d_plus;
  auto histogram = EstimateDistanceDistribution(data, L2Distance{}, eo);
  return Fixture{std::move(tree), std::move(histogram), std::move(data),
                 d_plus};
}

void ExpectConsistent(const ExplainReport& report) {
  ASSERT_EQ(report.predictions.size(), 2u);
  EXPECT_EQ(report.predictions[0].model, "nmcm");
  EXPECT_EQ(report.predictions[1].model, "lmcm");
  for (const auto& p : report.predictions) {
    EXPECT_GT(p.nodes, 0.0);
    EXPECT_GT(p.distances, 0.0);
    ASSERT_FALSE(p.level_nodes.empty());
    ASSERT_FALSE(p.level_distances.empty());
    double level_nodes = 0.0;
    for (double v : p.level_nodes) level_nodes += v;
    EXPECT_NEAR(level_nodes, p.nodes, 1e-6 + 1e-9 * p.nodes)
        << p.model << ": per-level node predictions must sum to the total";
  }

  uint64_t level_nodes = 0;
  uint64_t level_dists = 0;
  for (const TraceLevelTally& a : report.trace.levels()) {
    level_nodes += a.node_visits;
    level_dists += a.distances;
  }
  EXPECT_EQ(level_nodes, report.stats.nodes_accessed);
  EXPECT_EQ(level_dists, report.stats.distance_computations);
  EXPECT_TRUE(report.access_path == "index-scan" ||
              report.access_path == "sequential-scan");
  EXPECT_GT(report.index_ms, 0.0);
  EXPECT_GT(report.sequential_ms, 0.0);
  EXPECT_GT(report.latency_us, 0.0);
}

TEST(ExplainRange, PredictsAndMeasuresConsistently) {
  ObsGuard obs(true);
  const auto fx = MakeFixture();
  const auto report =
      ExplainRange(fx.tree, fx.histogram, fx.d_plus, fx.data[0], 0.4);

  EXPECT_EQ(report.kind, "range");
  EXPECT_DOUBLE_EQ(report.radius, 0.4);
  EXPECT_EQ(report.num_objects, 500u);
  EXPECT_EQ(report.height, fx.tree.height());
  ExpectConsistent(report);

  // The explained execution answers exactly like a direct query.
  QueryStats st;
  EXPECT_EQ(report.num_results,
            fx.tree.RangeSearch(fx.data[0], 0.4, &st).size());
  EXPECT_EQ(report.stats.nodes_accessed, st.nodes_accessed);
  EXPECT_EQ(report.stats.distance_computations, st.distance_computations);

  // With obs on the phase clock ran: traverse and plan are both nonzero.
  EXPECT_GT(report.stats.PhaseNs(QueryPhase::kTraverse), 0u);
  EXPECT_GT(report.stats.PhaseNs(QueryPhase::kPlan), 0u);
}

TEST(ExplainKnn, PredictsAndMeasuresConsistently) {
  ObsGuard obs(true);
  const auto fx = MakeFixture();
  const auto report =
      ExplainKnn(fx.tree, fx.histogram, fx.d_plus, fx.data[1], /*k=*/10);

  EXPECT_EQ(report.kind, "knn");
  EXPECT_EQ(report.k, 10u);
  EXPECT_EQ(report.num_results, 10u);
  ExpectConsistent(report);
}

TEST(ExplainRange, ObsOffStillCountsAndMatches) {
  const auto fx = MakeFixture();
  ExplainReport off_report;
  {
    ObsGuard obs(false);
    off_report = ExplainRange(fx.tree, fx.histogram, fx.d_plus, fx.data[2],
                              0.4);
  }
  ObsGuard obs(true);
  const auto on_report =
      ExplainRange(fx.tree, fx.histogram, fx.d_plus, fx.data[2], 0.4);

  // Identical answers and counters; only the timers differ.
  EXPECT_EQ(off_report.num_results, on_report.num_results);
  EXPECT_EQ(off_report.stats.nodes_accessed, on_report.stats.nodes_accessed);
  EXPECT_EQ(off_report.stats.distance_computations,
            on_report.stats.distance_computations);
  EXPECT_EQ(off_report.stats.PhaseNs(QueryPhase::kTraverse), 0u);
  EXPECT_GT(on_report.stats.PhaseNs(QueryPhase::kTraverse), 0u);
}

TEST(ExplainRender, TextCarriesTheFullStory) {
  ObsGuard obs(true);
  const auto fx = MakeFixture();
  const auto report =
      ExplainRange(fx.tree, fx.histogram, fx.d_plus, fx.data[0], 0.4);
  const std::string text = RenderExplainText(report);
  for (const char* needle :
       {"EXPLAIN range", "access path:", "N-MCM", "L-MCM", "per-level",
        "phase times:", "traverse", "results:"}) {
    EXPECT_NE(text.find(needle), std::string::npos) << "missing " << needle;
  }
}

TEST(ExplainRender, JsonParsesWithSchemaKeys) {
  ObsGuard obs(true);
  const auto fx = MakeFixture();
  const auto report =
      ExplainKnn(fx.tree, fx.histogram, fx.d_plus, fx.data[0], /*k=*/5);
  const auto parsed = ParseJson(RenderExplainJson(report));
  ASSERT_TRUE(parsed.has_value());
  ASSERT_TRUE(parsed->is_object());

  for (const char* key :
       {"kind", "k", "index", "plan", "predictions", "actual", "phase_us"}) {
    EXPECT_NE(parsed->Find(key), nullptr) << "missing " << key;
  }
  const auto* predictions = parsed->Find("predictions");
  ASSERT_TRUE(predictions != nullptr && predictions->is_array());
  ASSERT_EQ(predictions->array_value.size(), 2u);
  for (const auto& p : predictions->array_value) {
    EXPECT_NE(p.Find("model"), nullptr);
    EXPECT_NE(p.Find("nodes"), nullptr);
    EXPECT_NE(p.Find("level_nodes"), nullptr);
  }
  const auto* actual = parsed->Find("actual");
  ASSERT_NE(actual, nullptr);
  const auto* levels = actual->Find("levels");
  ASSERT_TRUE(levels != nullptr && levels->is_array());
  EXPECT_EQ(levels->array_value.size(), report.NumLevels());
  const auto* nodes = actual->Find("nodes");
  ASSERT_TRUE(nodes != nullptr && nodes->is_number());
  EXPECT_EQ(static_cast<uint64_t>(nodes->number_value),
            report.stats.nodes_accessed);
  const auto* phase_us = parsed->Find("phase_us");
  ASSERT_TRUE(phase_us != nullptr && phase_us->is_object());
  EXPECT_NE(phase_us->Find("traverse"), nullptr);
  EXPECT_NE(phase_us->Find("plan"), nullptr);
}

}  // namespace
}  // namespace mcm
