#include "mcm/obs/export.h"

#include <gtest/gtest.h>
#include <stdlib.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "mcm/bench_util/experiment.h"
#include "mcm/dataset/vector_datasets.h"
#include "mcm/metric/traits.h"
#include "mcm/mtree/mtree.h"
#include "mcm/obs/bench_observer.h"
#include "mcm/obs/metrics.h"
#include "mcm/obs/telemetry.h"
#include "mcm/obs/trace.h"
#include "temp_dir.h"

namespace mcm {
namespace {

TEST(JsonEscapeTest, EscapesControlAndQuoteCharacters) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonEscape("a\nb\tc"), "a\\nb\\tc");
}

TEST(JsonNumberTest, RoundTripsAndHandlesNonFinite) {
  EXPECT_EQ(JsonNumber(1.0), "1");
  EXPECT_EQ(JsonNumber(-2.5), "-2.5");
  EXPECT_EQ(JsonNumber(std::nan("")), "null");
  EXPECT_EQ(JsonNumber(1.0 / 0.0), "null");
}

TEST(JsonObjectBuilderTest, BuildsOrderedObject) {
  JsonObjectBuilder b;
  b.Add("name", "fig1");
  b.Add("nodes", 12.5);
  b.Add("count", static_cast<uint64_t>(7));
  b.Add("ok", true);
  b.AddNumberArray("levels", {1.0, 2.0});
  b.AddRaw("nested", "{\"a\":1}");
  const std::string json = b.Build();
  EXPECT_EQ(json,
            "{\"name\":\"fig1\",\"nodes\":12.5,\"count\":7,\"ok\":true,"
            "\"levels\":[1,2],\"nested\":{\"a\":1}}");
}

TEST(ParseJsonTest, ParsesScalarsArraysObjects) {
  const auto v = ParseJson(
      R"({"s":"hi","n":-1.5,"b":true,"z":null,"a":[1,2,3],"o":{"k":"v"}})");
  ASSERT_TRUE(v.has_value());
  ASSERT_TRUE(v->is_object());
  EXPECT_EQ(v->Find("s")->string_value, "hi");
  EXPECT_DOUBLE_EQ(v->Find("n")->number_value, -1.5);
  EXPECT_TRUE(v->Find("b")->bool_value);
  EXPECT_EQ(v->Find("z")->kind, JsonValue::Kind::kNull);
  ASSERT_TRUE(v->Find("a")->is_array());
  EXPECT_EQ(v->Find("a")->array_value.size(), 3u);
  EXPECT_EQ(v->Find("o")->Find("k")->string_value, "v");
  EXPECT_EQ(v->Find("missing"), nullptr);
}

TEST(ParseJsonTest, ParsesEscapes) {
  const auto v = ParseJson(R"({"s":"a\"b\\c\nd"})");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->Find("s")->string_value, "a\"b\\c\nd");
}

TEST(ParseJsonTest, RejectsMalformedInput) {
  EXPECT_FALSE(ParseJson("").has_value());
  EXPECT_FALSE(ParseJson("{").has_value());
  EXPECT_FALSE(ParseJson("{\"a\":}").has_value());
  EXPECT_FALSE(ParseJson("[1,2,]").has_value());
  EXPECT_FALSE(ParseJson("{} trailing").has_value());
  EXPECT_FALSE(ParseJson("nul").has_value());
}

TEST(JsonlWriterTest, RoundTripsThroughParser) {
  const test::ScopedTempDir dir;
  const std::string path = dir.File("export.jsonl");
  {
    JsonlWriter writer(path);
    ASSERT_TRUE(writer.ok());
    JsonObjectBuilder rec;
    rec.Add("record", "query");
    rec.Add("nodes", static_cast<uint64_t>(12));
    rec.Add("latency_us", 3.25);
    rec.AddNumberArray("level_nodes", {1.0, 4.0, 7.0});
    writer.WriteLine(rec.Build());
    JsonObjectBuilder rec2;
    rec2.Add("record", "summary");
    rec2.Add("label", "D=10 \"quoted\"");
    writer.WriteLine(rec2.Build());
    EXPECT_EQ(writer.lines_written(), 2u);
  }
  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  auto first = ParseJson(line);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->Find("record")->string_value, "query");
  EXPECT_DOUBLE_EQ(first->Find("nodes")->number_value, 12.0);
  EXPECT_DOUBLE_EQ(first->Find("latency_us")->number_value, 3.25);
  ASSERT_EQ(first->Find("level_nodes")->array_value.size(), 3u);
  EXPECT_DOUBLE_EQ(first->Find("level_nodes")->array_value[1].number_value,
                   4.0);
  ASSERT_TRUE(std::getline(in, line));
  auto second = ParseJson(line);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->Find("label")->string_value, "D=10 \"quoted\"");
  EXPECT_FALSE(std::getline(in, line));
}

/// Points MCM_OBS_DIR at `dir` and turns observability on for one scope.
class ObservedScope {
 public:
  explicit ObservedScope(const std::string& dir) : previous_(ObsEnabled()) {
    ::setenv("MCM_OBS_DIR", dir.c_str(), /*overwrite=*/1);
    SetObsEnabledForTesting(true);
  }
  ~ObservedScope() {
    ::unsetenv("MCM_OBS_DIR");
    SetObsEnabledForTesting(previous_);
  }

 private:
  bool previous_;
};

// Each query record of the observed MeasureRange carries what the same
// query reports when run directly with a QueryTrace attached, and the
// summary's residual streams hold one sample per query.
TEST(BenchObserverTest, QueryRecordsMatchDirectlyTracedQueries) {
  using Traits = VectorTraits<L2Distance>;
  MTreeOptions options;
  options.node_size_bytes = 512;
  MTree<Traits> tree{L2Distance{}, options};
  const auto data =
      GenerateVectorDataset(VectorDatasetKind::kClustered, 300, 4, 7);
  for (size_t i = 0; i < data.size(); ++i) tree.Insert(data[i], i);
  const auto queries =
      GenerateVectorDataset(VectorDatasetKind::kClustered, 8, 4, 11);
  constexpr double kRadius = 0.3;

  const test::ScopedTempDir dir;
  {
    const ObservedScope observed(dir.path());
    BenchObserver observer("obs_export_test");
    ASSERT_TRUE(observer.enabled());
    EXPECT_EQ(observer.artifact_path(),
              dir.File("BENCH_obs_export_test.json"));
    MeasureRange(tree, queries, kRadius, &observer, "case",
                 {{"model", 10.0, 100.0,
                   std::vector<double>(tree.height(), 1.0)}});
  }
  TelemetrySink::Global().Clear();

  std::ifstream in(dir.File("BENCH_obs_export_test.json"));
  size_t query_records = 0;
  size_t pruned_records = 0;
  size_t summaries = 0;
  std::string line;
  while (std::getline(in, line)) {
    const auto rec = ParseJson(line);
    ASSERT_TRUE(rec.has_value()) << line;
    const std::string kind = rec->Find("record")->string_value;
    if (kind == "query") {
      const size_t seq =
          static_cast<size_t>(rec->Find("seq")->number_value);
      ASSERT_LT(seq, queries.size());
      QueryTrace trace;
      QueryStats stats;
      stats.trace = &trace;
      tree.RangeSearch(queries[seq], kRadius, &stats);
      EXPECT_EQ(rec->Find("nodes")->number_value,
                static_cast<double>(stats.nodes_accessed));
      EXPECT_EQ(rec->Find("witness_avoided")->number_value,
                static_cast<double>(stats.distance_calcs_avoided_by_witness));
      const auto& level_nodes = rec->Find("level_nodes")->array_value;
      const std::vector<double> expected_levels = trace.LevelNodeVisits();
      ASSERT_FALSE(expected_levels.empty());
      ASSERT_EQ(level_nodes.size(), expected_levels.size());
      for (size_t l = 0; l < level_nodes.size(); ++l) {
        EXPECT_EQ(level_nodes[l].number_value, expected_levels[l]);
      }
      const JsonValue* prunes = rec->Find("prunes");
      size_t reasons = 0;
      for (size_t r = 0; r < kNumPruneReasons; ++r) {
        const uint64_t count = trace.prunes_by_reason()[r];
        if (count == 0) continue;
        ++reasons;
        const JsonValue* value =
            prunes->Find(ToString(static_cast<PruneReason>(r)));
        ASSERT_NE(value, nullptr);
        EXPECT_EQ(value->number_value, static_cast<double>(count));
      }
      EXPECT_EQ(prunes->object_value.size(), reasons);
      pruned_records += reasons > 0 ? 1 : 0;
      ++query_records;
    } else if (kind == "summary") {
      const JsonValue* residuals = rec->Find("residuals");
      ASSERT_NE(residuals, nullptr);
      EXPECT_FALSE(residuals->object_value.empty());
      for (const auto& [stream, stats] : residuals->object_value) {
        EXPECT_EQ(stats.Find("count")->number_value,
                  static_cast<double>(queries.size()))
            << stream;
      }
      ++summaries;
    }
  }
  EXPECT_EQ(query_records, queries.size());
  EXPECT_GT(pruned_records, 0u);
  EXPECT_EQ(summaries, 1u);
}

}  // namespace
}  // namespace mcm
