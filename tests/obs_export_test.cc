#include "mcm/obs/export.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

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

TEST(CsvWriterTest, QuotesAndPadsRows) {
  const test::ScopedTempDir dir;
  const std::string path = dir.File("export.csv");
  {
    CsvWriter writer(path, {"case", "stream", "value"});
    ASSERT_TRUE(writer.ok());
    writer.WriteRow({"D=10", "N-MCM/nodes", "1.5"});
    writer.WriteRow({"has,comma", "has\"quote"});  // Padded to 3 cells.
  }
  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "case,stream,value");
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "D=10,N-MCM/nodes,1.5");
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "\"has,comma\",\"has\"\"quote\",");
}

}  // namespace
}  // namespace mcm
