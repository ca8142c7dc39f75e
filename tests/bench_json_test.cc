// Tests of the writer behind every BENCH_*.json the benches format: the
// exact text of separators, nesting, escaping and each value type.
#include "bench/bench_json.h"

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>

#include <gtest/gtest.h>

namespace lachesis::bench {
namespace {

TEST(BenchJsonTest, NestsObjectsAndArraysWithSeparators) {
  JsonWriter w;
  w.BeginObject().Field("bench", "runner").BeginArray("series");
  w.BeginObject().Field("a", 1).EndObject();
  w.BeginObject().Field("a", 2).BeginObject("inner").Field("b", true)
      .EndObject().EndObject();
  w.EndArray().BeginArray("empty").EndArray();
  w.BeginObject("none").EndObject().EndObject();
  EXPECT_EQ(w.str(),
            "{\n"
            "  \"bench\": \"runner\",\n"
            "  \"series\": [\n"
            "    {\n"
            "      \"a\": 1\n"
            "    },\n"
            "    {\n"
            "      \"a\": 2,\n"
            "      \"inner\": {\n"
            "        \"b\": true\n"
            "      }\n"
            "    }\n"
            "  ],\n"
            "  \"empty\": [],\n"
            "  \"none\": {}\n"
            "}");
}

TEST(BenchJsonTest, EscapesQuotesBackslashesAndControlCharacters) {
  JsonWriter w;
  w.BeginObject()
      .Field("say \"hi\"", "C:\\tmp\\x")
      .Field("ctl", std::string("a\nb\tc\x01") + "d")
      .EndObject();
  EXPECT_EQ(w.str(),
            "{\n"
            "  \"say \\\"hi\\\"\": \"C:\\\\tmp\\\\x\",\n"
            "  \"ctl\": \"a\\nb\\tc\\u0001d\"\n"
            "}");
}

TEST(BenchJsonTest, FormatsEachValueType) {
  JsonWriter w;
  w.BeginObject()
      .Field("int", -42)
      .Field("u64", std::numeric_limits<std::uint64_t>::max())
      .Field("double", 52292.775)
      .Field("whole", 2.0)
      .Field("small", 0.000125)
      .Field("ten_digits", 1166949287.4)
      .Field("nan", std::numeric_limits<double>::quiet_NaN())
      .Field("yes", true)
      .Field("no", false)
      .Field("literal", "quick")
      .Field("string", std::string("a16c0e0cc9d2f1b3"))
      .EndObject();
  EXPECT_EQ(w.str(),
            "{\n"
            "  \"int\": -42,\n"
            "  \"u64\": 18446744073709551615,\n"
            "  \"double\": 52292.775,\n"
            "  \"whole\": 2,\n"
            "  \"small\": 0.000125,\n"
            "  \"ten_digits\": 1166949287,\n"
            "  \"nan\": null,\n"
            "  \"yes\": true,\n"
            "  \"no\": false,\n"
            "  \"literal\": \"quick\",\n"
            "  \"string\": \"a16c0e0cc9d2f1b3\"\n"
            "}");
}

TEST(BenchJsonTest, WritesTheDocumentWithATrailingNewline) {
  JsonWriter w;
  w.BeginObject().Field("bench", "t").EndObject();
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() /
      ("bench_json_test_" + std::to_string(::getpid()) + ".json");
  ASSERT_TRUE(w.WriteFile(path.string()));
  std::ifstream in(path);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  std::remove(path.c_str());
  EXPECT_EQ(text, "{\n  \"bench\": \"t\"\n}\n");
}

}  // namespace
}  // namespace lachesis::bench
