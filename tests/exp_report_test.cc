// Tests of the experiment-harness reporting utilities.
#include "exp/report.h"

#include <cstddef>
#include <cstdlib>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace lachesis::exp {
namespace {

TEST(BenchModeTest, DefaultsToQuick) {
  unsetenv("LACHESIS_BENCH_MODE");
  const BenchMode mode = BenchMode::FromEnv();
  EXPECT_FALSE(mode.full);
  EXPECT_GE(mode.repetitions, 2);
}

TEST(BenchModeTest, FullFromEnv) {
  setenv("LACHESIS_BENCH_MODE", "full", 1);
  const BenchMode mode = BenchMode::FromEnv();
  EXPECT_TRUE(mode.full);
  EXPECT_GE(mode.repetitions, 5);
  EXPECT_GT(mode.measure, Seconds(30));
  unsetenv("LACHESIS_BENCH_MODE");
}

TEST(BenchModeTest, UnknownValueFallsBackToQuick) {
  setenv("LACHESIS_BENCH_MODE", "turbo", 1);
  EXPECT_FALSE(BenchMode::FromEnv().full);
  unsetenv("LACHESIS_BENCH_MODE");
}

TEST(AggregateTest, ExtractsAcrossRuns) {
  std::vector<RunResult> runs(3);
  runs[0].throughput_tps = 100;
  runs[1].throughput_tps = 110;
  runs[2].throughput_tps = 120;
  const MeanCi ci = Aggregate(
      runs, [](const RunResult& r) { return r.throughput_tps; });
  EXPECT_DOUBLE_EQ(ci.mean, 110);
  EXPECT_GT(ci.half_width, 0);
}

TEST(FormatCiTest, PrecisionAdaptsToMagnitude) {
  EXPECT_EQ(FormatCi({12345.6, 78.9, 3}), "12346±79");
  EXPECT_EQ(FormatCi({42.36, 1.23, 3}), "42.4±1.2");
  EXPECT_EQ(FormatCi({0.5, 0.01, 3}), "0.500±0.010");
}

TEST(PercentileTest, BasicAndEmpty) {
  EXPECT_DOUBLE_EQ(Percentile({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(Percentile({1, 2, 3, 4, 5}, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(Percentile({1, 2, 3, 4, 5}, 1.0), 5.0);
}

TEST(PrintingTest, TablesAndLetterValuesDoNotCrash) {
  PrintTable("smoke", {"a", "bb"}, {{"1", "2"}, {"333", "4"}});
  std::vector<double> samples;
  for (int i = 0; i < 1000; ++i) samples.push_back(i * 0.5);
  PrintLetterValues("smoke-lv", samples);
  PrintLetterValues("empty", {});
}

// Fig 13 prints depths up to 15 in full mode (500,000 pooled samples);
// every depth printed, to 17 here, must carry its own name.
TEST(PrintingTest, EveryLetterValueDepthHasItsOwnName) {
  // Depth d needs 8 samples in each tail beyond quantile 2^-d: 8 * 2^17.
  constexpr std::size_t kSamples = std::size_t{8} << 17;
  std::vector<double> samples(kSamples);
  for (std::size_t i = 0; i < kSamples; ++i) {
    samples[i] = static_cast<double>(i);
  }
  testing::internal::CaptureStdout();
  PrintLetterValues("deep", std::move(samples));
  const std::string out = testing::internal::GetCapturedStdout();

  std::istringstream lines(out);
  std::string line;
  std::vector<std::string> names;
  while (std::getline(lines, line)) {
    EXPECT_EQ(line.find('?'), std::string::npos) << line;
    if (line.rfind("  LV ", 0) != 0) continue;
    std::istringstream fields(line.substr(5));
    std::string name;
    fields >> name;
    names.push_back(name);
  }
  ASSERT_EQ(names.size(), 17u) << out;
  EXPECT_EQ(std::set<std::string>(names.begin(), names.end()).size(),
            names.size())
      << out;
  EXPECT_EQ(names.front(), "M");
  EXPECT_EQ(names[10], "W");
  EXPECT_EQ(names[11], "V");
  EXPECT_EQ(names.back(), "Q");
}

}  // namespace
}  // namespace lachesis::exp
