#include "tsdb/tsdb.h"

#include <gtest/gtest.h>

namespace lachesis::tsdb {
namespace {

TEST(TsdbTest, LatestOfMissingSeriesIsEmpty) {
  TimeSeriesStore store;
  EXPECT_FALSE(store.Latest("nope").has_value());
  EXPECT_FALSE(store.Delta("nope", Seconds(1)).has_value());
}

TEST(TsdbTest, LatestReturnsNewestSample) {
  TimeSeriesStore store;
  store.Append("s", Seconds(1), 10);
  store.Append("s", Seconds(2), 20);
  const auto latest = store.Latest("s");
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->time, Seconds(2));
  EXPECT_DOUBLE_EQ(latest->value, 20);
}

TEST(TsdbTest, DeltaOverWindow) {
  TimeSeriesStore store;
  for (int t = 0; t <= 10; ++t) {
    store.Append("counter", Seconds(t), 100.0 * t);
  }
  // Newest sample at least 3 s older than t=10 is t=7: delta = 300.
  const auto delta = store.Delta("counter", Seconds(3));
  ASSERT_TRUE(delta.has_value());
  EXPECT_DOUBLE_EQ(*delta, 300.0);
}

TEST(TsdbTest, DeltaNeedsTwoSamples) {
  TimeSeriesStore store;
  store.Append("s", Seconds(1), 5);
  EXPECT_FALSE(store.Delta("s", Seconds(1)).has_value());
}

TEST(TsdbTest, DeltaFallsBackToOldestSample) {
  TimeSeriesStore store;
  store.Append("s", Seconds(1), 10);
  store.Append("s", Seconds(1) + Millis(100), 17);
  // Window larger than the history: uses the oldest sample.
  const auto delta = store.Delta("s", Seconds(60));
  ASSERT_TRUE(delta.has_value());
  EXPECT_DOUBLE_EQ(*delta, 7.0);
}

TEST(TsdbTest, HistoryIsBounded) {
  TimeSeriesStore store(/*max_samples=*/5);
  for (int t = 0; t < 100; ++t) store.Append("s", Seconds(t), t);
  // Oldest retained sample is t=95; a huge window clamps to it.
  const auto delta = store.Delta("s", Seconds(1000));
  ASSERT_TRUE(delta.has_value());
  EXPECT_DOUBLE_EQ(*delta, 4.0);
}

TEST(TsdbTest, SeriesAreIndependent) {
  TimeSeriesStore store;
  store.Append("a", Seconds(1), 1);
  store.Append("b", Seconds(1), 2);
  EXPECT_DOUBLE_EQ(store.Latest("a")->value, 1);
  EXPECT_DOUBLE_EQ(store.Latest("b")->value, 2);
  EXPECT_EQ(store.series_count(), 2u);
}

}  // namespace
}  // namespace lachesis::tsdb
