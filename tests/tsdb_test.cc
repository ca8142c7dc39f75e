#include "tsdb/tsdb.h"

#include <deque>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

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

TEST(TsdbTest, FindNeverCreatesASeries) {
  TimeSeriesStore store;
  EXPECT_EQ(store.Find("a"), kNoSeries);
  EXPECT_EQ(store.Find("a"), kNoSeries);
  EXPECT_FALSE(store.Latest(kNoSeries).has_value());
  EXPECT_FALSE(store.Delta(kNoSeries, 0).has_value());
  EXPECT_EQ(store.series_count(), 0u);
  // Interning names a series; only an append makes it count.
  const SeriesId a = store.Intern("a");
  EXPECT_EQ(store.Find("a"), a);
  EXPECT_EQ(store.Find("b"), kNoSeries);
  EXPECT_EQ(store.series_count(), 0u);
  EXPECT_FALSE(store.Latest(a).has_value());
  store.Append(a, Seconds(1), 3);
  EXPECT_EQ(store.series_count(), 1u);
  EXPECT_DOUBLE_EQ(store.Latest("a")->value, 3);
}

TEST(TsdbTest, EmptyNameIsASeriesToo) {
  TimeSeriesStore store;
  EXPECT_FALSE(store.Latest("").has_value());
  store.Append("", Seconds(1), 4);
  EXPECT_EQ(store.Find(""), store.Intern(""));
  EXPECT_DOUBLE_EQ(store.Latest("")->value, 4);
  EXPECT_EQ(store.series_count(), 1u);
}

TEST(TsdbTest, HandlesStayValidAsTheSeriesTableGrows) {
  TimeSeriesStore store(/*max_samples=*/3);
  std::vector<SeriesId> handles;
  for (int i = 0; i < 2000; ++i) {
    handles.push_back(store.Intern("op" + std::to_string(i) + ".tuples_in"));
    // Every earlier handle still names its own series.
    const std::size_t probe = static_cast<std::size_t>(i) / 2;
    store.Append(handles[probe], Seconds(i), static_cast<double>(probe));
    ASSERT_EQ(store.Find("op" + std::to_string(probe) + ".tuples_in"),
              handles[probe]);
  }
  for (std::size_t i = 0; i < handles.size(); ++i) {
    const auto latest = store.Latest("op" + std::to_string(i) + ".tuples_in");
    ASSERT_EQ(latest.has_value(), i < 1000) << i;
    if (latest) {
      EXPECT_EQ(latest->value, static_cast<double>(i)) << i;
    }
  }
  EXPECT_EQ(store.series_count(), 1000u);
}

// The store as it was before series were interned: one deque per name.
// Every sequence below must read the same from the interned rings.
class DequeStore {
 public:
  explicit DequeStore(std::size_t max_samples) : max_samples_(max_samples) {}

  void Append(const std::string& series, SimTime time, double value) {
    auto& points = series_[series];
    points.push_back({time, value});
    if (points.size() > max_samples_) points.pop_front();
  }

  [[nodiscard]] std::optional<Sample> Latest(const std::string& series) const {
    const auto it = series_.find(series);
    if (it == series_.end() || it->second.empty()) return std::nullopt;
    return it->second.back();
  }

  [[nodiscard]] std::optional<double> Delta(const std::string& series,
                                            SimDuration window) const {
    const auto it = series_.find(series);
    if (it == series_.end() || it->second.size() < 2) return std::nullopt;
    const auto& points = it->second;
    const Sample& last = points.back();
    for (auto rit = points.rbegin() + 1; rit != points.rend(); ++rit) {
      if (last.time - rit->time >= window) return last.value - rit->value;
    }
    return last.value - points.front().value;
  }

  [[nodiscard]] const std::deque<Sample>* Points(
      const std::string& series) const {
    const auto it = series_.find(series);
    return it == series_.end() ? nullptr : &it->second;
  }

  [[nodiscard]] std::size_t series_count() const { return series_.size(); }

 private:
  std::size_t max_samples_;
  std::map<std::string, std::deque<Sample>> series_;
};

void ExpectSame(const std::optional<Sample>& actual,
                const std::optional<Sample>& expected,
                const std::string& what) {
  ASSERT_EQ(actual.has_value(), expected.has_value()) << what;
  if (!expected) return;
  EXPECT_EQ(actual->time, expected->time) << what;
  EXPECT_EQ(actual->value, expected->value) << what;
}

// A window of 0, one inside the kept span, one exactly at the age of a kept
// sample, or one beyond the span.
SimDuration PickWindow(Rng& rng, const std::deque<Sample>* points) {
  const SimDuration span =
      points == nullptr || points->empty()
          ? 0
          : points->back().time - points->front().time;
  switch (rng.NextBounded(4)) {
    case 0:
      return 0;
    case 1:
      return span > 1 ? rng.UniformInt(1, span - 1) : span;
    case 2: {
      if (points == nullptr || points->empty()) return Seconds(1);
      const std::size_t i = rng.NextBounded(points->size());
      return points->back().time - (*points)[i].time;
    }
    default:
      return span + rng.UniformInt(1, Seconds(5));
  }
}

TEST(TsdbModelTest, RingsReadLikeTheDequeStore) {
  constexpr int kSequences = 240;
  constexpr int kSteps = 400;
  for (int seq = 0; seq < kSequences; ++seq) {
    Rng rng(1000 + static_cast<std::uint64_t>(seq));
    const std::size_t max_samples = 1 + static_cast<std::size_t>(seq) % 9;
    const int series = 20 + static_cast<int>(rng.NextBounded(11));
    TimeSeriesStore store(max_samples);
    DequeStore model(max_samples);
    std::vector<std::string> names;
    std::vector<SeriesId> handles;
    std::vector<SimTime> clock;
    for (int k = 0; k < series; ++k) {
      names.push_back("q" + std::to_string(k % 4) + ".op" + std::to_string(k) +
                      ".tuples_in");
      handles.push_back(kNoSeries);
      clock.push_back(Millis(static_cast<std::int64_t>(rng.NextBounded(1000))));
    }
    for (int step = 0; step < kSteps; ++step) {
      const std::size_t k = rng.NextBounded(names.size());
      const std::string& name = names[k];
      const std::string what = "seq " + std::to_string(seq) + " step " +
                               std::to_string(step) + " " + name;
      const std::uint64_t op = rng.NextBounded(10);
      if (op < 5) {
        // Equal timestamps are allowed; time never goes backwards.
        if (!rng.Chance(0.25)) clock[k] += rng.UniformInt(1, Millis(1500));
        const double value = static_cast<double>(rng.UniformInt(-50, 1000));
        model.Append(name, clock[k], value);
        if (rng.Chance(0.5)) {
          store.Append(name, clock[k], value);
        } else {
          if (handles[k] == kNoSeries) handles[k] = store.Intern(name);
          store.Append(handles[k], clock[k], value);
        }
      } else if (op < 7) {
        const auto expected = model.Latest(name);
        ExpectSame(store.Latest(name), expected, what + " by name");
        ExpectSame(store.Latest(store.Find(name)), expected, what + " by Find");
        if (handles[k] != kNoSeries) {
          ExpectSame(store.Latest(handles[k]), expected, what + " by handle");
        }
      } else {
        const SimDuration window = PickWindow(rng, model.Points(name));
        const auto expected = model.Delta(name, window);
        const std::string w = what + " window " + std::to_string(window);
        EXPECT_EQ(store.Delta(name, window), expected) << w << " Delta(name)";
        EXPECT_EQ(store.Delta(store.Find(name), window), expected)
            << w << " Delta(id)";
        if (handles[k] != kNoSeries) {
          EXPECT_EQ(store.Delta(handles[k], window), expected)
              << w << " Delta(handle)";
        }
      }
      ASSERT_EQ(store.series_count(), model.series_count()) << what;
      if (::testing::Test::HasFailure()) return;
    }
  }
}

}  // namespace
}  // namespace lachesis::tsdb
