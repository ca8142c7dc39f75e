#include "tsdb/tsdb.h"

#include <deque>
#include <limits>
#include <map>
#include <optional>
#include <stdexcept>
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
  TimeSeriesStore store(/*retention=*/Seconds(3));
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
  TimeSeriesStore store(/*retention=*/Seconds(60));
  store.Append("s", Seconds(1), 10);
  store.Append("s", Seconds(1) + Millis(100), 17);
  // Window larger than the history: uses the oldest sample.
  const auto delta = store.Delta("s", Seconds(60));
  ASSERT_TRUE(delta.has_value());
  EXPECT_DOUBLE_EQ(*delta, 7.0);
}

TEST(TsdbTest, HistoryIsBounded) {
  TimeSeriesStore store(/*retention=*/Seconds(5));
  for (int t = 0; t < 100; ++t) store.Append("s", Seconds(t), t);
  // Kept: t=95..99, younger than 5 s, and t=94, the newest at least 5 s
  // old. A window up to the retention reads as over the full history; a
  // longer one clamps to t=94.
  EXPECT_EQ(store.Delta("s", Seconds(5)), 5.0);
  EXPECT_EQ(store.Delta("s", Seconds(4) + 1), 5.0);
  EXPECT_EQ(store.Delta("s", Seconds(4)), 4.0);
  EXPECT_EQ(store.Delta("s", Seconds(6)), 5.0);
  EXPECT_EQ(store.Delta("s", Seconds(1000)), 5.0);
}

TEST(TsdbTest, HistoryIsCappedAtMaxSamples) {
  TimeSeriesStore store;
  // 1,000 samples 1 us apart all fall inside the 1 s retention; only the
  // newest kMaxSamples stay.
  for (int i = 0; i < 1000; ++i) store.Append("s", Micros(i), i);
  EXPECT_EQ(store.Delta("s", Seconds(1)),
            static_cast<double>(TimeSeriesStore::kMaxSamples - 1));
  EXPECT_EQ(store.Latest("s")->value, 999.0);
}

TEST(TsdbTest, RetentionMustBePositive) {
  EXPECT_EQ(TimeSeriesStore().retention(), kDeltaWindow);
  EXPECT_EQ(TimeSeriesStore(1).retention(), 1);
  EXPECT_THROW(TimeSeriesStore(0), std::invalid_argument);
  EXPECT_THROW(TimeSeriesStore(-Seconds(1)), std::invalid_argument);
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
  TimeSeriesStore store;
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

// A deque per name, trimmed after every append: the front goes while the
// next sample is at least `retention` older than the newest, and while more
// than 600 are kept. With an unbounded retention it is the store as it was
// before retention by time: the newest 600 samples of each series.
class DequeStore {
 public:
  explicit DequeStore(
      SimDuration retention = std::numeric_limits<SimDuration>::max())
      : retention_(retention) {}

  void Append(const std::string& series, SimTime time, double value) {
    auto& points = series_[series];
    points.push_back({time, value});
    while (points.size() >= 2 && time - points[1].time >= retention_) {
      points.pop_front();
    }
    if (points.size() > 600) points.pop_front();
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
  SimDuration retention_;
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
  // From below the smallest step between samples to beyond a whole
  // sequence's span.
  constexpr SimDuration kRetentions[] = {1,           Millis(1),
                                         Millis(250), Seconds(1),
                                         Millis(1500), Seconds(3),
                                         Seconds(10), Seconds(1000)};
  for (int seq = 0; seq < kSequences; ++seq) {
    Rng rng(1000 + static_cast<std::uint64_t>(seq));
    const SimDuration retention =
        kRetentions[static_cast<std::size_t>(seq) % std::size(kRetentions)];
    const int series = 20 + static_cast<int>(rng.NextBounded(11));
    TimeSeriesStore store(retention);
    DequeStore model(retention);
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
      const std::string what = "seq " + std::to_string(seq) + " retention " +
                               std::to_string(retention) + " step " +
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

// A store at the default 1 s retention against the newest 600 samples of
// each series, at the sim scraper's 1 s cadence and the native driver's
// 100 ms poll, each exact and with jitter. Delta is a step function of the
// window that steps only at the age of a sample, so every window up to the
// retention is covered by 0, the retention, and each kept age and its two
// neighbours.
TEST(TsdbModelTest, RetentionReadsLikeTheNewest600Samples) {
  constexpr int kSeries = 3;
  constexpr int kAppends = 2400;
  for (const SimDuration cadence : {Seconds(1), Millis(100)}) {
    for (int seq = 0; seq < 6; ++seq) {
      Rng rng(7000 + static_cast<std::uint64_t>(seq));
      // Exact steps land samples exactly one retention apart; jittered
      // ones (up to +-10% or +-50%) straddle it.
      const SimDuration jitter =
          seq % 3 == 0 ? 0 : cadence / (seq % 3 == 1 ? 10 : 2);
      TimeSeriesStore store;
      DequeStore full;
      std::vector<SeriesId> handles;
      std::vector<std::string> names;
      std::vector<SimTime> clock;
      for (int k = 0; k < kSeries; ++k) {
        names.push_back("q.op" + std::to_string(k) + ".tuples_in");
        handles.push_back(store.Intern(names.back()));
        clock.push_back(
            Millis(static_cast<std::int64_t>(rng.NextBounded(1000))));
      }
      double counter = 0;
      for (int step = 0; step < kAppends; ++step) {
        const std::size_t k = rng.NextBounded(kSeries);
        // A repeated scrape time now and then; time never goes backwards.
        if (!rng.Chance(0.05)) {
          clock[k] +=
              cadence + (jitter > 0 ? rng.UniformInt(-jitter, jitter) : 0);
        }
        counter += static_cast<double>(rng.UniformInt(0, 100));
        store.Append(handles[k], clock[k], counter);
        full.Append(names[k], clock[k], counter);

        const std::string what = "cadence " + std::to_string(cadence) +
                                 " seq " + std::to_string(seq) + " step " +
                                 std::to_string(step) + " " + names[k];
        ExpectSame(store.Latest(handles[k]), full.Latest(names[k]), what);
        const std::deque<Sample>& points = *full.Points(names[k]);
        std::vector<SimDuration> windows = {0, store.retention()};
        for (const Sample& p : points) {
          const SimDuration age = points.back().time - p.time;
          for (const SimDuration w : {age - 1, age, age + 1}) {
            if (w >= 0 && w <= store.retention()) windows.push_back(w);
          }
        }
        for (const SimDuration w : windows) {
          EXPECT_EQ(store.Delta(handles[k], w), full.Delta(names[k], w))
              << what << " window " << w;
        }
        if (::testing::Test::HasFailure()) return;
      }
    }
  }
}

}  // namespace
}  // namespace lachesis::tsdb
