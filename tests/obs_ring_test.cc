// Tests of the decision-provenance layer (src/obs/): the event ring's
// wraparound and drop accounting, the recorder's thread safety and
// enabled/verbose gating, and the explain-query replay.
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/event_ring.h"
#include "obs/explain.h"
#include "obs/recorder.h"

namespace lachesis::obs {
namespace {

Event MakeEvent(std::uint64_t seq, SimTime time) {
  Event e;
  e.seq = seq;
  e.time = time;
  e.kind = EventKind::kTickBegin;
  return e;
}

TEST(EventRingTest, FillsToCapacityWithoutDropping) {
  EventRing ring(4);
  for (int i = 0; i < 4; ++i) ring.Push(MakeEvent(i, i * 100));
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.dropped(), 0u);
  EXPECT_EQ(ring.total_pushed(), 4u);
}

TEST(EventRingTest, WraparoundKeepsNewestAndCountsDropped) {
  EventRing ring(4);
  for (int i = 0; i < 10; ++i) ring.Push(MakeEvent(i, i * 100));
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.dropped(), 6u);
  const std::vector<Event> events = ring.Snapshot();
  ASSERT_EQ(events.size(), 4u);
  // Oldest -> newest: the last four pushes.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(events[i].seq, static_cast<std::uint64_t>(6 + i));
  }
}

TEST(EventRingTest, ZeroCapacityClampsToOne) {
  EventRing ring(0);
  ring.Push(MakeEvent(1, 0));
  ring.Push(MakeEvent(2, 0));
  EXPECT_EQ(ring.capacity(), 1u);
  EXPECT_EQ(ring.size(), 1u);
  EXPECT_EQ(ring.Snapshot().front().seq, 2u);
}

TEST(EventRingTest, ClearKeepsTotalPushed) {
  EventRing ring(4);
  for (int i = 0; i < 3; ++i) ring.Push(MakeEvent(i, 0));
  ring.Clear();
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.total_pushed(), 3u);
}

TEST(PackTickCountsTest, RoundTripsAndSaturates) {
  const std::int64_t packed = PackTickCounts(1, 2, 3, 4);
  EXPECT_EQ(UnpackTickCount(packed, 0), 1u);
  EXPECT_EQ(UnpackTickCount(packed, 1), 2u);
  EXPECT_EQ(UnpackTickCount(packed, 2), 3u);
  EXPECT_EQ(UnpackTickCount(packed, 3), 4u);
  const std::int64_t big = PackTickCounts(1u << 20, 0xffff, 0, 70000);
  EXPECT_EQ(UnpackTickCount(big, 0), 0xffffu);  // saturated, not truncated
  EXPECT_EQ(UnpackTickCount(big, 1), 0xffffu);
  EXPECT_EQ(UnpackTickCount(big, 2), 0u);
  EXPECT_EQ(UnpackTickCount(big, 3), 0xffffu);
}

TEST(RecorderTest, AssignsMonotonicSequenceNumbers) {
  Recorder recorder(16);
  recorder.TickBegin(0, 0);
  recorder.Op(10, EventKind::kOpApplied, 0, "t:1/-1", -5);
  recorder.TickEnd(20, {});
  const std::vector<Event> events = recorder.Snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].seq, 0u);
  EXPECT_EQ(events[1].seq, 1u);
  EXPECT_EQ(events[2].seq, 2u);
  EXPECT_EQ(recorder.total_recorded(), 3u);
  EXPECT_EQ(recorder.dropped(), 0u);
}

TEST(RecorderTest, DisabledRecordsNothing) {
  Recorder recorder(16);
  recorder.set_enabled(false);
  recorder.TickBegin(0, 0);
  recorder.Op(0, EventKind::kOpApplied, 0, "t:1/-1", -5);
  recorder.BreakerTransition(0, 1, 0, 1);
  recorder.TickEnd(0, {});
  EXPECT_EQ(recorder.total_recorded(), 0u);
  EXPECT_TRUE(recorder.Snapshot().empty());
}

TEST(RecorderTest, OpByInternedTargetRecordsTheSameEvent) {
  Recorder by_name(16);
  Recorder by_id(16);
  by_name.Op(7, EventKind::kOpApplied, 2, "g:op-liebre.syn17.op2.0", 512,
             "detail");
  const StrId target = by_id.Intern("g:op-liebre.syn17.op2.0");
  by_id.Op(7, EventKind::kOpApplied, 2, target, 512, "detail");
  const std::vector<Event> a = by_name.Snapshot();
  const std::vector<Event> b = by_id.Snapshot();
  ASSERT_EQ(a.size(), 1u);
  ASSERT_EQ(b.size(), 1u);
  EXPECT_EQ(a[0].kind, b[0].kind);
  EXPECT_EQ(a[0].time, b[0].time);
  EXPECT_EQ(a[0].op_class, b[0].op_class);
  EXPECT_EQ(a[0].v0, b[0].v0);
  EXPECT_EQ(a[0].target, b[0].target);
  EXPECT_EQ(a[0].detail, b[0].detail);
  EXPECT_EQ(by_id.Name(b[0].target), "g:op-liebre.syn17.op2.0");
  // The same gates: elisions are verbose-only, a disabled recorder
  // records nothing.
  by_id.Op(8, EventKind::kOpElided, 2, target, 512);
  EXPECT_EQ(by_id.total_recorded(), 1u);
  by_id.set_enabled(false);
  by_id.Op(9, EventKind::kOpApplied, 2, target, 512);
  EXPECT_EQ(by_id.total_recorded(), 1u);
}

TEST(RecorderTest, ElisionsAndSamplesAreVerboseOnly) {
  Recorder recorder(16);
  recorder.Op(0, EventKind::kOpElided, 0, "t:1/-1", -5);
  recorder.MetricSample(0, "op0", "queue_size", 42.0);
  EXPECT_EQ(recorder.total_recorded(), 0u);
  recorder.set_verbose(true);
  recorder.Op(0, EventKind::kOpElided, 0, "t:1/-1", -5);
  recorder.MetricSample(0, "op0", "queue_size", 42.0);
  EXPECT_EQ(recorder.total_recorded(), 2u);
  // verbose() requires enabled: disabling turns verbose recording off too.
  recorder.set_enabled(false);
  EXPECT_FALSE(recorder.verbose());
}

TEST(RecorderTest, InternsStringsStably) {
  Recorder recorder(4);
  const StrId a = recorder.Intern("t:1/-1");
  const StrId b = recorder.Intern("t:2/-1");
  EXPECT_NE(a, b);
  EXPECT_EQ(recorder.Intern("t:1/-1"), a);
  EXPECT_EQ(recorder.Lookup("t:1/-1"), a);
  EXPECT_EQ(recorder.Lookup("never-seen"), kNoStr);
  EXPECT_EQ(recorder.Name(a), "t:1/-1");
  EXPECT_EQ(recorder.Name(kNoStr), "");
}

TEST(RecorderTest, ConcurrentWritersLoseNothingBelowCapacity) {
  Recorder recorder(4096);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 500;
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&recorder, t] {
      const std::string target = "t:" + std::to_string(t) + "/-1";
      for (int i = 0; i < kPerThread; ++i) {
        recorder.Op(i, EventKind::kOpApplied, t % 5, target, i);
      }
    });
  }
  for (std::thread& w : writers) w.join();
  EXPECT_EQ(recorder.total_recorded(),
            static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(recorder.dropped(), 0u);
  // Sequence numbers are unique even under contention.
  const std::vector<Event> events = recorder.Snapshot();
  std::vector<bool> seen(kThreads * kPerThread, false);
  for (const Event& e : events) {
    ASSERT_LT(e.seq, seen.size());
    EXPECT_FALSE(seen[e.seq]);
    seen[e.seq] = true;
  }
}

TEST(RecorderTest, ResizeKeepsNewestEventsAndAccounting) {
  Recorder recorder(8);
  for (int i = 0; i < 8; ++i) recorder.TickBegin(i * 100, i);
  recorder.SetRingCapacity(4);
  const std::vector<Event> events = recorder.Snapshot();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events.front().seq, 4u);
  EXPECT_EQ(events.back().seq, 7u);
  EXPECT_EQ(recorder.total_recorded(), 8u);
  EXPECT_EQ(recorder.dropped(), 4u);
  // New events keep the global sequence.
  recorder.TickBegin(900, 9);
  EXPECT_EQ(recorder.Snapshot().back().seq, 8u);
}

// --- explain replay --------------------------------------------------------

class ExplainTest : public ::testing::Test {
 protected:
  // A small story about thread t:1/-1: nice applied, a failure arms
  // backoff, a suppression, the class breaker opens, then recovery.
  void RecordStory() {
    recorder_.TickBegin(Seconds(1), 0);
    recorder_.Op(Seconds(1), EventKind::kOpApplied, 0, "t:1/-1", -5);
    recorder_.Op(Seconds(1), EventKind::kOpApplied, 0, "t:2/-1", -3);
    recorder_.TickEnd(Seconds(1), {});
    recorder_.Op(Seconds(2), EventKind::kOpError, 0, "t:1/-1", -12,
                 "injected EPERM");
    recorder_.BackoffArmed(Seconds(2), 0, "t:1/-1", 2, Seconds(4));
    recorder_.BreakerTransition(Seconds(2), 0, 0, 1);
    recorder_.Op(Seconds(3), EventKind::kOpSuppressed, 0, "t:1/-1", -12);
    recorder_.BreakerTransition(Seconds(5), 0, 1, 2);
    recorder_.Op(Seconds(5), EventKind::kOpApplied, 0, "t:1/-1", -12);
    recorder_.BreakerTransition(Seconds(5), 0, 2, 0);
  }

  Recorder recorder_{64};
};

TEST_F(ExplainTest, ReportsLastAppliedValueAsOfQueryTime) {
  RecordStory();
  const Explanation early = ExplainTarget(recorder_, "t:1/-1", Seconds(1));
  ASSERT_EQ(early.applied.size(), 1u);
  EXPECT_EQ(early.applied[0].value, -5);
  EXPECT_EQ(early.applied[0].since, Seconds(1));

  const Explanation late = ExplainTarget(recorder_, "t:1/-1", Seconds(6));
  ASSERT_EQ(late.applied.size(), 1u);
  EXPECT_EQ(late.applied[0].value, -12);
  EXPECT_EQ(late.applied[0].since, Seconds(5));
  EXPECT_FALSE(late.backing_off.has_value());
}

TEST_F(ExplainTest, DetectsActiveBackoff) {
  RecordStory();
  // At t=3s the backoff armed at t=2s (retry at 4s) is still pending.
  const Explanation mid = ExplainTarget(recorder_, "t:1/-1", Seconds(3));
  ASSERT_TRUE(mid.backing_off.has_value());
  EXPECT_EQ(mid.backing_off->v0, Seconds(4));
  // By t=4s the retry time has arrived: no longer backing off.
  const Explanation after = ExplainTarget(recorder_, "t:1/-1", Seconds(4));
  EXPECT_FALSE(after.backing_off.has_value());
}

TEST_F(ExplainTest, TrailExcludesOtherTargetsButIncludesClassBreakers) {
  RecordStory();
  const Explanation ex = ExplainTarget(recorder_, "t:1/-1", Seconds(6));
  for (const Event& e : ex.trail) {
    if (e.kind == EventKind::kBreakerTransition) continue;
    EXPECT_EQ(recorder_.Name(e.target), "t:1/-1");
  }
  int breaker_events = 0;
  for (const Event& e : ex.trail) {
    if (e.kind == EventKind::kBreakerTransition) ++breaker_events;
  }
  EXPECT_EQ(breaker_events, 3);  // open, half-open, close of class 0
}

TEST_F(ExplainTest, TrailIsTimeBounded) {
  RecordStory();
  const Explanation ex = ExplainTarget(recorder_, "t:1/-1", Seconds(2));
  for (const Event& e : ex.trail) EXPECT_LE(e.time, Seconds(2));
  // The suppression at t=3s and recovery at t=5s are not in the trail.
  EXPECT_EQ(ex.trail.back().time, Seconds(2));
}

TEST_F(ExplainTest, UnknownTargetYieldsEmptyExplanation) {
  RecordStory();
  const Explanation ex = ExplainTarget(recorder_, "t:99/-1", Seconds(6));
  EXPECT_TRUE(ex.trail.empty());
  EXPECT_TRUE(ex.applied.empty());
  EXPECT_NE(ex.text.find("no recorded events"), std::string::npos);
}

TEST_F(ExplainTest, TranscriptIsDeterministic) {
  RecordStory();
  const std::string a = ExplainTarget(recorder_, "t:1/-1", Seconds(6)).text;
  const std::string b = ExplainTarget(recorder_, "t:1/-1", Seconds(6)).text;
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("verdict:"), std::string::npos);
  EXPECT_NE(a.find("class0=-12"), std::string::npos);  // no name fn -> classN
}

TEST_F(ExplainTest, TruncationIsReported) {
  Recorder small(4);
  small.Op(Seconds(1), EventKind::kOpApplied, 0, "t:1/-1", -5);
  for (int i = 0; i < 10; ++i) {
    small.Op(Seconds(2) + i, EventKind::kOpApplied, 0, "t:1/-1", -6);
  }
  const Explanation ex = ExplainTarget(small, "t:1/-1", Seconds(20));
  EXPECT_TRUE(ex.history_truncated);
  EXPECT_NE(ex.text.find("truncated"), std::string::npos);
}

}  // namespace
}  // namespace lachesis::obs
