// Tests of dynamic orchestration (paper §6.5): queries attaching and
// detaching while the loop runs, incremental GCD wake-interval derivation,
// refcounted metric registration, and cadence across disable/re-enable.
#include <cerrno>
#include <memory>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "core/runner.h"
#include "core/sim_executor.h"
#include "sim/simulator.h"
#include "tests/fake_driver.h"

namespace lachesis::core {
namespace {

using testing::FakeDriver;
using testing::RecordingOsAdapter;

// Counts invocations; configurable required metric.
class CountingPolicy final : public SchedulingPolicy {
 public:
  explicit CountingPolicy(int* counter, MetricId required = MetricId::kQueueSize)
      : counter_(counter), required_(required) {}
  [[nodiscard]] const std::string& name() const override { return name_; }
  [[nodiscard]] std::vector<MetricId> RequiredMetrics() const override {
    return {required_};
  }
  Schedule ComputeSchedule(const PolicyContext& ctx) override {
    ++*counter_;
    Schedule s;
    ctx.ForEachEntity([&](SpeDriver& driver, const EntityInfo& e) {
      s.entries.push_back({&e, ctx.provider->Value(driver, required_, e.id)});
    });
    return s;
  }

 private:
  int* counter_;
  MetricId required_;
  std::string name_ = "counting";
};

struct Rig {
  sim::Simulator sim;
  SimControlExecutor executor{sim};
  RecordingOsAdapter os;
  FakeDriver driver;

  Rig() {
    const EntityInfo a = driver.AddEntity(QueryId(0), {0});
    const EntityInfo b = driver.AddEntity(QueryId(1), {0});
    driver.Provide(MetricId::kQueueSize);
    driver.Provide(MetricId::kHeadTupleAge);
    driver.SetValue(MetricId::kQueueSize, a.id, 5);
    driver.SetValue(MetricId::kQueueSize, b.id, 50);
  }

  PolicyBinding Binding(int* counter, SimDuration period,
                        MetricId required = MetricId::kQueueSize) {
    PolicyBinding b;
    b.policy = std::make_unique<CountingPolicy>(counter, required);
    b.translator = std::make_unique<NiceTranslator>();
    b.period = period;
    b.drivers = {&driver};
    return b;
  }
};

TEST(RunnerDynamicTest, AddQueryMidRunRegistersMetricsAndFires) {
  Rig rig;
  LachesisRunner runner(rig.executor, rig.os);
  int base_count = 0;
  runner.AddQuery(rig.Binding(&base_count, Seconds(1)));
  runner.Start(Seconds(6));
  rig.sim.RunUntil(Seconds(2));
  EXPECT_EQ(base_count, 2);
  EXPECT_EQ(runner.WakeInterval(), Seconds(1));
  EXPECT_FALSE(runner.provider().registered().count(MetricId::kHeadTupleAge));

  // A 500 ms query arrives at t=2s: the GCD shrinks to 500 ms, its metric
  // is registered immediately, and it first fires one new interval later.
  int added_count = 0;
  const std::size_t idx = runner.AddQuery(
      rig.Binding(&added_count, Millis(500), MetricId::kHeadTupleAge));
  EXPECT_TRUE(runner.query_attached(idx));
  EXPECT_EQ(runner.WakeInterval(), Millis(500));
  EXPECT_TRUE(runner.provider().registered().count(MetricId::kHeadTupleAge));

  rig.sim.RunUntil(Seconds(6));
  // Base query: t = 1..6 s.
  EXPECT_EQ(base_count, 6);
  // Added query: t = 2.5, 3.0, ..., 6.0 s.
  EXPECT_EQ(added_count, 8);
}

TEST(RunnerDynamicTest, AddQueryReschedulesEarlierWakeup) {
  // After the GCD shrinks mid-interval, the next wakeup moves up; the
  // superseded callback must not produce a duplicate tick.
  Rig rig;
  LachesisRunner runner(rig.executor, rig.os);
  int base_count = 0;
  runner.AddQuery(rig.Binding(&base_count, Seconds(2)));

  std::vector<SimTime> wakeups;
  runner.SetTickObserver(
      [&wakeups](const RunnerTickInfo& info) { wakeups.push_back(info.now); });
  runner.Start(Seconds(4));
  rig.sim.RunUntil(Seconds(2));  // tick at 2 s ran; next wake was 4 s

  int added_count = 0;
  runner.AddQuery(rig.Binding(&added_count, Millis(500)));
  rig.sim.RunUntil(Seconds(4));

  // Wakeups: 2.0 (pre-attach), then every 500 ms from 2.5 on -- no
  // duplicates from the stale 4 s callback.
  const std::vector<SimTime> expected = {Seconds(2),   Millis(2500),
                                         Seconds(3),   Millis(3500),
                                         Seconds(4)};
  EXPECT_EQ(wakeups, expected);
  EXPECT_EQ(added_count, 4);  // 2.5, 3.0, 3.5, 4.0
  EXPECT_EQ(base_count, 2);   // 2.0, 4.0
}

TEST(RunnerDynamicTest, RemoveQueryStopsFiringAndUnregistersMetrics) {
  Rig rig;
  LachesisRunner runner(rig.executor, rig.os);
  int qs_count = 0;
  int age_count = 0;
  const std::size_t qs_idx = runner.AddQuery(rig.Binding(&qs_count, Seconds(1)));
  const std::size_t age_idx = runner.AddQuery(
      rig.Binding(&age_count, Seconds(1), MetricId::kHeadTupleAge));
  runner.Start(Seconds(6));
  rig.sim.RunUntil(Seconds(3));
  EXPECT_EQ(qs_count, 3);
  EXPECT_EQ(age_count, 3);

  runner.RemoveQuery(age_idx);
  EXPECT_FALSE(runner.query_attached(age_idx));
  EXPECT_TRUE(runner.query_attached(qs_idx));
  // Its metric had a single owner and is unregistered; the shared loop
  // keeps running the remaining query.
  EXPECT_FALSE(runner.provider().registered().count(MetricId::kHeadTupleAge));
  EXPECT_TRUE(runner.provider().registered().count(MetricId::kQueueSize));

  rig.sim.RunUntil(Seconds(6));
  EXPECT_EQ(age_count, 3);  // never ran again
  EXPECT_EQ(qs_count, 6);
}

TEST(RunnerDynamicTest, SharedMetricSurvivesUntilLastOwnerDetaches) {
  Rig rig;
  LachesisRunner runner(rig.executor, rig.os);
  int c0 = 0;
  int c1 = 0;
  const std::size_t i0 = runner.AddQuery(rig.Binding(&c0, Seconds(1)));
  const std::size_t i1 = runner.AddQuery(rig.Binding(&c1, Seconds(1)));
  runner.Start(Seconds(4));
  rig.sim.RunUntil(Seconds(1));

  runner.RemoveQuery(i0);
  // Both bindings require kQueueSize: one detach must not unregister it.
  EXPECT_TRUE(runner.provider().registered().count(MetricId::kQueueSize));
  runner.RemoveQuery(i1);
  EXPECT_FALSE(runner.provider().registered().count(MetricId::kQueueSize));
}

TEST(RunnerDynamicTest, RemoveQueryGrowsWakeInterval) {
  Rig rig;
  LachesisRunner runner(rig.executor, rig.os);
  int fast_count = 0;
  int slow_count = 0;
  const std::size_t fast_idx =
      runner.AddQuery(rig.Binding(&fast_count, Millis(500)));
  runner.AddQuery(rig.Binding(&slow_count, Seconds(2)));
  EXPECT_EQ(runner.WakeInterval(), Millis(500));

  runner.RemoveQuery(fast_idx);
  EXPECT_EQ(runner.WakeInterval(), Seconds(2));

  runner.Start(Seconds(8));
  rig.sim.RunUntil(Seconds(8));
  EXPECT_EQ(fast_count, 0);
  EXPECT_EQ(slow_count, 4);
}

TEST(RunnerDynamicTest, DisableThenReenableKeepsCadence) {
  // Paper §4: switching policies by disabling one and enabling another.
  // A re-enabled binding resumes on its original period grid instead of
  // firing immediately or drifting.
  Rig rig;
  LachesisRunner runner(rig.executor, rig.os);
  int count = 0;
  const std::size_t idx = runner.AddQuery(rig.Binding(&count, Seconds(1)));

  std::vector<SimTime> fired;
  runner.SetTickObserver([&fired](const RunnerTickInfo& info) {
    if (info.policies_run > 0) fired.push_back(info.now);
  });
  runner.Start(Seconds(10));

  rig.sim.RunUntil(Millis(3500));
  runner.SetBindingEnabled(idx, false);
  EXPECT_FALSE(runner.binding_enabled(idx));
  rig.sim.RunUntil(Millis(5500));
  runner.SetBindingEnabled(idx, true);
  rig.sim.RunUntil(Seconds(10));

  // Fired at 1..3 s, skipped 4 and 5 s while disabled, resumed exactly on
  // the grid at 6 s.
  const std::vector<SimTime> expected = {Seconds(1), Seconds(2), Seconds(3),
                                         Seconds(6), Seconds(7), Seconds(8),
                                         Seconds(9), Seconds(10)};
  EXPECT_EQ(fired, expected);
  EXPECT_EQ(count, 8);
}

// Backend whose SetNice fails for one thread -- enough to grow health
// state in the runner's delta layer.
class OneDeadThreadOsAdapter final : public OsAdapter {
 public:
  explicit OneDeadThreadOsAdapter(long dead_tid) : dead_tid_(dead_tid) {}
  void SetNice(const ThreadHandle& thread, int nice) override {
    if (static_cast<long>(thread.sim_tid.value()) == dead_tid_) {
      throw OsOperationError("SetNice", ErrorSeverity::kVanished, ESRCH);
    }
    (void)nice;
  }
  void SetGroupShares(const std::string&, std::uint64_t) override {}
  void MoveToGroup(const ThreadHandle&, const std::string&) override {}

 private:
  long dead_tid_;
};

TEST(RunnerDynamicTest, RemoveQueryDropsPendingHealthState) {
  // A failed op leaves backoff state behind; when the only query that can
  // see the failing thread detaches, that state must go with it -- no ghost
  // retries, no leak in the health map.
  Rig rig;
  OneDeadThreadOsAdapter os(/*dead_tid=*/1);  // query 1's thread
  LachesisRunner runner(rig.executor, os);
  int c0 = 0;
  int c1 = 0;
  PolicyBinding b0 = rig.Binding(&c0, Seconds(1));
  b0.filter = [](const EntityInfo& e) { return e.query == QueryId(0); };
  runner.AddQuery(std::move(b0));
  PolicyBinding b1 = rig.Binding(&c1, Seconds(1));
  b1.filter = [](const EntityInfo& e) { return e.query == QueryId(1); };
  const std::size_t idx1 = runner.AddQuery(std::move(b1));

  runner.Start(Seconds(10));
  rig.sim.RunUntil(Seconds(2));
  ASSERT_GT(runner.delta().health().tracked_targets(), 0u);
  ASSERT_GT(runner.delta_totals().errors, 0u);

  runner.RemoveQuery(idx1);
  EXPECT_EQ(runner.delta().health().tracked_targets(), 0u);

  // The surviving query keeps ticking and never trips on leaked state.
  const std::uint64_t errors_at_remove = runner.delta_totals().errors;
  rig.sim.RunUntil(Seconds(10));
  EXPECT_EQ(c0, 10);
  EXPECT_EQ(runner.delta_totals().errors, errors_at_remove);
  EXPECT_EQ(runner.delta().health().tracked_targets(), 0u);
}

TEST(RunnerDynamicTest, RemoveQueryKeepsHealthStateOfSharedThreads) {
  // Both bindings see every entity (no filter): detaching one must NOT
  // forget the failing thread's backoff, because the other binding still
  // manages it and would otherwise resume blind per-tick retries.
  Rig rig;
  OneDeadThreadOsAdapter os(/*dead_tid=*/1);
  LachesisRunner runner(rig.executor, os);
  int c0 = 0;
  int c1 = 0;
  runner.AddQuery(rig.Binding(&c0, Seconds(1)));
  const std::size_t idx1 = runner.AddQuery(rig.Binding(&c1, Seconds(1)));

  runner.Start(Seconds(4));
  rig.sim.RunUntil(Seconds(2));
  ASSERT_GT(runner.delta().health().tracked_targets(), 0u);

  runner.RemoveQuery(idx1);
  EXPECT_GT(runner.delta().health().tracked_targets(), 0u);
}

TEST(RunnerDynamicTest, RemoveQueryKeepsDeltaCacheOfSharedThreads) {
  // Same shared-thread contract as the health test above, but for the
  // delta layer's value cache (now a hash index over ThreadKey): when both
  // bindings see every entity, detaching one must NOT forget the shared
  // threads' cached nice values. The survivor's next identical tick has to
  // keep skipping -- a purge that over-forgets would silently re-apply the
  // whole schedule to the backend every RemoveQuery.
  Rig rig;
  LachesisRunner runner(rig.executor, rig.os);
  int c0 = 0;
  int c1 = 0;
  runner.AddQuery(rig.Binding(&c0, Seconds(1)));
  const std::size_t idx1 = runner.AddQuery(rig.Binding(&c1, Seconds(1)));

  runner.Start(Seconds(4));
  rig.sim.RunUntil(Seconds(2));  // tick 1 applies; tick 2 is all cache hits
  ASSERT_GT(runner.delta_totals().skipped, 0u);
  const std::uint64_t applied_before = runner.delta_totals().applied;

  runner.RemoveQuery(idx1);
  rig.sim.RunUntil(Seconds(4));
  EXPECT_EQ(runner.delta_totals().applied, applied_before);
  EXPECT_EQ(c0, 4);
}

TEST(RunnerDynamicTest, RemoveQueryForgetsDeltaCacheOfExclusiveThreads) {
  // The flip side: a thread only the removed binding could reach loses its
  // cache entry. A later binding over the same thread must re-apply its
  // first schedule (the backend may have drifted while unmanaged), not
  // skip against a stale cached value.
  Rig rig;
  LachesisRunner runner(rig.executor, rig.os);
  int c0 = 0;
  int c1 = 0;
  PolicyBinding b0 = rig.Binding(&c0, Seconds(1));
  b0.filter = [](const EntityInfo& e) { return e.query == QueryId(0); };
  runner.AddQuery(std::move(b0));
  PolicyBinding b1 = rig.Binding(&c1, Seconds(1));
  b1.filter = [](const EntityInfo& e) { return e.query == QueryId(1); };
  const std::size_t idx1 = runner.AddQuery(std::move(b1));

  runner.Start(Seconds(6));
  rig.sim.RunUntil(Seconds(2));
  runner.RemoveQuery(idx1);

  // Re-attach over query 1: the replacement computes the same schedule as
  // the removed binding did, so a surviving cache entry would skip it.
  const auto nice_calls_before = rig.os.nice_calls;
  int c2 = 0;
  PolicyBinding b2 = rig.Binding(&c2, Seconds(1));
  b2.filter = [](const EntityInfo& e) { return e.query == QueryId(1); };
  runner.AddQuery(std::move(b2));
  rig.sim.RunUntil(Seconds(4));
  EXPECT_GT(c2, 0);
  EXPECT_GT(rig.os.nice_calls, nice_calls_before)
      << "purged thread's first schedule must reach the backend";
}

TEST(RunnerDynamicTest, AddAndRemoveBeforeStart) {
  Rig rig;
  LachesisRunner runner(rig.executor, rig.os);
  int kept_count = 0;
  int dropped_count = 0;
  runner.AddQuery(rig.Binding(&kept_count, Seconds(1)));
  const std::size_t dropped = runner.AddQuery(
      rig.Binding(&dropped_count, Millis(250), MetricId::kHeadTupleAge));
  runner.RemoveQuery(dropped);
  EXPECT_EQ(runner.WakeInterval(), Seconds(1));

  runner.Start(Seconds(3));
  rig.sim.RunUntil(Seconds(3));
  EXPECT_EQ(kept_count, 3);
  EXPECT_EQ(dropped_count, 0);
  EXPECT_FALSE(runner.provider().registered().count(MetricId::kHeadTupleAge));
}

// Builds a driver reporting generations in `storage`, destroying the one
// there: two operators of one query on sim threads first_tid and
// first_tid + 1.
FakeDriver& BuildDriverIn(std::optional<FakeDriver>& storage,
                          std::uint64_t first_tid) {
  FakeDriver& driver = storage.emplace();
  driver.Provide(MetricId::kQueueSize);
  for (int i = 0; i < 2; ++i) {
    EntityInfo& e = driver.AddEntity(QueryId(0), {i});
    e.thread.sim_tid = ThreadId(first_tid + static_cast<std::uint64_t>(i));
    driver.SetValue(MetricId::kQueueSize, e.id, 10.0 * (i + 1));
  }
  driver.TrackGenerations();
  return driver;
}

PolicyBinding BindingOf(SpeDriver& driver, int* counter) {
  PolicyBinding b;
  b.policy = std::make_unique<CountingPolicy>(counter);
  b.translator = std::make_unique<NiceTranslator>();
  b.period = Seconds(1);
  b.drivers = {&driver};
  return b;
}

TEST(RunnerDynamicTest, DetachDropsTheSnapshotOfADriverBuiltAgainInItsStorage) {
  sim::Simulator sim;
  SimControlExecutor executor(sim);
  RecordingOsAdapter os;
  LachesisRunner runner(executor, os);
  std::optional<FakeDriver> storage;
  FakeDriver& first = BuildDriverIn(storage, 0);
  int count = 0;
  const std::size_t index = runner.AddQuery(BindingOf(first, &count));
  runner.Start(Seconds(3));
  sim.RunUntil(Seconds(1));
  ASSERT_EQ(count, 1);
  EXPECT_EQ(os.nices.count(0), 1u);
  ASSERT_TRUE(runner.provider().HasSnapshot(first));

  // Detached: nothing references the driver, so its snapshot goes.
  runner.RemoveQuery(index);
  EXPECT_FALSE(runner.provider().HasSnapshot(first));

  // A different driver in the same storage, attached afresh: its first
  // tick schedules its own entities.
  FakeDriver& second = BuildDriverIn(storage, 100);
  ASSERT_EQ(&second, &first);
  os.nices.clear();
  runner.AddQuery(BindingOf(second, &count));
  sim.RunUntil(Seconds(2));
  ASSERT_EQ(count, 2);
  EXPECT_EQ(os.nices.count(100), 1u);
  EXPECT_EQ(os.nices.count(101), 1u);
  EXPECT_EQ(os.nices.count(0), 0u);
  EXPECT_EQ(os.nices.count(1), 0u);
}

TEST(RunnerDynamicTest, DriverRebuiltUnderAnAttachedBindingIsSnapshottedAfresh) {
  // The provider keeps the snapshot of a driver an attached binding still
  // references; only the generation tells the rebuilt driver apart. Both
  // builds take exactly one generation, so per-driver counters would
  // report the same value and leave the old entities scheduled.
  sim::Simulator sim;
  SimControlExecutor executor(sim);
  RecordingOsAdapter os;
  LachesisRunner runner(executor, os);
  std::optional<FakeDriver> storage;
  FakeDriver& first = BuildDriverIn(storage, 0);
  int count = 0;
  runner.AddQuery(BindingOf(first, &count));
  runner.Start(Seconds(2));
  sim.RunUntil(Seconds(1));
  EXPECT_EQ(os.nices.count(0), 1u);

  BuildDriverIn(storage, 100);
  os.nices.clear();
  sim.RunUntil(Seconds(2));
  ASSERT_EQ(count, 2);
  EXPECT_EQ(os.nices.count(100), 1u);
  EXPECT_EQ(os.nices.count(101), 1u);
  EXPECT_EQ(os.nices.count(0), 0u);
}

}  // namespace
}  // namespace lachesis::core
