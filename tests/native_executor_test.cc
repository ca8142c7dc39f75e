// Tests of the native (monotonic-clock) control executor, including the
// full LachesisRunner loop running on real time with millisecond periods --
// the same loop the daemon runs, minus the OS mechanisms.
#include "osctl/native_executor.h"

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/runner.h"
#include "tests/fake_driver.h"

namespace lachesis::osctl {
namespace {

using core::testing::FakeDriver;
using core::testing::RecordingOsAdapter;

TEST(NativeExecutorTest, DispatchesInTimeThenInsertionOrder) {
  NativeControlExecutor executor;
  std::vector<int> order;
  const SimTime base = executor.Now();
  executor.CallAt(base + Millis(20), [&order] { order.push_back(2); });
  executor.CallAt(base + Millis(10), [&order] { order.push_back(1); });
  executor.CallAt(base + Millis(10), [&order] { order.push_back(11); });
  EXPECT_EQ(executor.pending(), 3u);
  const std::uint64_t dispatched = executor.Run(base + Millis(100));
  EXPECT_EQ(dispatched, 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 11, 2}));
  EXPECT_EQ(executor.pending(), 0u);
}

TEST(NativeExecutorTest, RunStopsAtDeadlineLeavingFutureWork) {
  NativeControlExecutor executor;
  int ran = 0;
  const SimTime base = executor.Now();
  executor.CallAt(base + Millis(5), [&ran] { ++ran; });
  executor.CallAt(base + Seconds(3600), [&ran] { ++ran; });  // far future
  executor.Run(base + Millis(50));
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(executor.pending(), 1u);
}

TEST(NativeExecutorTest, CallbacksCanReschedule) {
  // The runner's self-rescheduling pattern: each dispatch queues the next.
  NativeControlExecutor executor;
  int ticks = 0;
  const SimTime base = executor.Now();
  std::function<void()> tick = [&] {
    if (++ticks < 5) executor.CallAt(executor.Now() + Millis(2), tick);
  };
  executor.CallAt(base + Millis(2), tick);
  executor.Run(base + Seconds(5));
  EXPECT_EQ(ticks, 5);
}

TEST(NativeExecutorTest, StopInterruptsFromCallback) {
  NativeControlExecutor executor;
  int ran = 0;
  const SimTime base = executor.Now();
  executor.CallAt(base + Millis(1), [&] {
    ++ran;
    executor.Stop();
  });
  executor.CallAt(base + Millis(2), [&ran] { ++ran; });
  executor.Run(base + Seconds(10));
  EXPECT_EQ(ran, 1);
  // Stop is not sticky: a later Run resumes.
  executor.Run(base + Seconds(10));
  EXPECT_EQ(ran, 2);
}

class ConstantPolicy final : public core::SchedulingPolicy {
 public:
  explicit ConstantPolicy(int* counter) : counter_(counter) {}
  [[nodiscard]] const std::string& name() const override { return name_; }
  [[nodiscard]] std::vector<core::MetricId> RequiredMetrics() const override {
    return {core::MetricId::kQueueSize};
  }
  core::Schedule ComputeSchedule(const core::PolicyContext& ctx) override {
    ++*counter_;
    core::Schedule s;
    ctx.ForEachEntity([&](core::SpeDriver&, const core::EntityInfo& e) {
      s.entries.push_back({&e, static_cast<double>(e.id.value())});
    });
    return s;
  }

 private:
  int* counter_;
  std::string name_ = "constant";
};

TEST(NativeExecutorTest, DrivesTheRunnerOnRealTime) {
  // The acceptance story: the unmodified LachesisRunner, constructed
  // against the native executor instead of the simulator, runs its loop on
  // wall-clock time and delta-applies schedules.
  NativeControlExecutor executor;
  RecordingOsAdapter os;
  FakeDriver driver;
  const core::EntityInfo a = driver.AddEntity(QueryId(0), {0});
  const core::EntityInfo b = driver.AddEntity(QueryId(0), {1});
  driver.Provide(core::MetricId::kQueueSize);
  driver.SetValue(core::MetricId::kQueueSize, a.id, 1);
  driver.SetValue(core::MetricId::kQueueSize, b.id, 2);

  core::LachesisRunner runner(executor, os);
  int count = 0;
  core::PolicyBinding binding;
  binding.policy = std::make_unique<ConstantPolicy>(&count);
  binding.translator = std::make_unique<core::NiceTranslator>();
  binding.period = Millis(10);
  binding.drivers = {&driver};
  runner.AddQuery(std::move(binding));

  const SimTime until = executor.Now() + Millis(105);
  runner.Start(until);
  executor.Run(until);

  // ~10 periods of 10 ms fit in 105 ms; allow generous slack for loaded CI
  // hosts -- the loop must neither stall nor double-fire.
  EXPECT_GE(count, 5);
  EXPECT_LE(count, 11);
  // The constant schedule was delta-applied: nice set once per thread.
  EXPECT_EQ(os.nice_calls, 2);
  EXPECT_GT(runner.delta_totals().skipped, 0u);
}

}  // namespace
}  // namespace lachesis::osctl
