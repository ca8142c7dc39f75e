// Tests of Algorithm 1 (the Lachesis main loop): metric registration,
// per-policy periods, GCD wakeups, translator application, and multi-policy
// / multi-driver operation.
#include "core/runner.h"

#include <memory>

#include <gtest/gtest.h>

#include "core/sim_executor.h"
#include "sim/simulator.h"
#include "tests/fake_driver.h"

namespace lachesis::core {
namespace {

using testing::FakeDriver;
using testing::RecordingOsAdapter;

// Counts invocations and returns a fixed schedule over the context entities.
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
      s.entries.push_back(
          {&e, ctx.provider->Value(driver, required_, e.id)});
    });
    return s;
  }

 private:
  int* counter_;
  MetricId required_;
  std::string name_ = "counting";
};

struct RunnerRig {
  sim::Simulator sim;
  SimControlExecutor executor{sim};
  RecordingOsAdapter os;
  FakeDriver driver;

  RunnerRig() {
    const EntityInfo a = driver.AddEntity(QueryId(0), {0});
    const EntityInfo b = driver.AddEntity(QueryId(0), {1});
    driver.Provide(MetricId::kQueueSize);
    driver.SetValue(MetricId::kQueueSize, a.id, 5);
    driver.SetValue(MetricId::kQueueSize, b.id, 50);
  }
};

TEST(RunnerTest, PolicyRunsOncePerPeriod) {
  RunnerRig rig;
  LachesisRunner runner(rig.executor, rig.os);
  int count = 0;
  PolicyBinding binding;
  binding.policy = std::make_unique<CountingPolicy>(&count);
  binding.translator = std::make_unique<NiceTranslator>();
  binding.period = Seconds(1);
  binding.drivers = {&rig.driver};
  runner.AddQuery(std::move(binding));
  runner.Start(Seconds(10));
  rig.sim.RunUntil(Seconds(10));
  EXPECT_EQ(count, 10);
  EXPECT_EQ(runner.schedules_applied(), 10u);
}

TEST(RunnerTest, RegistersRequiredMetricsOnStart) {
  RunnerRig rig;
  LachesisRunner runner(rig.executor, rig.os);
  int count = 0;
  PolicyBinding binding;
  binding.policy = std::make_unique<CountingPolicy>(&count);
  binding.translator = std::make_unique<NiceTranslator>();
  binding.period = Seconds(1);
  binding.drivers = {&rig.driver};
  runner.AddQuery(std::move(binding));
  runner.Start(Seconds(5));
  EXPECT_TRUE(runner.provider().registered().count(MetricId::kQueueSize));
}

TEST(RunnerTest, TranslatorAppliedWithPolicyOutput) {
  RunnerRig rig;
  LachesisRunner runner(rig.executor, rig.os);
  int count = 0;
  PolicyBinding binding;
  binding.policy = std::make_unique<CountingPolicy>(&count);
  binding.translator = std::make_unique<NiceTranslator>();
  binding.period = Seconds(1);
  binding.drivers = {&rig.driver};
  runner.AddQuery(std::move(binding));
  runner.Start(Seconds(2));
  rig.sim.RunUntil(Seconds(2));
  // Entity 1 has the larger queue -> best nice.
  EXPECT_EQ(rig.os.nices.at(1), -20);
  EXPECT_EQ(rig.os.nices.at(0), 19);
}

TEST(RunnerTest, PoliciesWithDifferentPeriodsFireIndependently) {
  RunnerRig rig;
  LachesisRunner runner(rig.executor, rig.os);
  int fast_count = 0;
  int slow_count = 0;
  {
    PolicyBinding fast;
    fast.policy = std::make_unique<CountingPolicy>(&fast_count);
    fast.translator = std::make_unique<NiceTranslator>();
    fast.period = Millis(500);
    fast.drivers = {&rig.driver};
    runner.AddQuery(std::move(fast));
  }
  {
    PolicyBinding slow;
    slow.policy = std::make_unique<CountingPolicy>(&slow_count);
    slow.translator = std::make_unique<NiceTranslator>();
    slow.period = Seconds(2);
    slow.drivers = {&rig.driver};
    runner.AddQuery(std::move(slow));
  }
  runner.Start(Seconds(8));
  rig.sim.RunUntil(Seconds(8));
  EXPECT_EQ(fast_count, 16);  // every 500 ms
  EXPECT_EQ(slow_count, 4);   // every 2 s
}

TEST(RunnerTest, FiltersPartitionEntitiesBetweenBindings) {
  // Two bindings over one driver, each scheduling one query (goal G3).
  RunnerRig rig;
  const EntityInfo c = rig.driver.AddEntity(QueryId(1), {0});
  rig.driver.SetValue(MetricId::kQueueSize, c.id, 100);

  LachesisRunner runner(rig.executor, rig.os);
  int q0_count = 0;
  int q1_count = 0;
  {
    PolicyBinding b;
    b.policy = std::make_unique<CountingPolicy>(&q0_count);
    b.translator = std::make_unique<NiceTranslator>();
    b.period = Seconds(1);
    b.drivers = {&rig.driver};
    b.filter = [](const EntityInfo& e) { return e.query == QueryId(0); };
    runner.AddQuery(std::move(b));
  }
  {
    PolicyBinding b;
    b.policy = std::make_unique<CountingPolicy>(&q1_count);
    b.translator = std::make_unique<CpuSharesTranslator>();
    b.period = Seconds(1);
    b.drivers = {&rig.driver};
    b.filter = [](const EntityInfo& e) { return e.query == QueryId(1); };
    runner.AddQuery(std::move(b));
  }
  runner.Start(Seconds(3));
  rig.sim.RunUntil(Seconds(3));
  EXPECT_EQ(q0_count, 3);
  EXPECT_EQ(q1_count, 3);
  // Query 0's entities got nice values; query 1's got a cgroup.
  EXPECT_TRUE(rig.os.nices.count(0));
  EXPECT_TRUE(rig.os.nices.count(1));
  EXPECT_FALSE(rig.os.nices.count(2));
  EXPECT_TRUE(rig.os.thread_group.count(2));
}

TEST(RunnerTest, MultipleDriversScheduledTogether) {
  // One policy over two SPEs (goal G5).
  RunnerRig rig;
  FakeDriver second("other-spe");
  const EntityInfo x = second.AddEntity(QueryId(0), {0});
  second.Provide(MetricId::kQueueSize);
  second.SetValue(MetricId::kQueueSize, x.id, 500);

  LachesisRunner runner(rig.executor, rig.os);
  int count = 0;
  PolicyBinding binding;
  binding.policy = std::make_unique<CountingPolicy>(&count);
  binding.translator = std::make_unique<NiceTranslator>();
  binding.period = Seconds(1);
  binding.drivers = {&rig.driver, &second};
  runner.AddQuery(std::move(binding));
  runner.Start(Seconds(1));
  rig.sim.RunUntil(Seconds(1));
  // Entities from both drivers normalized in one schedule: the second
  // driver's 500-deep queue wins the best nice.
  EXPECT_EQ(rig.os.nices.at(0), -20);  // second driver's entity has tid 0 too
  EXPECT_EQ(count, 1);
}

}  // namespace
}  // namespace lachesis::core
