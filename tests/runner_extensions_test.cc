// Tests of the runner's runtime enable/disable (paper §4) and the metric
// provider's cyclic-dependency guard.
#include <memory>

#include <gtest/gtest.h>

#include "core/policies.h"
#include "core/runner.h"
#include "core/sim_executor.h"
#include "sim/simulator.h"
#include "tests/fake_driver.h"

namespace lachesis::core {
namespace {

using testing::FakeDriver;
using testing::RecordingOsAdapter;

class TickCounterPolicy final : public SchedulingPolicy {
 public:
  explicit TickCounterPolicy(int* counter) : counter_(counter) {}
  [[nodiscard]] const std::string& name() const override { return name_; }
  [[nodiscard]] std::vector<MetricId> RequiredMetrics() const override {
    return {MetricId::kQueueSize};
  }
  Schedule ComputeSchedule(const PolicyContext&) override {
    ++*counter_;
    return {};
  }

 private:
  int* counter_;
  std::string name_ = "counter";
};

TEST(RunnerEnableTest, DisabledBindingDoesNotRun) {
  sim::Simulator sim;
  RecordingOsAdapter os;
  FakeDriver driver;
  driver.Provide(MetricId::kQueueSize);
  driver.AddEntity(QueryId(0), {0});

  SimControlExecutor executor(sim);
  LachesisRunner runner(executor, os);
  int count = 0;
  PolicyBinding binding;
  binding.policy = std::make_unique<TickCounterPolicy>(&count);
  binding.translator = std::make_unique<NiceTranslator>();
  binding.period = Seconds(1);
  binding.drivers = {&driver};
  const std::size_t index = runner.AddQuery(std::move(binding));
  EXPECT_TRUE(runner.binding_enabled(index));

  runner.Start(Seconds(10));
  sim.RunUntil(Seconds(3));
  EXPECT_EQ(count, 3);

  runner.SetBindingEnabled(index, false);
  sim.RunUntil(Seconds(7));
  EXPECT_EQ(count, 3);  // frozen while disabled

  runner.SetBindingEnabled(index, true);
  sim.RunUntil(Seconds(10));
  EXPECT_EQ(count, 6);  // resumes at the period cadence, no catch-up burst
}

TEST(RunnerEnableTest, SwitchingBetweenTwoBindings) {
  // The paper's §4 runtime-switch flow: enable one policy, disable another.
  sim::Simulator sim;
  RecordingOsAdapter os;
  FakeDriver driver;
  driver.Provide(MetricId::kQueueSize);
  driver.AddEntity(QueryId(0), {0});

  SimControlExecutor executor(sim);
  LachesisRunner runner(executor, os);
  int first_count = 0;
  int second_count = 0;
  std::size_t first;
  std::size_t second;
  {
    PolicyBinding b;
    b.policy = std::make_unique<TickCounterPolicy>(&first_count);
    b.translator = std::make_unique<NiceTranslator>();
    b.period = Seconds(1);
    b.drivers = {&driver};
    first = runner.AddQuery(std::move(b));
  }
  {
    PolicyBinding b;
    b.policy = std::make_unique<TickCounterPolicy>(&second_count);
    b.translator = std::make_unique<NiceTranslator>();
    b.period = Seconds(1);
    b.drivers = {&driver};
    second = runner.AddQuery(std::move(b));
  }
  runner.SetBindingEnabled(second, false);
  runner.Start(Seconds(8));
  sim.RunUntil(Seconds(4));
  runner.SetBindingEnabled(first, false);
  runner.SetBindingEnabled(second, true);
  sim.RunUntil(Seconds(8));
  EXPECT_EQ(first_count, 4);
  EXPECT_EQ(second_count, 4);
}

TEST(CyclicDependencyTest, SelfCycleDetected) {
  class SelfDependent final : public DerivedMetric {
   public:
    [[nodiscard]] MetricId id() const override { return MetricId::kCost; }
    [[nodiscard]] std::vector<MetricId> deps() const override {
      return {MetricId::kCost};
    }
    double Compute(MetricResolver& r, const EntityInfo& e) override {
      return r.Get(MetricId::kCost, e);  // infinite recursion without guard
    }
  };
  FakeDriver driver;
  driver.AddEntity(QueryId(0), {0});
  MetricProvider provider;
  provider.InstallDerived(std::make_unique<SelfDependent>());
  provider.Register(MetricId::kCost);
  EXPECT_THROW(provider.Update({&driver}, Seconds(1)), ConfigurationError);
}

TEST(CyclicDependencyTest, MutualCycleDetected) {
  class A final : public DerivedMetric {
   public:
    [[nodiscard]] MetricId id() const override { return MetricId::kCost; }
    [[nodiscard]] std::vector<MetricId> deps() const override {
      return {MetricId::kSelectivity};
    }
    double Compute(MetricResolver& r, const EntityInfo& e) override {
      return r.Get(MetricId::kSelectivity, e);
    }
  };
  class B final : public DerivedMetric {
   public:
    [[nodiscard]] MetricId id() const override {
      return MetricId::kSelectivity;
    }
    [[nodiscard]] std::vector<MetricId> deps() const override {
      return {MetricId::kCost};
    }
    double Compute(MetricResolver& r, const EntityInfo& e) override {
      return r.Get(MetricId::kCost, e);
    }
  };
  FakeDriver driver;
  driver.AddEntity(QueryId(0), {0});
  MetricProvider provider;
  provider.InstallDerived(std::make_unique<A>());
  provider.InstallDerived(std::make_unique<B>());
  provider.Register(MetricId::kCost);
  EXPECT_THROW(provider.Update({&driver}, Seconds(1)), ConfigurationError);
}

}  // namespace
}  // namespace lachesis::core
