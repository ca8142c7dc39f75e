// End-to-end integration tests: the full stack (simulated machines, SPE,
// metric pipeline, Lachesis runner, UL-SS baselines) through the experiment
// harness, asserting the paper's headline qualitative claims on scaled-down
// configurations.
#include <gtest/gtest.h>

#include <stdexcept>

#include "exp/fleet.h"
#include "exp/scenario.h"
#include "queries/linear_road.h"
#include "queries/synthetic.h"

namespace lachesis::exp {
namespace {

ScenarioSpec LrScenario(double rate, SchedulerSpec scheduler) {
  ScenarioSpec spec;
  spec.cores = 4;
  spec.flavor = spe::StormFlavor();
  WorkloadSpec w;
  w.workload = queries::MakeLinearRoad();
  w.rate_tps = rate;
  spec.workloads.push_back(std::move(w));
  spec.scheduler = scheduler;
  spec.warmup = Seconds(3);
  spec.measure = Seconds(10);
  return spec;
}

SchedulerSpec LachesisQs() {
  SchedulerSpec s;
  s.kind = SchedulerKind::kLachesis;
  s.binding.policy = "queue-size";
  s.binding.translator = "nice";
  return s;
}

TEST(IntegrationTest, BelowSaturationAllSchedulersKeepUp) {
  const RunResult os = RunScenario(LrScenario(2000, {}));
  const RunResult lachesis = RunScenario(LrScenario(2000, LachesisQs()));
  EXPECT_NEAR(os.throughput_tps, 2000, 30);
  EXPECT_NEAR(lachesis.throughput_tps, 2000, 30);
  EXPECT_LT(os.avg_latency_ms, 50);
  EXPECT_LT(lachesis.avg_latency_ms, 50);
}

TEST(IntegrationTest, LachesisOutperformsOsPastOsSaturation) {
  // The paper's central claim (Fig 9): at rates where the OS has saturated,
  // Lachesis-QS sustains more throughput and far lower latency.
  const RunResult os = RunScenario(LrScenario(6500, {}));
  const RunResult lachesis = RunScenario(LrScenario(6500, LachesisQs()));
  EXPECT_GT(lachesis.throughput_tps, os.throughput_tps * 1.1);
  EXPECT_LT(lachesis.avg_latency_ms, os.avg_latency_ms);
  EXPECT_LT(lachesis.qs_goal, os.qs_goal);
}

TEST(IntegrationTest, CpuUtilizationIsSaneAndSaturates) {
  const RunResult light = RunScenario(LrScenario(1000, {}));
  const RunResult heavy = RunScenario(LrScenario(7000, {}));
  EXPECT_GT(light.cpu_utilization, 0.05);
  EXPECT_LT(light.cpu_utilization, 0.65);
  // Flow-control throttling leaves small idle pockets even past
  // saturation, so "saturated" is ~0.85+, not 1.0.
  EXPECT_GT(heavy.cpu_utilization, 0.8);
  EXPECT_LE(heavy.cpu_utilization, 1.0 + 1e-9);
}

TEST(IntegrationTest, LachesisRunnerAppliedSchedules) {
  const RunResult lachesis = RunScenario(LrScenario(4000, LachesisQs()));
  // One schedule per second across warmup+measure.
  EXPECT_GE(lachesis.lachesis_schedules, 10u);
}

TEST(IntegrationTest, ScaleOutDeploysAcrossNodes) {
  ScenarioSpec spec = LrScenario(8000, LachesisQs());
  spec.nodes = 2;
  spec.workloads[0].parallelism = 2;
  const RunResult result = RunScenario(spec);
  // Two nodes sustain what one node cannot.
  EXPECT_GT(result.throughput_tps, 6000);
}

TEST(IntegrationTest, MultiSpeSchedulingWorks) {
  // Two flavors in one scenario, one Lachesis over both (goal G5).
  ScenarioSpec spec;
  spec.cores = 4;
  spec.flavor = spe::StormFlavor();
  {
    WorkloadSpec w;
    w.workload = queries::MakeLinearRoad();
    w.workload.query.name = "lr-storm";
    w.rate_tps = 1500;
    spec.workloads.push_back(std::move(w));
  }
  {
    WorkloadSpec w;
    w.workload = queries::MakeLinearRoad(7);
    w.workload.query.name = "lr-flink";
    w.rate_tps = 1000;
    w.flavor_override = spe::FlinkFlavor();
    spec.workloads.push_back(std::move(w));
  }
  SchedulerSpec scheduler;
  scheduler.kind = SchedulerKind::kLachesis;
  scheduler.binding.policy = "queue-size";
  scheduler.binding.translator = "cpu.shares+nice";
  spec.scheduler = scheduler;
  spec.warmup = Seconds(3);
  spec.measure = Seconds(8);
  const RunResult result = RunScenario(spec);
  ASSERT_EQ(result.per_query.size(), 2u);
  EXPECT_NEAR(result.per_query.at("lr-storm").throughput_tps, 1500, 50);
  EXPECT_NEAR(result.per_query.at("lr-flink").throughput_tps, 1000, 50);
}

TEST(IntegrationTest, UlssBaselineRunsThroughHarness) {
  SchedulerSpec edgewise;
  edgewise.kind = SchedulerKind::kEdgeWise;
  const RunResult result = RunScenario(LrScenario(3000, edgewise));
  EXPECT_NEAR(result.throughput_tps, 3000, 60);
}

TEST(IntegrationTest, BlockingHurtsUlssMoreThanLachesis) {
  // Fig 16's claim at test scale: with blocking operators, Lachesis (OS
  // threads) sustains more than the UL-SS whose workers stall.
  const auto make = [](SchedulerSpec scheduler) {
    ScenarioSpec spec;
    spec.cores = 4;
    spec.flavor = spe::LiebreFlavor();
    queries::SyntheticConfig config;
    config.num_queries = 6;
    config.blocking_op_fraction = 0.3;
    config.block_probability = 0.004;
    config.block_max = Millis(150);
    for (auto& workload : queries::MakeSynthetic(config)) {
      WorkloadSpec w;
      w.workload = std::move(workload);
      w.rate_tps = 1000;
      spec.workloads.push_back(std::move(w));
    }
    spec.scheduler = scheduler;
    spec.warmup = Seconds(3);
    spec.measure = Seconds(10);
    return spec;
  };
  SchedulerSpec haren;
  haren.kind = SchedulerKind::kHaren;
  haren.binding.policy = "fcfs";
  haren.binding.period = Millis(50);
  SchedulerSpec lachesis;
  lachesis.kind = SchedulerKind::kLachesis;
  lachesis.binding.policy = "fcfs";
  lachesis.binding.translator = "cpu.shares";
  const RunResult haren_result = RunScenario(make(haren));
  const RunResult lachesis_result = RunScenario(make(lachesis));
  EXPECT_GT(lachesis_result.throughput_tps, haren_result.throughput_tps);
}

TEST(IntegrationTest, RepetitionsVaryWithSeed) {
  const auto runs = RunRepetitions(LrScenario(5000, LachesisQs()), 2);
  ASSERT_EQ(runs.size(), 2u);
  // Different seeds -> different (but close) measurements.
  EXPECT_NE(runs[0].avg_latency_ms, runs[1].avg_latency_ms);
}

// Both harnesses build their bindings from core's name table before the
// first simulated instant, so a misspelt name throws there.
TEST(IntegrationTest, UnknownPolicyOrTranslatorNameThrowsBeforeSimulating) {
  SchedulerSpec bad_policy = LachesisQs();
  bad_policy.binding.policy = "queue-sise";
  SchedulerSpec bad_translator = LachesisQs();
  bad_translator.binding.translator = "nicee";
  for (const SchedulerSpec& scheduler : {bad_policy, bad_translator}) {
    EXPECT_THROW(RunScenario(LrScenario(2000, scheduler)),
                 std::invalid_argument);
    FleetSpec fleet;
    fleet.machines = 2;
    fleet.scheduler = scheduler;
    EXPECT_THROW(RunFleet(fleet), std::invalid_argument);
  }
}

// The UL-SS baselines run only the policies they implement.
TEST(IntegrationTest, UlssBaselineRejectsAPolicyItLacks) {
  for (const SchedulerKind kind :
       {SchedulerKind::kEdgeWise, SchedulerKind::kHaren}) {
    SchedulerSpec ulss;
    ulss.kind = kind;
    ulss.binding.policy = "min-memory";
    EXPECT_THROW(RunScenario(LrScenario(2000, ulss)), std::invalid_argument);
  }
}

}  // namespace
}  // namespace lachesis::exp
