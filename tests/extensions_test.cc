// Tests of the §8 future-work extensions at the middleware level: the quota
// and RT-boost translators, the PSI-based policy, and runtime policy
// switching.
#include <deque>
#include <memory>

#include <gtest/gtest.h>

#include "core/policies.h"
#include "core/translators.h"
#include "exp/scenario.h"
#include "queries/linear_road.h"
#include "tests/fake_driver.h"

namespace lachesis::core {
namespace {

using testing::FakeDriver;

// Extends the recording adapter with the new mechanism calls.
class RecordingExtendedAdapter final : public OsAdapter {
 public:
  void SetNice(const ThreadHandle& thread, int nice) override {
    nices[thread.sim_tid.value()] = nice;
  }
  void SetGroupShares(const std::string& group, std::uint64_t shares) override {
    group_shares[group] = shares;
  }
  void MoveToGroup(const ThreadHandle& thread, const std::string& group) override {
    thread_group[thread.sim_tid.value()] = group;
  }
  void SetRtPriority(const ThreadHandle& thread, int rt_priority) override {
    rt[thread.sim_tid.value()] = rt_priority;
  }
  void SetGroupQuota(const std::string& group, SimDuration quota,
                     SimDuration period) override {
    quotas[group] = {quota, period};
  }

  std::map<std::uint64_t, int> nices;
  std::map<std::string, std::uint64_t> group_shares;
  std::map<std::uint64_t, std::string> thread_group;
  std::map<std::uint64_t, int> rt;
  std::map<std::string, std::pair<SimDuration, SimDuration>> quotas;
};

// Schedules borrow their entities, so every entity a test makes lives as
// long as the test binary.
const EntityInfo* Entity(std::uint64_t id) {
  static std::deque<EntityInfo> entities;
  EntityInfo& e = entities.emplace_back();
  e.id = OperatorId(id);
  e.path = "spe.q.op" + std::to_string(id);
  e.query_name = "q";
  e.thread.sim_tid = ThreadId(id);
  return &e;
}

Schedule MakeSchedule(std::vector<double> priorities) {
  Schedule s;
  for (std::size_t i = 0; i < priorities.size(); ++i) {
    s.entries.push_back({Entity(i), priorities[i]});
  }
  return s;
}

TEST(QuotaTranslatorTest, QuotaProportionalToPriority) {
  RecordingExtendedAdapter os;
  QuotaTranslator translator(/*min_cores=*/0.5, /*max_cores=*/2.0,
                             /*period=*/Millis(100));
  translator.Apply(MakeSchedule({0.0, 10.0}), os);
  ASSERT_EQ(os.quotas.size(), 2u);
  // Lowest priority -> 0.5 cores x 100 ms = 50 ms; highest -> 200 ms.
  const auto low = os.quotas.at("op-spe.q.op0");
  const auto high = os.quotas.at("op-spe.q.op1");
  EXPECT_EQ(low.first, Millis(50));
  EXPECT_EQ(high.first, Millis(200));
  EXPECT_EQ(low.second, Millis(100));
  // Members moved into their groups.
  EXPECT_EQ(os.thread_group.at(0), "op-spe.q.op0");
}

TEST(QuotaTranslatorTest, EmptyScheduleNoop) {
  RecordingExtendedAdapter os;
  QuotaTranslator translator;
  translator.Apply(Schedule{}, os);
  EXPECT_TRUE(os.quotas.empty());
}

TEST(RtBoostTranslatorTest, TopOperatorBoostedOthersNiced) {
  RecordingExtendedAdapter os;
  RtBoostTranslator translator(/*rt_priority=*/10);
  translator.Apply(MakeSchedule({1.0, 99.0, 5.0}), os);
  EXPECT_EQ(os.rt.at(1), 10);
  EXPECT_EQ(os.rt.count(0), 0u);
  EXPECT_EQ(os.rt.count(2), 0u);
  // Nice still applied to the whole schedule.
  EXPECT_EQ(os.nices.at(1), -20);
}

TEST(RtBoostTranslatorTest, DemotesPreviousTopWhenLeaderChanges) {
  RecordingExtendedAdapter os;
  RtBoostTranslator translator(10);
  translator.Apply(MakeSchedule({1.0, 99.0}), os);
  EXPECT_EQ(os.rt.at(1), 10);
  translator.Apply(MakeSchedule({99.0, 1.0}), os);
  EXPECT_EQ(os.rt.at(0), 10);
  EXPECT_EQ(os.rt.at(1), 0);  // explicitly returned to the fair class
}

TEST(RtBoostTranslatorTest, VanishedLeaderIsStillDemoted) {
  // Regression: the old translator only remembered the boosted entity's
  // path, so a top operator that was dropped from the next schedule
  // (operator terminated / query removed) kept its RT boost forever. The
  // stored thread handle lets reconciliation demote it anyway.
  RecordingExtendedAdapter os;
  RtBoostTranslator translator(10);
  translator.Apply(MakeSchedule({1.0, 99.0}), os);
  EXPECT_EQ(os.rt.at(1), 10);

  Schedule only_first;
  only_first.entries.push_back({Entity(0), 5.0});
  translator.Apply(only_first, os);
  EXPECT_EQ(os.rt.at(1), 0);  // demoted despite being absent from schedule
  EXPECT_EQ(os.rt.at(0), 10);
}

TEST(PressureStallPolicyTest, PrioritizesStarvedEntities) {
  FakeDriver driver;
  const EntityInfo starved = driver.AddEntity(QueryId(0), {0});
  const EntityInfo happy = driver.AddEntity(QueryId(0), {1});
  driver.Provide(MetricId::kCpuPressure);
  driver.SetValue(MetricId::kCpuPressure, starved.id, 5e8);
  driver.SetValue(MetricId::kCpuPressure, happy.id, 1e6);

  MetricProvider provider;
  provider.Register(MetricId::kCpuPressure);
  provider.Update({&driver}, Seconds(1));
  PressureStallPolicy policy;
  Rng rng(1);
  PolicyContext ctx;
  ctx.provider = &provider;
  ctx.drivers = {&driver};
  ctx.rng = &rng;
  const Schedule s = policy.ComputeSchedule(ctx);
  ASSERT_EQ(s.entries.size(), 2u);
  double starved_priority = 0;
  double happy_priority = 0;
  for (const auto& entry : s.entries) {
    (entry.entity->id == starved.id ? starved_priority : happy_priority) =
        entry.priority;
  }
  EXPECT_GT(starved_priority, happy_priority);
}

TEST(SwitchablePolicyTest, SelectorPicksActivePolicy) {
  FakeDriver driver;
  const EntityInfo e = driver.AddEntity(QueryId(0), {0});
  driver.Provide(MetricId::kQueueSize);
  driver.Provide(MetricId::kHeadTupleAge);
  driver.SetValue(MetricId::kQueueSize, e.id, 7);
  driver.SetValue(MetricId::kHeadTupleAge, e.id, 3e9);

  std::vector<std::unique_ptr<SchedulingPolicy>> candidates;
  candidates.push_back(std::make_unique<QueueSizePolicy>());
  candidates.push_back(std::make_unique<FcfsPolicy>());
  std::size_t wanted = 0;
  SwitchablePolicy policy(std::move(candidates),
                          [&wanted](const PolicyContext&) { return wanted; });

  // Union of requirements.
  const auto metrics = policy.RequiredMetrics();
  EXPECT_EQ(metrics.size(), 2u);

  MetricProvider provider;
  for (const MetricId m : metrics) provider.Register(m);
  provider.Update({&driver}, Seconds(1));
  Rng rng(1);
  PolicyContext ctx;
  ctx.provider = &provider;
  ctx.drivers = {&driver};
  ctx.rng = &rng;

  Schedule s = policy.ComputeSchedule(ctx);
  EXPECT_EQ(policy.active(), 0u);
  EXPECT_DOUBLE_EQ(s.entries[0].priority, 7.0);  // QS value

  wanted = 1;
  s = policy.ComputeSchedule(ctx);
  EXPECT_EQ(policy.active(), 1u);
  EXPECT_DOUBLE_EQ(s.entries[0].priority, 3e9);  // FCFS value

  wanted = 99;  // out of range clamps to the last candidate
  s = policy.ComputeSchedule(ctx);
  EXPECT_EQ(policy.active(), 1u);
}

TEST(PsiIntegrationTest, PressurePolicyRunsEndToEnd) {
  // Full-stack smoke: the PSI policy schedules a real deployed query.
  exp::ScenarioSpec spec;
  spec.cores = 4;
  spec.flavor = spe::StormFlavor();
  exp::WorkloadSpec w;
  w.workload = queries::MakeLinearRoad();
  w.rate_tps = 6000;
  spec.workloads.push_back(std::move(w));
  spec.warmup = Seconds(2);
  spec.measure = Seconds(8);
  spec.scheduler.kind = exp::SchedulerKind::kLachesis;
  spec.scheduler.binding.policy = "pressure-stall";
  spec.scheduler.binding.translator = "nice";
  const exp::RunResult result = exp::RunScenario(spec);
  EXPECT_GT(result.throughput_tps, 4000);
  EXPECT_GE(result.lachesis_schedules, 8u);
}

}  // namespace
}  // namespace lachesis::core
