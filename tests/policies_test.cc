// Tests of the built-in scheduling policies against a scripted driver.
#include "core/policies.h"

#include <algorithm>
#include <memory>

#include <gtest/gtest.h>

#include "tests/fake_driver.h"

namespace lachesis::core {
namespace {

using testing::FakeDriver;

struct PolicyRig {
  FakeDriver driver;
  MetricProvider provider;
  Rng rng{11};

  PolicyContext Context() {
    PolicyContext ctx;
    ctx.provider = &provider;
    ctx.drivers = {&driver};
    ctx.rng = &rng;
    return ctx;
  }

  void Update(SchedulingPolicy& policy) {
    for (const MetricId m : policy.RequiredMetrics()) provider.Register(m);
    provider.Update({&driver}, Seconds(1));
  }
};

double PriorityOf(const Schedule& s, OperatorId id) {
  for (const auto& entry : s.entries) {
    if (entry.entity->id == id) return entry.priority;
  }
  ADD_FAILURE() << "entity " << id << " not in schedule";
  return 0;
}

TEST(QueueSizePolicyTest, PriorityEqualsQueueSize) {
  PolicyRig rig;
  const EntityInfo a = rig.driver.AddEntity(QueryId(0), {0});
  const EntityInfo b = rig.driver.AddEntity(QueryId(0), {1});
  rig.driver.Provide(MetricId::kQueueSize);
  rig.driver.SetValue(MetricId::kQueueSize, a.id, 10);
  rig.driver.SetValue(MetricId::kQueueSize, b.id, 500);

  QueueSizePolicy policy;
  rig.Update(policy);
  const Schedule s = policy.ComputeSchedule(rig.Context());
  ASSERT_EQ(s.entries.size(), 2u);
  EXPECT_EQ(s.spacing, PrioritySpacing::kLinear);
  EXPECT_DOUBLE_EQ(PriorityOf(s, a.id), 10);
  EXPECT_DOUBLE_EQ(PriorityOf(s, b.id), 500);
}

TEST(FcfsPolicyTest, PriorityEqualsHeadAge) {
  PolicyRig rig;
  const EntityInfo a = rig.driver.AddEntity(QueryId(0), {0});
  const EntityInfo b = rig.driver.AddEntity(QueryId(0), {1});
  rig.driver.Provide(MetricId::kHeadTupleAge);
  rig.driver.SetValue(MetricId::kHeadTupleAge, a.id, 1e9);
  rig.driver.SetValue(MetricId::kHeadTupleAge, b.id, 2e6);

  FcfsPolicy policy;
  rig.Update(policy);
  const Schedule s = policy.ComputeSchedule(rig.Context());
  EXPECT_GT(PriorityOf(s, a.id), PriorityOf(s, b.id));
}

TEST(RandomPolicyTest, PrioritiesVaryAcrossCalls) {
  PolicyRig rig;
  const EntityInfo a = rig.driver.AddEntity(QueryId(0), {0});
  RandomPolicy policy;
  rig.Update(policy);
  const Schedule s1 = policy.ComputeSchedule(rig.Context());
  const Schedule s2 = policy.ComputeSchedule(rig.Context());
  EXPECT_NE(PriorityOf(s1, a.id), PriorityOf(s2, a.id));
  EXPECT_GE(PriorityOf(s1, a.id), 0.0);
  EXPECT_LT(PriorityOf(s1, a.id), 1.0);
}

TEST(HighestRatePolicyTest, UsesLogSpacing) {
  PolicyRig rig;
  LogicalTopology topo;
  topo.names = {"a", "sink"};
  topo.base_costs = {1000, 1000};
  topo.edges = {{0, 1}};
  rig.driver.SetTopology(QueryId(0), topo);
  const EntityInfo a = rig.driver.AddEntity(QueryId(0), {0});
  const EntityInfo s = rig.driver.AddEntity(QueryId(0), {1});
  rig.driver.Provide(MetricId::kCost);
  rig.driver.Provide(MetricId::kSelectivity);
  rig.driver.SetValue(MetricId::kCost, a.id, 1000);
  rig.driver.SetValue(MetricId::kCost, s.id, 1000);
  rig.driver.SetValue(MetricId::kSelectivity, a.id, 1.0);
  rig.driver.SetValue(MetricId::kSelectivity, s.id, 1.0);

  HighestRatePolicy policy;
  rig.Update(policy);
  const Schedule schedule = policy.ComputeSchedule(rig.Context());
  EXPECT_EQ(schedule.spacing, PrioritySpacing::kLogarithmic);
  // Sink's remaining path is shorter -> higher rate than upstream.
  EXPECT_GT(PriorityOf(schedule, s.id), PriorityOf(schedule, a.id));
}

TEST(MinMemoryPolicyTest, PrefersFastSheddingOperators) {
  PolicyRig rig;
  const EntityInfo filter = rig.driver.AddEntity(QueryId(0), {0});
  const EntityInfo expander = rig.driver.AddEntity(QueryId(0), {1});
  rig.driver.Provide(MetricId::kCost);
  rig.driver.Provide(MetricId::kSelectivity);
  rig.driver.SetValue(MetricId::kCost, filter.id, 1000);
  rig.driver.SetValue(MetricId::kSelectivity, filter.id, 0.1);  // drops 90%
  rig.driver.SetValue(MetricId::kCost, expander.id, 1000);
  rig.driver.SetValue(MetricId::kSelectivity, expander.id, 3.0);  // grows

  MinMemoryPolicy policy;
  rig.Update(policy);
  const Schedule s = policy.ComputeSchedule(rig.Context());
  EXPECT_GT(PriorityOf(s, filter.id), 0);
  EXPECT_LT(PriorityOf(s, expander.id), 0);
}

TEST(LogicalPriorityPolicyTest, AppliesTransformationRule) {
  PolicyRig rig;
  // Physical DAG: fused {0,1} plus replicas of logical 2.
  const EntityInfo fused = rig.driver.AddEntity(QueryId(0), {0, 1});
  const EntityInfo r0 = rig.driver.AddEntity(QueryId(0), {2}, 0);
  const EntityInfo r1 = rig.driver.AddEntity(QueryId(0), {2}, 1);

  LogicalPriorityPolicy policy({{"q0", {{0, 1.0}, {1, 10.0}, {2, 5.0}}}});
  rig.Update(policy);
  const Schedule s = policy.ComputeSchedule(rig.Context());
  ASSERT_EQ(s.entries.size(), 3u);
  EXPECT_DOUBLE_EQ(PriorityOf(s, fused.id), 10.0);  // max under fusion
  EXPECT_DOUBLE_EQ(PriorityOf(s, r0.id), 5.0);      // copy under fission
  EXPECT_DOUBLE_EQ(PriorityOf(s, r1.id), 5.0);
}

TEST(PolicyFilterTest, FilterRestrictsScheduledEntities) {
  PolicyRig rig;
  const EntityInfo a = rig.driver.AddEntity(QueryId(0), {0});
  const EntityInfo b = rig.driver.AddEntity(QueryId(1), {0});
  rig.driver.Provide(MetricId::kQueueSize);
  rig.driver.SetValue(MetricId::kQueueSize, a.id, 1);
  rig.driver.SetValue(MetricId::kQueueSize, b.id, 2);

  QueueSizePolicy policy;
  rig.Update(policy);
  PolicyContext ctx = rig.Context();
  ctx.filter = [](const EntityInfo& e) { return e.query == QueryId(1); };
  const Schedule s = policy.ComputeSchedule(ctx);
  ASSERT_EQ(s.entries.size(), 1u);
  EXPECT_EQ(s.entries[0].entity->id, b.id);
}


TEST(CriticalChainPolicyTest, TagsEntriesOfCriticalQueries) {
  PolicyRig rig;
  const EntityInfo a = rig.driver.AddEntity(QueryId(0), {0});
  const EntityInfo b = rig.driver.AddEntity(QueryId(1), {0});
  const EntityInfo c = rig.driver.AddEntity(QueryId(1), {1});
  rig.driver.Provide(MetricId::kQueueSize);
  rig.driver.SetValue(MetricId::kQueueSize, a.id, 5);
  rig.driver.SetValue(MetricId::kQueueSize, b.id, 1);
  rig.driver.SetValue(MetricId::kQueueSize, c.id, 2);

  // Wraps the inner policy unchanged (same priorities, same metrics) and
  // tags every entry of the named queries as latency-critical, regardless
  // of the priority the inner policy computed.
  CriticalChainPolicy policy(std::make_unique<QueueSizePolicy>(), {"q1"});
  EXPECT_EQ(policy.name(), "critical+queue-size");
  rig.Update(policy);
  const Schedule s = policy.ComputeSchedule(rig.Context());
  ASSERT_EQ(s.entries.size(), 3u);
  for (const ScheduleEntry& entry : s.entries) {
    const bool critical = entry.criticality == Criticality::kLatencyCritical;
    EXPECT_EQ(critical, entry.entity->query == QueryId(1))
        << entry.entity->path;
  }
  EXPECT_DOUBLE_EQ(PriorityOf(s, a.id), 5);
  EXPECT_DOUBLE_EQ(PriorityOf(s, b.id), 1);
}

}  // namespace
}  // namespace lachesis::core
