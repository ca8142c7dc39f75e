// Tests of the translators (paper §5.3): nice for single-priority
// schedules, cpu.shares and quotas over entity groups, and the combined
// multi-dimensional scheme, against a recording OS adapter.
#include "core/translators.h"

#include <deque>
#include <limits>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "tests/fake_driver.h"

namespace lachesis::core {
namespace {

using testing::RecordingOsAdapter;

// Schedules borrow their entities, so every entity a test makes lives as
// long as the test binary.
const EntityInfo* Entity(std::uint64_t id, const std::string& query_name = "q0") {
  static std::deque<EntityInfo> entities;
  EntityInfo& e = entities.emplace_back();
  e.id = OperatorId(id);
  e.path = "spe." + query_name + ".op" + std::to_string(id);
  e.query_name = query_name;
  e.thread.sim_tid = ThreadId(id);
  return &e;
}

Schedule MakeSchedule(std::vector<double> priorities,
                      PrioritySpacing spacing = PrioritySpacing::kLinear) {
  Schedule s;
  s.spacing = spacing;
  for (std::size_t i = 0; i < priorities.size(); ++i) {
    s.entries.push_back({Entity(i), priorities[i]});
  }
  return s;
}

TEST(NiceTranslatorTest, HighestPriorityGetsBestNice) {
  RecordingOsAdapter os;
  NiceTranslator translator;
  translator.Apply(MakeSchedule({1.0, 50.0, 100.0}), os);
  EXPECT_EQ(os.nices[2], -20);
  EXPECT_EQ(os.nices[0], 19);
  EXPECT_GT(os.nices[0], os.nices[1]);
  EXPECT_GT(os.nices[1], os.nices[2]);
}

TEST(NiceTranslatorTest, EmptyScheduleIsNoop) {
  RecordingOsAdapter os;
  NiceTranslator translator;
  translator.Apply(Schedule{}, os);
  EXPECT_EQ(os.nice_calls, 0);
}

TEST(NiceTranslatorTest, EqualPrioritiesMapToMidRange) {
  RecordingOsAdapter os;
  NiceTranslator translator;
  translator.Apply(MakeSchedule({5.0, 5.0, 5.0}), os);
  for (const auto& [tid, nice] : os.nices) {
    EXPECT_GE(nice, -2);  // midpoint of [nice_best, nice_worst]
    EXPECT_LE(nice, 2);
  }
}

TEST(NiceTranslatorTest, LogSpacingUsesRatioFormula) {
  RecordingOsAdapter os;
  NiceTranslator translator;
  // Ratios of 1.25 -> one nice step per entry (paper's F(x)).
  translator.Apply(
      MakeSchedule({1.953125, 1.5625, 1.25, 1.0}, PrioritySpacing::kLogarithmic),
      os);
  EXPECT_EQ(os.nices[0], -20);
  EXPECT_EQ(os.nices[1], -19);
  EXPECT_EQ(os.nices[2], -18);
  EXPECT_EQ(os.nices[3], -17);
}

// A stalled operator reports zero throughput, so rate-style policies emit a
// zero priority; log spacing must floor it to the smallest positive
// priority instead of feeding log(0) into the mapping.
TEST(NiceTranslatorTest, ZeroPrioritySharesTheLogFloor) {
  RecordingOsAdapter os;
  NiceTranslator translator;
  translator.Apply(
      MakeSchedule({0.0, 0.5, 100.0}, PrioritySpacing::kLogarithmic), os);
  EXPECT_EQ(os.nices[2], -20);
  EXPECT_EQ(os.nices[0], os.nices[1]);  // 0 treated as the smallest positive
  EXPECT_GT(os.nices[0], os.nices[2]);
  EXPECT_LE(os.nices[0], 19);
}

// Whole query stalled: every priority zero. Nothing is positive, so the
// floor falls back to 1.0 and every operator lands on the same (best) nice
// -- not on garbage from log(0) arithmetic.
TEST(NiceTranslatorTest, AllZeroPrioritiesCollapseToOneNice) {
  RecordingOsAdapter os;
  NiceTranslator translator;
  translator.Apply(MakeSchedule({0.0, 0.0, 0.0}, PrioritySpacing::kLogarithmic),
                   os);
  EXPECT_EQ(os.nices[0], -20);
  EXPECT_EQ(os.nices[1], -20);
  EXPECT_EQ(os.nices[2], -20);
}

// A priority ratio far beyond 1.25^39 cannot fit in the nice range; the
// translator must compress (min-max pass) rather than clamp everything
// between the extremes into a single value.
TEST(NiceTranslatorTest, HugePriorityRatioCompressesIntoNiceRange) {
  RecordingOsAdapter os;
  NiceTranslator translator;
  translator.Apply(
      MakeSchedule({1.0, 1e4, 1e9}, PrioritySpacing::kLogarithmic), os);
  EXPECT_EQ(os.nices[2], -20);
  EXPECT_EQ(os.nices[0], 19);
  EXPECT_GT(os.nices[0], os.nices[1]);
  EXPECT_GT(os.nices[1], os.nices[2]);
}

TEST(NiceTranslatorTest, NonFinitePrioritiesDoNotPoisonTheMapping) {
  RecordingOsAdapter os;
  NiceTranslator translator;
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  translator.Apply(MakeSchedule({nan, 5.0, inf}), os);
  // All three collapse to the only finite value -> one shared nice level.
  EXPECT_EQ(os.nices[0], os.nices[1]);
  EXPECT_EQ(os.nices[1], os.nices[2]);
}

TEST(CpuSharesTranslatorTest, AllZeroPrioritiesYieldEqualShares) {
  RecordingOsAdapter os;
  CpuSharesTranslator translator;
  translator.Apply(MakeSchedule({0.0, 0.0, 0.0}), os);
  ASSERT_EQ(os.group_shares.size(), 3u);
  std::uint64_t first = 0;
  for (const auto& [group, shares] : os.group_shares) {
    EXPECT_GE(shares, 2u);       // kernel cpu.shares lower bound
    EXPECT_LE(shares, 262144u);  // and upper bound
    if (first == 0) first = shares;
    EXPECT_EQ(shares, first);
  }
}

TEST(NiceTranslatorTest, CustomInterval) {
  RecordingOsAdapter os;
  NiceTranslator translator(-5, 19);
  translator.Apply(MakeSchedule({1.0, 2.0}), os);
  EXPECT_EQ(os.nices[1], -5);
  EXPECT_EQ(os.nices[0], 19);
}

TEST(CpuSharesTranslatorTest, DefaultGroupingIsPerOperator) {
  RecordingOsAdapter os;
  CpuSharesTranslator translator;
  translator.Apply(MakeSchedule({1.0, 10.0, 100.0}), os);
  EXPECT_EQ(os.group_shares.size(), 3u);
  EXPECT_EQ(os.thread_group.size(), 3u);
  // Each thread in its own group; higher priority -> more shares.
  const auto shares_of = [&](std::uint64_t tid) {
    return os.group_shares.at(os.thread_group.at(tid));
  };
  EXPECT_LT(shares_of(0), shares_of(1));
  EXPECT_LT(shares_of(1), shares_of(2));
}

TEST(CpuSharesTranslatorTest, CustomGroupingAggregatesMaxPriority) {
  RecordingOsAdapter os;
  CpuSharesTranslator translator(
      [](const EntityInfo& e) { return e.query_name; });
  Schedule s;
  s.entries.push_back({Entity(0, "qa"), 1.0});
  s.entries.push_back({Entity(1, "qa"), 9.0});
  s.entries.push_back({Entity(2, "qb"), 5.0});
  translator.Apply(s, os);
  ASSERT_EQ(os.group_shares.size(), 2u);
  // qa's priority is max(1, 9) = 9 > qb's 5.
  EXPECT_GT(os.group_shares.at("qa"), os.group_shares.at("qb"));
  EXPECT_EQ(os.thread_group.at(0), "qa");
  EXPECT_EQ(os.thread_group.at(1), "qa");
  EXPECT_EQ(os.thread_group.at(2), "qb");
}

TEST(EntryGroupingTest, GroupsInGidOrderWithMaxPriority) {
  EntryGrouping grouping([](const EntityInfo& e) { return e.query_name; });
  Schedule s;
  s.entries.push_back({Entity(0, "qb"), 4.0});
  s.entries.push_back({Entity(1, "qa"), 1.0});
  s.entries.push_back({Entity(2, "qb"), 2.0});
  s.entries.push_back({Entity(3, "qa"), 9.0});
  grouping.Build(s);
  ASSERT_EQ(grouping.groups().size(), 2u);
  const EntryGrouping::Group& qa = grouping.groups()[0];
  const EntryGrouping::Group& qb = grouping.groups()[1];
  EXPECT_EQ(grouping.gid(qa), "qa");
  EXPECT_DOUBLE_EQ(qa.priority, 9.0);
  EXPECT_EQ(grouping.gid(qb), "qb");
  EXPECT_DOUBLE_EQ(qb.priority, 4.0);
  // Members in schedule order within each group.
  const auto members = [&grouping](const EntryGrouping::Group& g) {
    const auto span = grouping.members(g);
    return std::vector<std::uint32_t>(span.begin(), span.end());
  };
  EXPECT_EQ(members(qa), (std::vector<std::uint32_t>{1, 3}));
  EXPECT_EQ(members(qb), (std::vector<std::uint32_t>{0, 2}));

  // The default key is one group per operator path.
  EntryGrouping per_operator;
  per_operator.Build(s);
  ASSERT_EQ(per_operator.groups().size(), 4u);
  EXPECT_EQ(per_operator.gid(per_operator.groups()[0]), "op-spe.qa.op1");
}

TEST(DeadlineTranslatorTest, TaggedCriticalEntriesGetReservations) {
  RecordingOsAdapter os;
  DeadlineTranslator translator(Millis(4), Millis(10));
  Schedule s = MakeSchedule({1.0, 5.0, 100.0});
  s.entries[0].criticality = Criticality::kLatencyCritical;
  s.entries[1].criticality = Criticality::kLatencyCritical;
  translator.Apply(s, os);

  // Both tagged entries hold a reservation (deadline == period), even the
  // low-priority one; the untagged top-priority entry does not.
  ASSERT_EQ(os.deadlines.size(), 2u);
  EXPECT_EQ(os.deadlines.at(0).runtime, Millis(4));
  EXPECT_EQ(os.deadlines.at(0).deadline, Millis(10));
  EXPECT_EQ(os.deadlines.at(0).period, Millis(10));
  EXPECT_EQ(os.deadlines.count(2), 0u);
  // The rest of the schedule is still enforced through nice.
  EXPECT_EQ(os.nices.at(2), -20);
  EXPECT_EQ(os.nices.at(0), 19);
}

TEST(DeadlineTranslatorTest, FallsBackToTopPriorityWhenNoneTagged) {
  RecordingOsAdapter os;
  DeadlineTranslator translator;
  translator.Apply(MakeSchedule({1.0, 100.0, 50.0}), os);
  ASSERT_EQ(os.deadlines.size(), 1u);
  EXPECT_EQ(os.deadlines.count(1), 1u);
}

TEST(DeadlineTranslatorTest, DepartedCriticalThreadIsCleared) {
  RecordingOsAdapter os;
  DeadlineTranslator translator;
  Schedule s = MakeSchedule({1.0, 5.0});
  s.entries[1].criticality = Criticality::kLatencyCritical;
  translator.Apply(s, os);
  EXPECT_EQ(os.deadlines.count(1), 1u);
  EXPECT_FALSE(os.deadlines.at(1).runtime == 0);

  // The critical operator terminates: it is gone from the next schedule
  // entirely, so the clear must go through the stored handle.
  translator.Apply(MakeSchedule({1.0}), os);
  EXPECT_EQ(os.deadlines.at(1).runtime, 0);
  EXPECT_EQ(os.deadlines.at(1).deadline, 0);
  EXPECT_EQ(os.deadlines.at(1).period, 0);
  // Entity 0 is now the critical fallback.
  EXPECT_EQ(os.deadlines.count(0), 1u);
}

TEST(CapacityHintTranslatorTest, TopFractionAndCriticalGetBigHint) {
  RecordingOsAdapter os;
  CapacityHintTranslator translator(std::make_unique<NiceTranslator>(), 0.25);
  Schedule s = MakeSchedule({10.0, 40.0, 30.0, 20.0});
  s.entries[0].criticality = Criticality::kLatencyCritical;
  translator.Apply(s, os);

  // ceil(0.25 * 4) = 1 top entry (tid 1) plus the tagged lowest-priority
  // entry (tid 0); the middle entries get no hint at all.
  EXPECT_EQ(os.affinity.at(1), CpuPreference::kPreferBig);
  EXPECT_EQ(os.affinity.at(0), CpuPreference::kPreferBig);
  EXPECT_EQ(os.affinity.count(2), 0u);
  EXPECT_EQ(os.affinity.count(3), 0u);
  // The wrapped translator ran unchanged.
  EXPECT_EQ(os.nices.at(1), -20);
}

TEST(CapacityHintTranslatorTest, DemotedEntriesHaveHintsCleared) {
  RecordingOsAdapter os;
  CapacityHintTranslator translator(std::make_unique<NiceTranslator>(), 0.25);
  translator.Apply(MakeSchedule({40.0, 10.0, 10.0, 10.0}), os);
  EXPECT_EQ(os.affinity.at(0), CpuPreference::kPreferBig);

  // Priorities shift: tid 3 takes the top spot, tid 0 must be un-hinted.
  translator.Apply(MakeSchedule({10.0, 10.0, 10.0, 40.0}), os);
  EXPECT_EQ(os.affinity.at(3), CpuPreference::kPreferBig);
  EXPECT_EQ(os.affinity.at(0), CpuPreference::kNone);
}

TEST(QuerySharesPlusNiceTest, QueriesGetEqualGroupsAndOperatorsGetNice) {
  RecordingOsAdapter os;
  QuerySharesPlusNiceTranslator translator(1024);
  Schedule s;
  s.entries.push_back({Entity(0, "qa"), 1.0});
  s.entries.push_back({Entity(1, "qa"), 50.0});
  s.entries.push_back({Entity(2, "qb"), 10.0});
  translator.Apply(s, os);
  // Per-query cgroups with the same shares.
  EXPECT_EQ(os.group_shares.at("query-qa"), 1024u);
  EXPECT_EQ(os.group_shares.at("query-qb"), 1024u);
  EXPECT_EQ(os.thread_group.at(0), "query-qa");
  EXPECT_EQ(os.thread_group.at(2), "query-qb");
  // Nice applied across all operators (effective within each cgroup).
  EXPECT_EQ(os.nices.at(1), -20);
  EXPECT_EQ(os.nices.at(0), 19);
}

}  // namespace
}  // namespace lachesis::core
