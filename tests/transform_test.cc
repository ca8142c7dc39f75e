// Tests of Algorithm 2: logical-to-physical schedule transformation under
// fission (replicas inherit) and fusion (aggregate of member priorities).
#include "core/transform.h"

#include <gtest/gtest.h>

namespace lachesis::core {
namespace {

EntityInfo Entity(std::uint64_t id, QueryId query, std::vector<int> logicals,
                  int replica = 0) {
  EntityInfo e;
  e.id = OperatorId(id);
  e.query = query;
  e.logical_indices = std::move(logicals);
  e.replica = replica;
  return e;
}

// The transformation borrows entities by pointer.
std::vector<const EntityInfo*> Pointers(const std::vector<EntityInfo>& entities) {
  std::vector<const EntityInfo*> pointers;
  for (const EntityInfo& e : entities) pointers.push_back(&e);
  return pointers;
}

TEST(TransformTest, FissionCopiesPriorityToReplicas) {
  LogicalSchedule logical;
  logical.query = QueryId(0);
  logical.priorities = {{0, 7.0}};
  const std::vector<EntityInfo> entities = {
      Entity(0, QueryId(0), {0}, 0), Entity(1, QueryId(0), {0}, 1),
      Entity(2, QueryId(0), {0}, 2)};
  const auto out = TransformLogicalSchedule(logical, Pointers(entities));
  ASSERT_EQ(out.size(), 3u);
  for (const auto& entry : out) EXPECT_DOUBLE_EQ(entry.priority, 7.0);
}

TEST(TransformTest, FusionTakesMaxByDefault) {
  // Paper Algorithm 2: fused physical operator gets the MAX of its logical
  // operators' priorities.
  LogicalSchedule logical;
  logical.query = QueryId(0);
  logical.priorities = {{0, 1.0}, {1, 9.0}, {2, 4.0}};
  const std::vector<EntityInfo> entities = {Entity(0, QueryId(0), {0, 1, 2})};
  const auto out = TransformLogicalSchedule(logical, Pointers(entities));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_DOUBLE_EQ(out[0].priority, 9.0);
}

TEST(TransformTest, MissingLogicalPriorityDefaultsToZero) {
  LogicalSchedule logical;
  logical.query = QueryId(0);
  logical.priorities = {{0, 5.0}};  // logical 1 not mentioned
  const std::vector<EntityInfo> entities = {Entity(0, QueryId(0), {1})};
  const auto out = TransformLogicalSchedule(logical, Pointers(entities));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_DOUBLE_EQ(out[0].priority, 0.0);
}

TEST(TransformTest, OtherQueriesExcluded) {
  LogicalSchedule logical;
  logical.query = QueryId(0);
  logical.priorities = {{0, 5.0}};
  const std::vector<EntityInfo> entities = {Entity(0, QueryId(0), {0}),
                                            Entity(1, QueryId(1), {0})};
  const auto out = TransformLogicalSchedule(logical, Pointers(entities));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].entity, &entities[0]);
}

TEST(TransformTest, MixedFusionAndFission) {
  // Two replicas of a fused chain {0,1} plus a standalone logical 2.
  LogicalSchedule logical;
  logical.query = QueryId(0);
  logical.priorities = {{0, 3.0}, {1, 8.0}, {2, 5.0}};
  const std::vector<EntityInfo> entities = {
      Entity(0, QueryId(0), {0, 1}, 0), Entity(1, QueryId(0), {0, 1}, 1),
      Entity(2, QueryId(0), {2}, 0)};
  const auto out = TransformLogicalSchedule(logical, Pointers(entities));
  ASSERT_EQ(out.size(), 3u);
  EXPECT_DOUBLE_EQ(out[0].priority, 8.0);
  EXPECT_DOUBLE_EQ(out[1].priority, 8.0);
  EXPECT_DOUBLE_EQ(out[2].priority, 5.0);
}

}  // namespace
}  // namespace lachesis::core
