#include "core/policies.h"

#include <cassert>

#include "core/transform.h"

namespace lachesis::core {

namespace {

// One entry per scheduled entity, pointing into the provider's snapshot,
// with the priority `priority_of(driver, entity)`.
template <typename PriorityFn>
Schedule EntitySchedule(const PolicyContext& ctx, PrioritySpacing spacing,
                        PriorityFn&& priority_of) {
  Schedule schedule;
  schedule.spacing = spacing;
  schedule.entries.reserve(ctx.MaxEntities());
  ctx.ForEachEntity([&](SpeDriver& driver, const EntityInfo& e) {
    schedule.entries.push_back({&e, priority_of(driver, e)});
  });
  return schedule;
}

// A policy whose priority is one metric, read as is.
Schedule MetricSchedule(const PolicyContext& ctx, PrioritySpacing spacing,
                        MetricId metric) {
  return EntitySchedule(ctx, spacing,
                        [&](SpeDriver& driver, const EntityInfo& e) {
                          return ctx.provider->Value(driver, metric, e.id);
                        });
}

}  // namespace

Schedule QueueSizePolicy::ComputeSchedule(const PolicyContext& ctx) {
  return MetricSchedule(ctx, PrioritySpacing::kLinear, MetricId::kQueueSize);
}

Schedule HighestRatePolicy::ComputeSchedule(const PolicyContext& ctx) {
  return MetricSchedule(ctx, PrioritySpacing::kLogarithmic,
                        MetricId::kHighestRate);
}

Schedule FcfsPolicy::ComputeSchedule(const PolicyContext& ctx) {
  return MetricSchedule(ctx, PrioritySpacing::kLinear, MetricId::kHeadTupleAge);
}

Schedule RandomPolicy::ComputeSchedule(const PolicyContext& ctx) {
  return EntitySchedule(ctx, PrioritySpacing::kLinear,
                        [&](SpeDriver&, const EntityInfo&) {
                          return ctx.rng->NextDouble();
                        });
}

Schedule MinMemoryPolicy::ComputeSchedule(const PolicyContext& ctx) {
  return EntitySchedule(
      ctx, PrioritySpacing::kLinear, [&](SpeDriver& driver, const EntityInfo& e) {
        const double cost = ctx.provider->Value(driver, MetricId::kCost, e.id);
        const double sel =
            ctx.provider->Value(driver, MetricId::kSelectivity, e.id);
        // Data shed per CPU nanosecond; negative for expanding operators,
        // which correctly deprioritizes them when memory is the goal.
        return cost > 0 ? (1.0 - sel) / cost : 0.0;
      });
}

Schedule PressureStallPolicy::ComputeSchedule(const PolicyContext& ctx) {
  return MetricSchedule(ctx, PrioritySpacing::kLinear, MetricId::kCpuPressure);
}

SwitchablePolicy::SwitchablePolicy(
    std::vector<std::unique_ptr<SchedulingPolicy>> candidates,
    Selector selector)
    : candidates_(std::move(candidates)), selector_(std::move(selector)) {
  assert(!candidates_.empty());
}

std::vector<MetricId> SwitchablePolicy::RequiredMetrics() const {
  std::vector<MetricId> all;
  for (const auto& candidate : candidates_) {
    for (const MetricId m : candidate->RequiredMetrics()) all.push_back(m);
  }
  return all;
}

Schedule SwitchablePolicy::ComputeSchedule(const PolicyContext& ctx) {
  active_ = std::min(selector_(ctx), candidates_.size() - 1);
  return candidates_[active_]->ComputeSchedule(ctx);
}

CriticalChainPolicy::CriticalChainPolicy(
    std::unique_ptr<SchedulingPolicy> inner,
    std::vector<std::string> critical_queries)
    : inner_(std::move(inner)),
      critical_queries_(std::move(critical_queries)),
      name_("critical+" + inner_->name()) {}

std::vector<MetricId> CriticalChainPolicy::RequiredMetrics() const {
  return inner_->RequiredMetrics();
}

Schedule CriticalChainPolicy::ComputeSchedule(const PolicyContext& ctx) {
  Schedule schedule = inner_->ComputeSchedule(ctx);
  for (ScheduleEntry& entry : schedule.entries) {
    for (const std::string& query : critical_queries_) {
      if (entry.entity->query_name == query) {
        entry.criticality = Criticality::kLatencyCritical;
        break;
      }
    }
  }
  return schedule;
}

Schedule LogicalPriorityPolicy::ComputeSchedule(const PolicyContext& ctx) {
  Schedule schedule;
  schedule.spacing = PrioritySpacing::kLinear;
  for (SpeDriver* driver : ctx.drivers) {
    // Group this driver's entities by query, then apply Algorithm 2 to each
    // query that has configured logical priorities.
    std::map<QueryId, std::vector<const EntityInfo*>> by_query;
    for (const EntityInfo& e : ctx.provider->EntitiesOf(*driver)) {
      if (ctx.filter && !ctx.filter(e)) continue;
      by_query[e.query].push_back(&e);
    }
    for (const auto& [query, entities] : by_query) {
      // A query's name is the one its last entity carries.
      const auto it = priorities_.find(entities.back()->query_name);
      if (it == priorities_.end()) continue;
      LogicalSchedule logical;
      logical.query = query;
      logical.priorities = it->second;
      const auto physical = TransformLogicalSchedule(logical, entities);
      schedule.entries.insert(schedule.entries.end(), physical.begin(),
                              physical.end());
    }
  }
  return schedule;
}

}  // namespace lachesis::core
