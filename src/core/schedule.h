// Schedules: the output of scheduling policies (paper §5.3).
//
// A single-priority schedule maps entities (threads) to real-valued
// priorities. Policies produce single-priority schedules over physical
// operators (Def 3.2); translators turn them into OS parameters, optionally
// forming groups first (the paper's grouping schedule: group id -> the max
// priority of its members; see EntryGrouping in translators.h).
#ifndef LACHESIS_CORE_SCHEDULE_H_
#define LACHESIS_CORE_SCHEDULE_H_

#include <cstdint>
#include <map>
#include <vector>

#include "core/entities.h"

namespace lachesis::core {

// Hints translators use to pick the right normalization (paper §5.3):
// linearly spaced priorities (e.g. QS) get min-max normalization;
// logarithmically spaced ones (e.g. HR) are normalized on their logarithms.
enum class PrioritySpacing { kLinear, kLogarithmic };

// Mixed-criticality tag a policy may attach to an entry. Translators that
// command real-time mechanisms (RT boost, SCHED_DEADLINE reservations) use
// it to decide which entities get a hard guarantee; priority-only
// translators (nice, shares) ignore it.
enum class Criticality : std::uint8_t {
  kNormal = 0,
  kLatencyCritical = 1,  // deserves a deadline/RT guarantee if available
};

struct ScheduleEntry {
  // Borrowed, not owned: policies point into the metric provider's entity
  // snapshot (MetricProvider::EntitiesOf).
  const EntityInfo* entity;
  double priority;  // higher = more CPU
  Criticality criticality = Criticality::kNormal;
};

// A schedule borrows its entities, so it is valid for one period: until
// the provider's next Update, which may re-snapshot them.
struct Schedule {
  std::vector<ScheduleEntry> entries;
  PrioritySpacing spacing = PrioritySpacing::kLinear;
};

// High-level schedules assign priorities to LOGICAL operators (paper §5.1);
// a transformation rule converts them to physical schedules (Algorithm 2).
struct LogicalSchedule {
  QueryId query;
  std::map<int, double> priorities;  // logical index -> priority
  PrioritySpacing spacing = PrioritySpacing::kLinear;
};

}  // namespace lachesis::core

#endif  // LACHESIS_CORE_SCHEDULE_H_
