// Transformation rules: logical schedule -> physical schedule (paper §5.1,
// Algorithm 2).
//
// Users may express scheduling goals on logical operators, independent of
// how the SPE fused/fissioned the DAG. A transformation rule maps those
// priorities onto the physical operators: under fission every replica
// inherits the logical priority; under fusion the physical operator gets the
// maximum (the paper's example rule) of the fused logical operators'
// priorities.
#ifndef LACHESIS_CORE_TRANSFORM_H_
#define LACHESIS_CORE_TRANSFORM_H_

#include <span>
#include <vector>

#include "core/schedule.h"

namespace lachesis::core {

// Algorithm 2 with the paper's example rule: a fused physical operator
// gets the maximum of its logical operators' priorities. `entities` are the
// physical operators of the schedule's query (entities of other queries
// are skipped); operators without a priority entry keep priority 0. The
// entries point at the given entities.
std::vector<ScheduleEntry> TransformLogicalSchedule(
    const LogicalSchedule& logical, std::span<const EntityInfo* const> entities);

}  // namespace lachesis::core

#endif  // LACHESIS_CORE_TRANSFORM_H_
