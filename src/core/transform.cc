#include "core/transform.h"

#include <algorithm>

namespace lachesis::core {

std::vector<ScheduleEntry> TransformLogicalSchedule(
    const LogicalSchedule& logical, std::span<const EntityInfo* const> entities) {
  std::vector<ScheduleEntry> out;
  out.reserve(entities.size());
  for (const EntityInfo* e : entities) {  // each physical op (incl. replicas)
    if (e->query != logical.query) continue;
    double priority = 0.0;
    bool first = true;
    for (const int l : e->logical_indices) {  // fused logical operators
      const auto it = logical.priorities.find(l);
      if (it == logical.priorities.end()) continue;
      priority = first ? it->second : std::max(priority, it->second);
      first = false;
    }
    out.push_back({e, priority});
  }
  return out;
}

}  // namespace lachesis::core
