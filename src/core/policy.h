// Scheduling policies (paper Def 3.2, §5.1).
//
// A policy consumes metrics (through the metric provider) and outputs
// priorities for physical operators. Policies are SPE-agnostic: they see
// abstract entities and metric values only, so one implementation schedules
// operators of any engine with a driver (G1/G2).
#ifndef LACHESIS_CORE_POLICY_H_
#define LACHESIS_CORE_POLICY_H_

#include <functional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/sim_time.h"
#include "core/driver.h"
#include "core/metric_provider.h"
#include "core/schedule.h"

namespace lachesis::core {

struct PolicyContext {
  MetricProvider* provider;
  // Drivers this policy schedules; entity snapshots come from the provider.
  std::vector<SpeDriver*> drivers;
  // Optional entity filter (e.g. one policy per query, G3).
  std::function<bool(const EntityInfo&)> filter;
  SimTime now = 0;
  Rng* rng = nullptr;

  // Invokes `fn(SpeDriver&, const EntityInfo&)` for every scheduled
  // (driver, entity) pair; the entity is the provider's snapshot element.
  template <typename Fn>
  void ForEachEntity(Fn&& fn) const {
    for (SpeDriver* driver : drivers) {
      for (const EntityInfo& e : provider->EntitiesOf(*driver)) {
        if (!filter || filter(e)) fn(*driver, e);
      }
    }
  }

  // Entities in the drivers' snapshots before filtering: enough to reserve
  // a schedule's entries.
  [[nodiscard]] std::size_t MaxEntities() const {
    std::size_t count = 0;
    for (SpeDriver* driver : drivers) {
      count += provider->EntitiesOf(*driver).size();
    }
    return count;
  }
};

class SchedulingPolicy {
 public:
  virtual ~SchedulingPolicy() = default;
  [[nodiscard]] virtual const std::string& name() const = 0;
  // Metrics to register with the provider (Algorithm 1 L1).
  [[nodiscard]] virtual std::vector<MetricId> RequiredMetrics() const = 0;
  virtual Schedule ComputeSchedule(const PolicyContext& ctx) = 0;
};

}  // namespace lachesis::core

#endif  // LACHESIS_CORE_POLICY_H_
