// The metric provider (paper §4, §5.2, Algorithm 3).
//
// Single component responsible for computing the metrics policies request.
// Per scheduling period it iterates the drivers and computes every
// registered metric for every entity, using a per-driver cache, fetching
// directly from the driver when the SPE exposes the metric and recursively
// resolving the dependency graph otherwise. A missing primitive dependency
// is a configuration error.
#ifndef LACHESIS_CORE_METRIC_PROVIDER_H_
#define LACHESIS_CORE_METRIC_PROVIDER_H_

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/hash_index.h"
#include "core/driver.h"
#include "core/entities.h"
#include "core/metric.h"

namespace lachesis::core {

// Thrown when a registered metric can be neither fetched nor derived for a
// driver (Algorithm 3 L15).
class ConfigurationError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class MetricProvider {
 public:
  // Installs the built-in derived metrics (queue size, cost, selectivity,
  // input rate, highest rate).
  MetricProvider();

  // Registers a metric required by some policy (Algorithm 1 L1). Leaf
  // dependencies are registered implicitly during resolution.
  void Register(MetricId metric) { registered_.insert(metric); }

  // Drops a registration (a query detached and no remaining policy needs
  // the metric); it is no longer computed on Update.
  void Unregister(MetricId metric) { registered_.erase(metric); }
  [[nodiscard]] const std::set<MetricId>& registered() const {
    return registered_;
  }

  // Adds or replaces a derived metric (the set is user-extensible).
  void InstallDerived(std::unique_ptr<DerivedMetric> metric);

  // Computes all registered metrics for all entities of all drivers
  // (Algorithm 3, update()). `window` is the delta window used by
  // windowed metrics, normally the scheduling period. A driver's entities
  // are snapshotted only when its EntitiesGeneration() is 0 or has moved
  // since the last snapshot; every metric is computed fresh each time.
  void Update(const std::vector<SpeDriver*>& drivers, SimDuration window);

  // Reads a computed value from the last Update. Precondition: the metric
  // was registered and Update ran.
  [[nodiscard]] double Value(const SpeDriver& driver, MetricId metric,
                             OperatorId entity) const;

  // The driver's entity snapshot. Its elements stay put until an Update
  // re-snapshots the driver or Forget drops it, so a schedule may borrow
  // them for one period.
  [[nodiscard]] const std::vector<EntityInfo>& EntitiesOf(
      const SpeDriver& driver) const;

  // Drops the driver's snapshot and values (the driver was detached and
  // may be destroyed).
  void Forget(const SpeDriver& driver) { states_.erase(&driver); }
  [[nodiscard]] bool HasSnapshot(const SpeDriver& driver) const {
    return states_.count(&driver) != 0;
  }

 private:
  friend class DriverResolver;

  std::set<MetricId> registered_;
  std::array<std::unique_ptr<DerivedMetric>, kMetricCount> derived_;
  std::uint64_t generation_ = 0;

  // One driver's snapshot and values. Every container keeps its capacity
  // across Updates, so a warm Update of an unchanged deployment allocates
  // nothing (nor calls Entities() when the driver reports a generation).
  struct DriverState {
    // EntitiesGeneration() at the snapshot; 0 re-snapshots every Update.
    std::uint64_t entities_generation = 0;
    std::vector<EntityInfo> entities;
    // Entity id -> index of its first entry in `entities`.
    FlatMap<OperatorId, std::uint32_t> index;
    // Entities grouped by query: query -> ordinal of first appearance; the
    // ordinal's members are members[query_begin[o] .. query_begin[o + 1]),
    // in snapshot order.
    FlatMap<QueryId, std::uint32_t> query_ordinal;
    std::vector<std::uint32_t> query_begin;
    std::vector<const EntityInfo*> members;
    // This Update's values, kMetricCount per entity index; `known` marks
    // the cells computed so far.
    std::vector<double> values;
    std::vector<std::uint8_t> known;
    // (metric, entity) pairs whose derivation is in progress, innermost
    // last: a derived metric that reaches one of them again is cyclic.
    std::vector<std::pair<MetricId, OperatorId>> in_flight;

    // Takes a new snapshot and forgets the previous Update's values.
    void Reset(std::vector<EntityInfo> snapshot);
    // Forgets the previous Update's values, keeping the snapshot.
    void ClearValues();
  };
  std::map<const SpeDriver*, DriverState> states_;
};

}  // namespace lachesis::core

#endif  // LACHESIS_CORE_METRIC_PROVIDER_H_
