// Driver for the simulated SPE flavors (paper §4, "SPE Drivers").
//
// One driver class serves Storm-, Flink- and Liebre-flavored instances: the
// flavor's exposed raw metrics, resolved against the shared raw-metric table
// (core/registry_driver.h), determine which Lachesis metrics the driver
// Provides(); everything else is derived by the metric provider (the paper's
// Fig 4 example: the same HR policy resolves differently per SPE). Metric
// values are read from the Graphite-like store the engine reports to -- not
// from live engine state -- so the driver sees data up to one scrape period
// old, exactly like the real middleware.
#ifndef LACHESIS_CORE_SIM_DRIVER_H_
#define LACHESIS_CORE_SIM_DRIVER_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "core/driver.h"
#include "core/registry_driver.h"
#include "spe/runtime.h"
#include "tsdb/tsdb.h"

namespace lachesis::core {

class SimSpeDriver final : public SpeDriver {
 public:
  // Throws std::invalid_argument when `delta_window` is longer than the
  // store's retention: the store would not keep the samples it spans.
  SimSpeDriver(spe::SpeInstance& instance, const tsdb::TimeSeriesStore& store,
               SimDuration delta_window = tsdb::kDeltaWindow);

  [[nodiscard]] const std::string& name() const override { return name_; }
  std::vector<EntityInfo> Entities() override;
  // Moves when the instance deploys a query (deployments are append-only
  // and never change once made).
  [[nodiscard]] std::uint64_t EntitiesGeneration() const override;
  const LogicalTopology& Topology(QueryId query) override;
  [[nodiscard]] bool Provides(MetricId metric) const override;
  double Fetch(MetricId metric, const EntityInfo& entity) override;

 private:
  spe::SpeInstance* instance_;
  const tsdb::TimeSeriesStore* store_;
  std::string name_;
  RawMetricReader reader_;
  // The generation and the deployed-query count it was taken at; taken on
  // first use, not at construction.
  mutable std::uint64_t generation_ = 0;
  mutable std::size_t generation_queries_ = 0;
  mutable std::unordered_map<QueryId, LogicalTopology> topologies_;
  // Previous runnable-wait snapshot per entity, for the PSI delta. Pressure
  // is an OS facility (read fresh from the kernel, not scraped via the
  // metric store).
  std::unordered_map<OperatorId, double> last_wait_ns_;
};

}  // namespace lachesis::core

#endif  // LACHESIS_CORE_SIM_DRIVER_H_
