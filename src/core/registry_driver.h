// What the registry drivers share (paper §4, "SPE Drivers"; Fig 4).
//
// A registry driver's engine reports spe::RawMetric values per operator into
// a tsdb::TimeSeriesStore, under tsdb::SeriesName(<entity path>, <raw>):
// SimSpeDriver serves the simulated Storm/Flink/Liebre flavors, and
// osctl::NativeRuntimeDriver the in-process native executor. Which series
// serves which Lachesis metric is decided once, by the table in
// registry_driver.cc: rows in preference order, each naming a raw metric,
// how it is read, and a unit scale. A driver resolves the table against its
// engine's exposed raw metrics when it is constructed, so Provides() is an
// array index. Fetch() reads the store by a series handle resolved from the
// entity's path on its first read and cached per entity.
#ifndef LACHESIS_CORE_REGISTRY_DRIVER_H_
#define LACHESIS_CORE_REGISTRY_DRIVER_H_

#include <array>
#include <set>

#include "common/sim_time.h"
#include "core/entities.h"
#include "core/metric.h"
#include "spe/flavor.h"
#include "spe/logical.h"
#include "tsdb/tsdb.h"

namespace lachesis::core {

struct RawMetricSource;

// The raw-metric table resolved for one engine.
class RawMetricReader {
 public:
  RawMetricReader(const std::set<spe::RawMetric>& exposed,
                  SimDuration delta_window = tsdb::kDeltaWindow);

  [[nodiscard]] bool Provides(MetricId metric) const {
    return slots_[static_cast<std::size_t>(metric)] != nullptr;
  }

  // Reads `metric` of `entity`, whose series prefix is entity.path: the
  // latest sample, or the counter delta over the window clamped at 0, times
  // the row's scale; 0 while the store lacks the samples. The series handle
  // is cached under entity.id once the series exists, so every call must
  // pass the same store, and an entity id must keep its path.
  // Preconditions: Provides(metric), and the store's retention covers the
  // delta window.
  double Read(const tsdb::TimeSeriesStore& store, MetricId metric,
              const EntityInfo& entity);

 private:
  SimDuration delta_window_;
  std::array<const RawMetricSource*, kMetricCount> slots_{};
  tsdb::SeriesHandles series_{spe::kRawMetricCount};  // by entity id x raw
};

// The control plane's view of one deployed logical query.
LogicalTopology TopologyOf(const spe::LogicalQuery& query);

}  // namespace lachesis::core

#endif  // LACHESIS_CORE_REGISTRY_DRIVER_H_
