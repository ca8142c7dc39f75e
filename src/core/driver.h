// SPE driver interface (paper §4).
//
// A driver bridges one SPE (possibly spanning several processes/nodes) and
// Lachesis by reading PUBLIC APIs only: the entity graph from the engine's
// deployment state and raw metrics from the metric store the engine already
// reports to. It never touches engine internals, which is what keeps
// Lachesis decoupled (G2) and lets one driver serve multiple engine
// versions.
#ifndef LACHESIS_CORE_DRIVER_H_
#define LACHESIS_CORE_DRIVER_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/sim_time.h"
#include "core/entities.h"
#include "core/metric.h"

namespace lachesis::core {

// A fresh, non-zero entity generation. One process-wide counter hands them
// out, so no two drivers ever report the same value -- not even a driver
// rebuilt at the address of a destroyed one.
inline std::uint64_t NextEntitiesGeneration() {
  static std::atomic<std::uint64_t> last{0};
  return last.fetch_add(1, std::memory_order_relaxed) + 1;
}

class SpeDriver {
 public:
  virtual ~SpeDriver() = default;

  [[nodiscard]] virtual const std::string& name() const = 0;

  // Called by the control loop at the start of every scheduling period the
  // driver participates in, before metrics are read. Drivers that pull
  // state from a live engine (re-scan /proc, tail a metric file) refresh
  // here; drivers whose state is pushed to them (the simulated scraper
  // pipeline) keep the default no-op.
  virtual void Poll(SimTime now) { (void)now; }

  // Snapshot of all physical operators currently deployed.
  virtual std::vector<EntityInfo> Entities() = 0;

  // Names the entity set. 0 (the default) means unknown: the metric
  // provider calls Entities() every period. A non-zero value promises that
  // Entities() would return exactly what it returned when this value was
  // last reported; a driver whose deployment changes reports a new value
  // from NextEntitiesGeneration(). The value only decides whether to
  // re-snapshot: it never feeds a decision or a recorded event.
  [[nodiscard]] virtual std::uint64_t EntitiesGeneration() const { return 0; }

  // Logical topology of a query (for transformation rules / path metrics).
  virtual const LogicalTopology& Topology(QueryId query) = 0;

  // True if the SPE's public metric API exposes `metric` (directly or via a
  // trivial unit conversion the driver performs).
  [[nodiscard]] virtual bool Provides(MetricId metric) const = 0;

  // Fetches a provided metric for an entity. Values come from the metric
  // store, i.e. they are up to one scrape period stale. Precondition:
  // Provides(metric).
  virtual double Fetch(MetricId metric, const EntityInfo& entity) = 0;
};

}  // namespace lachesis::core

#endif  // LACHESIS_CORE_DRIVER_H_
