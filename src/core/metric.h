// Metric identifiers and the dependency-graph node type (paper §5.2, Fig 4).
//
// A metric is quantitative information about an entity at a time (Def 3.1).
// Each derived metric declares dependencies; the metric provider resolves
// them per driver: fetched directly when the SPE exposes the metric, or
// computed recursively from dependencies otherwise (Algorithm 3).
#ifndef LACHESIS_CORE_METRIC_H_
#define LACHESIS_CORE_METRIC_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/entities.h"

namespace lachesis::core {

enum class MetricId : std::uint8_t {
  // Leaf metrics (only ever fetched from drivers).
  kTuplesInTotal,    // cumulative input count
  kTuplesOutTotal,   // cumulative output count
  kTuplesInDelta,    // input count over the last window
  kTuplesOutDelta,   // output count over the last window
  kBusyDeltaNs,      // processing time over the last window
  kBufferUsage,      // input queue fill fraction
  kBufferCapacity,   // input queue capacity

  // Derivable metrics (fetched if the SPE exposes them, else computed).
  kQueueSize,        // input queue length        <- usage * capacity
  kCost,             // ns per input tuple        <- busy delta / in delta
  kSelectivity,      // outputs per input         <- out delta / in delta
  kInputRate,        // tuples/s                  <- in delta / window
  kHeadTupleAge,     // ns the head-of-line tuple has been in the system
  kHighestRate,      // HR policy goal            <- path selectivity / cost
  kCpuPressure,      // ns the thread spent runnable-but-not-running over the
                     // last window (PSI-style, read from the OS -- paper §8)
  kQueueHighWater,   // peak input-queue length since deployment (leaf; only
                     // engines whose registry tracks it provide it)
};
// Number of metric ids; kQueueHighWater must stay the last enumerator.
inline constexpr std::size_t kMetricCount =
    static_cast<std::size_t>(MetricId::kQueueHighWater) + 1;

inline const char* MetricName(MetricId id) {
  switch (id) {
    case MetricId::kTuplesInTotal: return "tuples_in_total";
    case MetricId::kTuplesOutTotal: return "tuples_out_total";
    case MetricId::kTuplesInDelta: return "tuples_in_delta";
    case MetricId::kTuplesOutDelta: return "tuples_out_delta";
    case MetricId::kBusyDeltaNs: return "busy_delta_ns";
    case MetricId::kBufferUsage: return "buffer_usage";
    case MetricId::kBufferCapacity: return "buffer_capacity";
    case MetricId::kQueueSize: return "queue_size";
    case MetricId::kCost: return "cost";
    case MetricId::kSelectivity: return "selectivity";
    case MetricId::kInputRate: return "input_rate";
    case MetricId::kHeadTupleAge: return "head_tuple_age";
    case MetricId::kHighestRate: return "highest_rate";
    case MetricId::kCpuPressure: return "cpu_pressure";
    case MetricId::kQueueHighWater: return "queue_high_water";
  }
  return "unknown";
}

// Resolution context handed to derived-metric computations. Get() recursively
// resolves a dependency for an entity of the same driver (Algorithm 3 L16).
class MetricResolver {
 public:
  virtual ~MetricResolver() = default;
  virtual double Get(MetricId metric, const EntityInfo& entity) = 0;
  // Entities of the same query (for path metrics), in snapshot order. The
  // pointers stay valid for the current resolution pass.
  virtual std::span<const EntityInfo* const> QueryEntities(QueryId query) = 0;
  virtual const LogicalTopology& Topology(QueryId query) = 0;
  // The provider's update window (policies' period GCD).
  [[nodiscard]] virtual SimDuration window() const = 0;
  // Distinct for every resolution pass (one driver in one provider Update).
  // A derived metric that aggregates over a whole query may keep per-query
  // results while the generation stays the same.
  [[nodiscard]] virtual std::uint64_t generation() const = 0;
};

// A derived metric: dependencies plus a combine function.
class DerivedMetric {
 public:
  virtual ~DerivedMetric() = default;
  [[nodiscard]] virtual MetricId id() const = 0;
  [[nodiscard]] virtual std::vector<MetricId> deps() const = 0;
  virtual double Compute(MetricResolver& resolver, const EntityInfo& entity) = 0;
};

}  // namespace lachesis::core

#endif  // LACHESIS_CORE_METRIC_H_
