#include "core/registry_driver.h"

#include <algorithm>
#include <cassert>
#include <cstdint>

namespace lachesis::core {

// How a row reads its series.
enum class RawRead : std::uint8_t {
  kLatest,  // the newest sample
  kDelta,   // a cumulative counter's growth over the window, clamped at 0
};

struct RawMetricSource {
  MetricId metric;
  spe::RawMetric raw;
  RawRead read;
  double scale;  // unit conversion of the value read
};

namespace {

using spe::RawMetric;
using enum RawRead;

// Rows in preference order: the first row whose raw metric an engine
// exposes serves the metric. Rates and the Highest Rate goal are always
// derived by the metric provider; pressure comes from the OS.
constexpr RawMetricSource kRawMetricTable[] = {
    {MetricId::kTuplesInTotal, RawMetric::kTuplesIn, kLatest, 1.0},
    {MetricId::kTuplesOutTotal, RawMetric::kTuplesOut, kLatest, 1.0},
    {MetricId::kTuplesInDelta, RawMetric::kTuplesIn, kDelta, 1.0},
    {MetricId::kTuplesOutDelta, RawMetric::kTuplesOut, kDelta, 1.0},
    {MetricId::kBusyDeltaNs, RawMetric::kBusyTimeNs, kDelta, 1.0},
    {MetricId::kBufferUsage, RawMetric::kBufferUsage, kLatest, 1.0},
    {MetricId::kBufferCapacity, RawMetric::kBufferCapacity, kLatest, 1.0},
    {MetricId::kQueueSize, RawMetric::kQueueSize, kLatest, 1.0},
    // Liebre measures cost directly; Storm's rolling execute latency is a
    // unit conversion away (us -> ns).
    {MetricId::kCost, RawMetric::kCost, kLatest, 1.0},
    {MetricId::kCost, RawMetric::kAvgExecLatencyUs, kLatest, 1000.0},
    {MetricId::kSelectivity, RawMetric::kSelectivity, kLatest, 1.0},
    {MetricId::kHeadTupleAge, RawMetric::kHeadTupleAgeNs, kLatest, 1.0},
    {MetricId::kQueueHighWater, RawMetric::kQueueHighWater, kLatest, 1.0},
};

}  // namespace

RawMetricReader::RawMetricReader(const std::set<spe::RawMetric>& exposed,
                                 SimDuration delta_window)
    : delta_window_(delta_window) {
  for (const RawMetricSource& source : kRawMetricTable) {
    const RawMetricSource*& slot =
        slots_[static_cast<std::size_t>(source.metric)];
    if (slot == nullptr && exposed.count(source.raw) > 0) slot = &source;
  }
}

double RawMetricReader::Read(const tsdb::TimeSeriesStore& store,
                             MetricId metric, const EntityInfo& entity) {
  const RawMetricSource* source = slots_[static_cast<std::size_t>(metric)];
  assert(source != nullptr && "Fetch called for non-provided metric");
  if (source == nullptr) return 0.0;
  const tsdb::SeriesId series = series_.Get(
      entity.id.value(), static_cast<std::size_t>(source->raw), [&] {
        return store.Find(tsdb::SeriesName(entity.path, source->raw));
      });
  if (source->read == RawRead::kDelta) {
    const auto delta = store.Delta(series, delta_window_);
    return delta ? std::max(*delta, 0.0) * source->scale : 0.0;
  }
  const auto sample = store.Latest(series);
  return sample ? sample->value * source->scale : 0.0;
}

LogicalTopology TopologyOf(const spe::LogicalQuery& query) {
  LogicalTopology topo;
  for (int i = 0; i < static_cast<int>(query.operators.size()); ++i) {
    const auto& op = query.operators[static_cast<std::size_t>(i)];
    topo.names.push_back(op.name);
    topo.base_costs.push_back(static_cast<double>(op.cost));
    if (op.role == spe::OperatorRole::kIngress) {
      topo.ingress_indices.push_back(i);
    }
    if (op.role == spe::OperatorRole::kEgress) topo.egress_indices.push_back(i);
  }
  for (const auto& edge : query.edges) {
    topo.edges.emplace_back(edge.from, edge.to);
  }
  return topo;
}

}  // namespace lachesis::core
