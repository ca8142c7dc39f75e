// A Graphite-like time-series store (paper §6.1).
//
// All evaluated SPEs report their metrics to Graphite, which Lachesis then
// queries; the store's one-second resolution is what bounds Lachesis'
// scheduling period in the paper. The store keeps a bounded history per
// series and supports the two reads drivers need: the latest sample and a
// windowed delta (for rates / per-tuple costs from cumulative counters).
#ifndef LACHESIS_TSDB_TSDB_H_
#define LACHESIS_TSDB_TSDB_H_

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <unordered_map>

#include "common/sim_time.h"
#include "spe/flavor.h"

namespace lachesis::tsdb {

// Human-readable series suffix for each raw metric.
inline const char* RawMetricName(spe::RawMetric m) {
  switch (m) {
    case spe::RawMetric::kTuplesIn: return "tuples_in";
    case spe::RawMetric::kTuplesOut: return "tuples_out";
    case spe::RawMetric::kQueueSize: return "queue_size";
    case spe::RawMetric::kBufferUsage: return "buffer_usage";
    case spe::RawMetric::kBufferCapacity: return "buffer_capacity";
    case spe::RawMetric::kAvgExecLatencyUs: return "avg_exec_latency_us";
    case spe::RawMetric::kBusyTimeNs: return "busy_time_ns";
    case spe::RawMetric::kCost: return "cost_ns";
    case spe::RawMetric::kSelectivity: return "selectivity";
    case spe::RawMetric::kHeadTupleAgeNs: return "head_tuple_age_ns";
    case spe::RawMetric::kQueueHighWater: return "queue_high_water";
  }
  return "unknown";
}

// The series an engine reports raw metric `m` of one operator under:
// "<path>.<suffix>", where `path` is the operator's series prefix. Taken by
// value so a temporary prefix is extended in place.
inline std::string SeriesName(std::string path, spe::RawMetric m) {
  path += '.';
  path += RawMetricName(m);
  return path;
}

struct Sample {
  SimTime time;
  double value;
};

class TimeSeriesStore {
 public:
  // Retains at most `max_samples` points per series (ring semantics).
  explicit TimeSeriesStore(std::size_t max_samples = 600)
      : max_samples_(max_samples) {}

  void Append(const std::string& series, SimTime time, double value) {
    auto& points = series_[series];
    points.push_back({time, value});
    if (points.size() > max_samples_) points.pop_front();
  }

  [[nodiscard]] std::optional<Sample> Latest(const std::string& series) const {
    const auto it = series_.find(series);
    if (it == series_.end() || it->second.empty()) return std::nullopt;
    return it->second.back();
  }

  // Difference between the newest sample and the newest sample at least
  // `window` older; nullopt when fewer than two suitable samples exist.
  // Useful for turning cumulative counters into windowed deltas.
  [[nodiscard]] std::optional<double> Delta(const std::string& series,
                                            SimDuration window) const {
    const auto it = series_.find(series);
    if (it == series_.end() || it->second.size() < 2) return std::nullopt;
    const auto& points = it->second;
    const Sample& last = points.back();
    for (auto rit = points.rbegin() + 1; rit != points.rend(); ++rit) {
      if (last.time - rit->time >= window) return last.value - rit->value;
    }
    // No sample old enough: fall back to the oldest available.
    return last.value - points.front().value;
  }

  [[nodiscard]] std::size_t series_count() const { return series_.size(); }

 private:
  std::size_t max_samples_;
  std::unordered_map<std::string, std::deque<Sample>> series_;
};

}  // namespace lachesis::tsdb

#endif  // LACHESIS_TSDB_TSDB_H_
