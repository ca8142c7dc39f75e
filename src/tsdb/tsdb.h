// A Graphite-like time-series store (paper §6.1).
//
// All evaluated SPEs report their metrics to Graphite, which Lachesis then
// queries; the store's one-second resolution is what bounds Lachesis'
// scheduling period in the paper. The store supports the two reads drivers
// need: the latest sample and a windowed delta (for rates / per-tuple costs
// from cumulative counters).
//
// Series names are interned: a writer or reader resolves "<path>.<suffix>"
// to a dense SeriesId once and then appends or reads by handle, so the
// scrape and the control tick build and hash no string per sample. Each
// series keeps only the history those reads need: the samples younger than
// the store's retention (the delta window drivers read) plus the newest one
// at least that old. They sit in a ring that grows only while its oldest
// sample is still needed and is overwritten in place after, so a series
// appended to at a steady cadence stops touching the heap once its ring
// holds one retention of samples.
#ifndef LACHESIS_TSDB_TSDB_H_
#define LACHESIS_TSDB_TSDB_H_

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "common/hash_index.h"
#include "common/ids.h"
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

// Handle of one series of a TimeSeriesStore, valid for the store's
// lifetime.
struct SeriesIdTag {};
using SeriesId = Id<SeriesIdTag>;
// What Find returns for a name no series has; reads of it find no samples.
inline constexpr SeriesId kNoSeries{~std::uint64_t{0}};

// The window a driver's counter deltas span unless told otherwise -- the
// engines' 1 s reporting resolution -- and so the history a TimeSeriesStore
// keeps by default.
inline constexpr SimDuration kDeltaWindow = Seconds(1);

class TimeSeriesStore {
 public:
  // Most samples a series keeps, whatever the retention.
  static constexpr std::uint32_t kMaxSamples = 600;

  // Keeps, per series, the samples newer than the newest one minus
  // `retention` (> 0), plus the newest sample at least that old, and at
  // most kMaxSamples: Latest and Delta(window <= retention) read exactly
  // what they would from the series' newest kMaxSamples samples.
  explicit TimeSeriesStore(SimDuration retention = kDeltaWindow)
      : retention_(retention) {
    if (retention <= 0) {
      throw std::invalid_argument("TimeSeriesStore: retention must be > 0");
    }
  }

  [[nodiscard]] SimDuration retention() const { return retention_; }

  // The handle of `series`, creating it empty if new.
  SeriesId Intern(std::string_view series) {
    const std::uint32_t id = names_.Intern(series);
    if (id >= rings_.size()) rings_.resize(id + 1);
    return SeriesId(id);
  }

  // The handle of `series`, or kNoSeries. Never creates a series and never
  // allocates.
  [[nodiscard]] SeriesId Find(std::string_view series) const {
    // Lookup answers 0 both for a name never interned and for "", the
    // interner's id 0, whose series is empty until appended to.
    const std::uint32_t id = names_.Lookup(series);
    return id != 0 || series.empty() ? SeriesId(id) : kNoSeries;
  }

  // Precondition: `series` came from Intern on this store. A series' times
  // should not decrease: trimming takes append order for time order.
  void Append(SeriesId series, SimTime time, double value) {
    assert(series.value() < rings_.size());
    Ring& ring = rings_[series.value()];
    if (ring.size == 0) ++appended_;
    // The oldest sample is needed until the next-oldest is itself at least
    // retention_ older than the new one.
    while (ring.size >= 2 && time - ring[1].time >= retention_) {
      ring.PopOldest();
    }
    if (ring.size == ring.capacity) {
      if (ring.capacity == kMaxSamples) {
        ring.PopOldest();
      } else {
        ring.Grow();
      }
    }
    ++ring.size;
    ring[ring.size - 1] = Sample{time, value};
  }

  // The newest sample; nullopt for an empty series or kNoSeries.
  [[nodiscard]] std::optional<Sample> Latest(SeriesId series) const {
    const Ring* ring = RingOf(series);
    if (ring == nullptr) return std::nullopt;
    return (*ring)[ring->size - 1];
  }

  // Difference between the newest sample and the newest sample at least
  // `window` older, or the oldest sample kept when none is that old;
  // nullopt when fewer than two samples exist. Useful for turning
  // cumulative counters into windowed deltas. Exact for a window up to the
  // retention.
  [[nodiscard]] std::optional<double> Delta(SeriesId series,
                                            SimDuration window) const {
    const Ring* ring = RingOf(series);
    if (ring == nullptr || ring->size < 2) return std::nullopt;
    const Sample& last = (*ring)[ring->size - 1];
    std::uint32_t i = ring->size - 2;
    while (i > 0 && last.time - (*ring)[i].time < window) --i;
    return last.value - (*ring)[i].value;
  }

  // By name: one lookup, then the handle overloads.
  void Append(std::string_view series, SimTime time, double value) {
    Append(Intern(series), time, value);
  }
  [[nodiscard]] std::optional<Sample> Latest(std::string_view series) const {
    return Latest(Find(series));
  }
  [[nodiscard]] std::optional<double> Delta(std::string_view series,
                                            SimDuration window) const {
    return Delta(Find(series), window);
  }

  // Series appended to at least once.
  [[nodiscard]] std::size_t series_count() const { return appended_; }

 private:
  // One series' samples, oldest first from `head`.
  struct Ring {
    std::unique_ptr<Sample[]> slots;
    std::uint32_t capacity = 0;
    std::uint32_t head = 0;  // slot of the oldest sample
    std::uint32_t size = 0;  // samples kept, <= capacity

    // The i-th oldest sample, i < size.
    Sample& operator[](std::uint32_t i) { return slots[Slot(i)]; }
    const Sample& operator[](std::uint32_t i) const { return slots[Slot(i)]; }
    [[nodiscard]] std::uint32_t Slot(std::uint32_t i) const {
      const std::uint32_t slot = head + i;
      return slot < capacity ? slot : slot - capacity;
    }

    void PopOldest() {
      head = head + 1 == capacity ? 0 : head + 1;
      --size;
    }

    // Doubles the capacity, up to kMaxSamples, and unrolls the ring.
    void Grow() {
      const std::uint32_t grown =
          std::min(std::max(2 * capacity, std::uint32_t{2}), kMaxSamples);
      auto grown_slots = std::make_unique_for_overwrite<Sample[]>(grown);
      for (std::uint32_t i = 0; i < size; ++i) grown_slots[i] = (*this)[i];
      slots = std::move(grown_slots);
      capacity = grown;
      head = 0;
    }
  };

  // The ring of `series`; null for kNoSeries or a series never appended to.
  [[nodiscard]] const Ring* RingOf(SeriesId series) const {
    if (series.value() >= rings_.size()) return nullptr;
    const Ring& ring = rings_[series.value()];
    return ring.size > 0 ? &ring : nullptr;
  }

  SimDuration retention_;
  StringInterner names_;
  std::vector<Ring> rings_;  // by SeriesId
  std::size_t appended_ = 0;
};

// Series handles of (entity, metric) pairs, resolved on first use: a flat
// table indexed by entity * metrics + metric, grown on demand. A resolver
// that finds no series yet returns kNoSeries, which is not cached, so the
// next Get resolves again.
class SeriesHandles {
 public:
  explicit SeriesHandles(std::size_t metrics) : metrics_(metrics) {}

  template <typename Resolve>
  SeriesId Get(std::uint64_t entity, std::size_t metric, Resolve&& resolve) {
    const std::size_t slot =
        static_cast<std::size_t>(entity) * metrics_ + metric;
    if (slot >= ids_.size()) ids_.resize(slot + 1, kNoSeries);
    SeriesId& id = ids_[slot];
    if (id == kNoSeries) id = resolve();
    return id;
  }

 private:
  std::size_t metrics_;
  std::vector<SeriesId> ids_;
};

}  // namespace lachesis::tsdb

#endif  // LACHESIS_TSDB_TSDB_H_
