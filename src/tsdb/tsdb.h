// A Graphite-like time-series store (paper §6.1).
//
// All evaluated SPEs report their metrics to Graphite, which Lachesis then
// queries; the store's one-second resolution is what bounds Lachesis'
// scheduling period in the paper. The store keeps a bounded history per
// series and supports the two reads drivers need: the latest sample and a
// windowed delta (for rates / per-tuple costs from cumulative counters).
//
// Series names are interned: a writer or reader resolves "<path>.<suffix>"
// to a dense SeriesId once and then appends or reads by handle, so the
// scrape and the control tick build and hash no string per sample. Each
// series keeps its newest max_samples points in a ring of fixed-size
// chunks, carved from an arena as the ring first fills and overwritten in
// place once it is full: memory is touched as samples arrive, and a full
// store appends without touching the heap.
#ifndef LACHESIS_TSDB_TSDB_H_
#define LACHESIS_TSDB_TSDB_H_

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "common/arena.h"
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

class TimeSeriesStore {
 public:
  // Retains at most `max_samples` (>= 1) points per series (ring
  // semantics).
  explicit TimeSeriesStore(std::size_t max_samples = 600)
      : max_samples_(static_cast<std::uint32_t>(max_samples)),
        chunks_per_ring_((max_samples_ + kChunkSamples - 1) / kChunkSamples) {
    if (max_samples == 0 || max_samples > UINT32_MAX) {
      throw std::invalid_argument("TimeSeriesStore: max_samples out of range");
    }
  }

  // The handle of `series`, creating it empty if new.
  SeriesId Intern(std::string_view series) {
    const std::uint32_t id = names_.Intern(series);
    if (id >= rings_.size()) {
      rings_.resize(id + 1);
      chunks_.resize(rings_.size() * chunks_per_ring_, nullptr);
    }
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

  // Precondition: `series` came from Intern on this store.
  void Append(SeriesId series, SimTime time, double value) {
    assert(series.value() < rings_.size());
    Ring& ring = rings_[series.value()];
    if (ring.size == 0) ++appended_;
    Sample*& chunk = chunks_[series.value() * chunks_per_ring_ +
                             ring.next / kChunkSamples];
    if (chunk == nullptr) {
      // The last chunk holds only what is left of max_samples.
      const std::uint32_t first = ring.next - ring.next % kChunkSamples;
      chunk = samples_.AllocateArray<Sample>(
          std::min(kChunkSamples, max_samples_ - first));
    }
    chunk[ring.next % kChunkSamples] = Sample{time, value};
    ring.next = ring.next + 1 == max_samples_ ? 0 : ring.next + 1;
    if (ring.size < max_samples_) ++ring.size;
  }

  // The newest sample; nullopt for an empty series or kNoSeries.
  [[nodiscard]] std::optional<Sample> Latest(SeriesId series) const {
    if (Size(series) == 0) return std::nullopt;
    return At(series, Before(rings_[series.value()].next));
  }

  // Difference between the newest sample and the newest sample at least
  // `window` older, or the oldest sample kept when none is that old;
  // nullopt when fewer than two samples exist. Useful for turning
  // cumulative counters into windowed deltas.
  [[nodiscard]] std::optional<double> Delta(SeriesId series,
                                            SimDuration window) const {
    const std::uint32_t size = Size(series);
    if (size < 2) return std::nullopt;
    std::uint32_t slot = Before(rings_[series.value()].next);
    const Sample& last = At(series, slot);
    const Sample* older = nullptr;
    for (std::uint32_t i = 1; i < size; ++i) {
      slot = Before(slot);
      older = &At(series, slot);
      if (last.time - older->time >= window) break;
    }
    return last.value - older->value;
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
  // Samples per chunk: 512 bytes, the node size of a std::deque<Sample>.
  static constexpr std::uint32_t kChunkSamples = 32;

  struct Ring {
    std::uint32_t next = 0;  // slot the next sample goes to
    std::uint32_t size = 0;  // samples kept, <= max_samples_
  };

  // Samples kept by `series`; 0 for kNoSeries.
  [[nodiscard]] std::uint32_t Size(SeriesId series) const {
    return series.value() < rings_.size() ? rings_[series.value()].size : 0;
  }

  [[nodiscard]] std::uint32_t Before(std::uint32_t slot) const {
    return slot == 0 ? max_samples_ - 1 : slot - 1;
  }

  [[nodiscard]] const Sample& At(SeriesId series, std::uint32_t slot) const {
    return chunks_[series.value() * chunks_per_ring_ + slot / kChunkSamples]
                  [slot % kChunkSamples];
  }

  std::uint32_t max_samples_;
  std::uint32_t chunks_per_ring_;
  StringInterner names_;
  std::vector<Ring> rings_;  // by SeriesId
  // chunks_per_ring_ chunk pointers per series, null until first written.
  std::vector<Sample*> chunks_;
  Arena samples_;  // the chunks
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
