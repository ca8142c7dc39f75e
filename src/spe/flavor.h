// SPE flavors: the behavioural profile of the engine executing a query.
//
// The paper evaluates Lachesis on Apache Storm, Apache Flink and Liebre.
// At the level its experiments exercise, the engines differ in
//  (1) queueing: Storm/Liebre keep unbounded in-memory queues, Flink uses
//      bounded exchanges that backpressure producers (Fig 12 discussion);
//  (2) operator chaining (fusion): supported by Flink, disabled in the
//      paper's runs to match Storm's physical DAG;
//  (3) per-tuple framework overhead: Flink's exchange stack costs more per
//      non-chained hop on small devices (the paper observes lower absolute
//      Flink performance on Odroids);
//  (4) which raw metrics their public metric APIs expose, which drives the
//      metric provider's dependency resolution (Fig 4, Algorithm 3).
#ifndef LACHESIS_SPE_FLAVOR_H_
#define LACHESIS_SPE_FLAVOR_H_

#include <cstddef>
#include <cstdint>
#include <set>
#include <string>

#include "common/sim_time.h"

namespace lachesis::spe {

// Raw metrics an SPE may expose through its public API, per physical
// operator. Derived metrics (cost, selectivity, rates...) are computed by
// Lachesis' metric provider from whichever subset is available.
enum class RawMetric : std::uint8_t {
  kTuplesIn,         // cumulative input count
  kTuplesOut,        // cumulative output count
  kQueueSize,        // current input queue length
  kBufferUsage,      // queue fill fraction in [0,1] (Flink-style)
  kBufferCapacity,   // configured queue capacity
  kAvgExecLatencyUs, // rolling average per-tuple execution latency (Storm-style)
  kBusyTimeNs,       // cumulative processing time (Flink-style)
  kCost,             // per-tuple cost, directly measured (Liebre-style)
  kSelectivity,      // out/in ratio, directly measured (Liebre-style)
  kHeadTupleAgeNs,   // age of the head-of-line tuple (Liebre-style)
  kQueueHighWater,   // peak input-queue length since deployment; makes
                     // backpressure collapse on unbounded queues visible
                     // before OOM (bounded queues report ring peaks)
};
// Number of raw metrics; kQueueHighWater must stay the last enumerator.
inline constexpr std::size_t kRawMetricCount =
    static_cast<std::size_t>(RawMetric::kQueueHighWater) + 1;

struct SpeFlavor {
  std::string name;
  // 0 = unbounded queues; >0 = bounded with producer backpressure.
  std::size_t queue_capacity = 0;
  bool supports_chaining = false;
  // Engine bookkeeping added to every tuple exchanged between physical
  // operators (serialization, ack tracking, exchange stack).
  SimDuration per_tuple_overhead = Micros(20);
  // Spout-side flow control (Storm's max.spout.pending, Liebre's in-memory
  // limits): ingress operators stop consuming from the source channel while
  // more than this many tuples sit in the query's internal queues. 0 = none
  // (Flink: the bounded exchanges already backpressure structurally).
  std::size_t max_pending = 0;
  // Raw metrics the engine's public API exposes.
  std::set<RawMetric> exposed_metrics;
};

// Storm-like: unbounded queues, no chaining, counts + rolling execute
// latency exposed (no direct cost/selectivity).
inline SpeFlavor StormFlavor() {
  SpeFlavor f;
  f.name = "storm";
  f.queue_capacity = 0;
  f.supports_chaining = false;
  f.per_tuple_overhead = Micros(25);  // ack tracking per tuple
  f.max_pending = 1024;
  f.exposed_metrics = {RawMetric::kTuplesIn, RawMetric::kTuplesOut,
                       RawMetric::kQueueSize, RawMetric::kAvgExecLatencyUs,
                       RawMetric::kQueueHighWater};
  return f;
}

// Flink-like: bounded exchanges (backpressure), chaining available, busy
// time + buffer usage exposed (queue size must be derived).
inline SpeFlavor FlinkFlavor() {
  SpeFlavor f;
  f.name = "flink";
  f.queue_capacity = 64;
  f.supports_chaining = true;
  f.per_tuple_overhead = Micros(40);  // network-stack exchange per hop
  f.exposed_metrics = {RawMetric::kTuplesIn, RawMetric::kTuplesOut,
                       RawMetric::kBufferUsage, RawMetric::kBufferCapacity,
                       RawMetric::kBusyTimeNs};
  return f;
}

// Liebre-like: lightweight research SPE; unbounded queues, rich direct
// metrics (cost, selectivity, head-of-line age).
inline SpeFlavor LiebreFlavor() {
  SpeFlavor f;
  f.name = "liebre";
  f.queue_capacity = 0;
  f.supports_chaining = false;
  f.per_tuple_overhead = Micros(10);
  f.max_pending = 1024;
  f.exposed_metrics = {RawMetric::kTuplesIn,  RawMetric::kTuplesOut,
                       RawMetric::kQueueSize, RawMetric::kCost,
                       RawMetric::kSelectivity, RawMetric::kHeadTupleAgeNs,
                       RawMetric::kQueueHighWater};
  return f;
}

}  // namespace lachesis::spe

#endif  // LACHESIS_SPE_FLAVOR_H_
