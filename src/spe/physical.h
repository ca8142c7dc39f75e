// Physical operators: the execution units of the SPE (paper §2).
//
// A physical operator is a replica of one logical operator or of a fused
// chain of logical operators. It is passive: execution is driven either by a
// dedicated simulated kernel thread (the mainstream one-thread-per-operator
// model Lachesis schedules) or by a user-level scheduler's worker threads
// (the EdgeWise/Haren baselines in src/ulss/). The two-phase Begin/Finish
// protocol lets both executors charge the simulated CPU cost between popping
// a tuple and applying its effects. Egress state (the latency reservoirs and
// the running stats) lives only on egress operators.
#ifndef LACHESIS_SPE_PHYSICAL_H_
#define LACHESIS_SPE_PHYSICAL_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/ids.h"
#include "common/rng.h"
#include "common/sim_time.h"
#include "common/stats.h"
#include "spe/logical.h"
#include "spe/queue.h"
#include "spe/tuple.h"

namespace lachesis::spe {

class PhysicalOp;

// Routing from a physical operator to the replicas of one downstream
// operator. Remote destinations (scale-out deployments) are delivered via a
// simulated network hop instead of a direct push.
struct PhysicalEdge {
  std::vector<TupleQueue*> destinations;  // one per downstream replica
  // Per destination: 1 when it lives on another machine. Bytes, not
  // std::vector<bool>'s packed bits: every emitted tuple reads one.
  std::vector<std::uint8_t> remote;
  Partitioning partitioning = Partitioning::kShuffle;
  std::uint64_t rr_counter = 0;

  [[nodiscard]] std::size_t PickReplica(const Tuple& t) {
    if (destinations.size() == 1) return 0;
    if (partitioning == Partitioning::kKeyBy) {
      std::uint64_t h = static_cast<std::uint64_t>(t.key);
      return SplitMix64(h) % destinations.size();
    }
    return rr_counter++ % destinations.size();
  }
};

// One latency reservoir's samples, whole nanoseconds of simulated time.
//
// Every egress tuple adds a sample to each reservoir its deploy keeps, so a
// run of hundreds of queries keeps millions of them. While every sample lies
// in [0, 2^32) ns (4.29 s), each is kept in 4 bytes instead of a double's 8.
// The first sample outside that range (a negative difference, or a backlog
// past 4.29 s) widens the store once to 8-byte integers, copying every
// earlier sample; the wide side allocates nothing before that. Either way a
// read returns the double of the exact sample. Which slot a sample takes
// is EgressMeasurements::Record's choice; the store only appends and sets.
class LatencySamples {
 public:
  // Enough of an iterator for a range-for over the samples as doubles.
  class Iterator {
   public:
    Iterator(const LatencySamples* samples, std::size_t index)
        : samples_(samples), index_(index) {}
    double operator*() const { return (*samples_)[index_]; }
    Iterator& operator++() {
      ++index_;
      return *this;
    }
    bool operator==(const Iterator&) const = default;

   private:
    const LatencySamples* samples_;
    std::size_t index_;
  };

  [[nodiscard]] std::size_t size() const {
    return wide_ ? wide_samples_.size() : narrow_.size();
  }
  [[nodiscard]] bool empty() const { return size() == 0; }
  // True once a sample outside [0, 2^32) ns has widened the store.
  [[nodiscard]] bool wide() const { return wide_; }
  [[nodiscard]] double operator[](std::size_t i) const {
    return wide_ ? static_cast<double>(wide_samples_[i])
                 : static_cast<double>(narrow_[i]);
  }
  [[nodiscard]] Iterator begin() const { return {this, 0}; }
  [[nodiscard]] Iterator end() const { return {this, size()}; }

  void Append(SimDuration ns);
  // Overwrites sample `i` (< size()).
  void Set(std::size_t i, SimDuration ns);

 private:
  void Widen();

  // A deque grows in fixed-size chunks, so growth never copies and leaves
  // no freed buffer behind.
  std::deque<std::uint32_t> narrow_;
  std::vector<SimDuration> wide_samples_;  // empty until Widen()
  bool wide_ = false;
};

// The latency reservoirs an egress keeps; each deploy names them. The
// running stats and `tuples` are kept whatever the choice.
enum class LatencyReservoirs : std::uint8_t {
  kNone = 0,
  kEndToEnd = 1,
  kProcessing = 2,
  kBoth = 3,
};

// Samples recorded by Egress operators (paper §3.2 latency definitions);
// only an egress operator carries them, and `Record` is their one writer.
// Who reads what, and so what each caller keeps:
//  - `e2e_latency_samples`: perfbench's sim-scale quantiles, from the
//    DeployOptions default (kEndToEnd);
//  - `latency_samples`: exp::RunScenario (kProcessing) copies it per query,
//    for Fig 13's letter-value analysis and bench_hetero;
//  - the running stats: the average latencies of every experiment, and all
//    the fleet reads (kNone).
//
// Recording never draws from the operator's own generator, so what a run
// keeps cannot change what it simulates.
class EgressMeasurements {
 public:
  // Cap on retained samples per reservoir; beyond it, reservoir sampling
  // keeps the distribution unbiased for the letter-value analysis (Fig 13).
  static constexpr std::size_t kMaxSamples = 100'000;

  // `seed` is the operator's; the sampler is a stream split off it.
  EgressMeasurements(std::uint64_t seed, LatencyReservoirs reservoirs);

  // Records one delivered tuple in both running stats and in the kept
  // reservoirs; an unkept one stays empty. Past the cap, one draw per tuple
  // picks the slot every kept reservoir overwrites (none at kNone), so
  // slot i of each holds the same tuple, and a kept reservoir holds the
  // same samples whatever else is kept.
  void Record(SimDuration latency_ns, SimDuration e2e_ns);
  // Warmup trim: drops every sample and restarts the sampler from the
  // seed; the same reservoirs stay kept.
  void Reset() { *this = EgressMeasurements(seed_, reservoirs_); }

  RunningStat latency;       // processing latency, ns
  RunningStat e2e_latency;   // end-to-end latency, ns
  LatencySamples latency_samples;      // capped reservoir, processing
  LatencySamples e2e_latency_samples;  // capped reservoir, end-to-end
  std::uint64_t tuples = 0;

 private:
  [[nodiscard]] bool Keeps(LatencyReservoirs r) const {
    return (static_cast<std::uint8_t>(reservoirs_) &
            static_cast<std::uint8_t>(r)) != 0;
  }

  std::uint64_t seed_;
  LatencyReservoirs reservoirs_;
  Rng sampler_;  // reservoir slots past the cap, and nothing else
};

class PhysicalOp {
 public:
  struct Config {
    std::string name;          // "<query>.<chain-name>.<replica>"
    QueryId query;
    std::vector<int> logical_indices;  // fused chain, upstream-first
    int replica = 0;
    OperatorRole role = OperatorRole::kTransform;
    SimDuration cost = 0;      // summed chain cost
    double cost_jitter = 0.0;
    double block_probability = 0.0;
    SimDuration block_max = 0;
    SimDuration per_tuple_overhead = 0;  // engine framework overhead
    SimDuration network_delay = 0;       // latency for remote pushes
    std::uint64_t seed = 1;
    // Egress role only; see DeployOptions::reservoirs.
    LatencyReservoirs reservoirs = LatencyReservoirs::kEndToEnd;
  };

  PhysicalOp(Config config, TupleQueue* input,
             std::vector<std::unique_ptr<OperatorLogic>> logic_chain);

  // --- flow control ----------------------------------------------------------
  // Ingress-side flow control (Storm's max.spout.pending): when configured
  // and the query's internal queues (`pending`) hold more than `cap` tuples
  // between them, the ingress pauses consumption from the source channel.
  void set_flow_control(std::vector<const TupleQueue*> pending,
                        std::size_t cap) {
    pending_queues_ = std::move(pending);
    pending_cap_ = cap;
  }
  [[nodiscard]] bool Throttled() const {
    std::size_t pending = 0;
    for (const TupleQueue* q : pending_queues_) pending += q->size();
    return pending > pending_cap_;
  }

  // --- two-phase execution -------------------------------------------------
  // Pops the next tuple and returns the CPU cost to charge; false if the
  // input queue is empty.
  [[nodiscard]] bool Begin(SimDuration& cost_out);
  // Applies the popped tuple after its cost was charged: runs the logic
  // chain, stages outputs, records egress samples. Returns a blocking-I/O
  // duration (0 for none).
  SimDuration Finish(SimTime now);
  // Pushes staged outputs; returns false if blocked on a full bounded queue
  // (remaining outputs stay staged). `blocked_queue()` names the culprit.
  [[nodiscard]] bool TryEmit();
  // Pushes staged outputs ignoring capacity (user-level schedulers, which
  // the paper only pairs with unbounded-queue engines).
  void EmitAllUnbounded();
  [[nodiscard]] TupleQueue* blocked_queue() const { return blocked_queue_; }

  // --- wiring ----------------------------------------------------------------
  void AddEdge(PhysicalEdge edge) { edges_.push_back(std::move(edge)); }
  // Extra per-input-tuple cost for cross-node serialization; set by the
  // deployment once edges are wired (scaled by the remote fan-out share).
  void AddSerializationOverhead(SimDuration extra) {
    config_.per_tuple_overhead += extra;
  }
  [[nodiscard]] TupleQueue& input() { return *input_; }
  [[nodiscard]] const TupleQueue& input() const { return *input_; }
  void set_remote_push(
      std::function<void(TupleQueue*, const Tuple&, SimDuration)> fn) {
    remote_push_ = std::move(fn);
  }

  // --- identity & metrics ------------------------------------------------------
  [[nodiscard]] const Config& config() const { return config_; }
  [[nodiscard]] std::uint64_t tuples_in() const { return tuples_in_; }
  [[nodiscard]] std::uint64_t tuples_out() const { return tuples_out_; }
  [[nodiscard]] SimDuration busy_ns() const { return busy_ns_; }
  // The latency samples of an egress operator; null for any other role.
  [[nodiscard]] EgressMeasurements* egress() { return egress_.get(); }
  // Measured per-tuple cost (ns) and selectivity since the last reset;
  // 0 while no tuple was processed.
  [[nodiscard]] double MeasuredCostNs() const;
  [[nodiscard]] double MeasuredSelectivity() const;

  void ResetMeasurements();

 private:
  void RouteOutput(const Tuple& t);

  Config config_;
  TupleQueue* input_;
  std::vector<std::unique_ptr<OperatorLogic>> logic_chain_;
  std::vector<PhysicalEdge> edges_;
  std::function<void(TupleQueue*, const Tuple&, SimDuration)> remote_push_;
  std::vector<const TupleQueue*> pending_queues_;  // empty: no flow control
  std::size_t pending_cap_ = 0;
  Rng rng_;  // cost jitter (Begin) and blocking (Finish) only


  // In-flight tuple between Begin and Finish.
  Tuple current_{};
  bool in_flight_ = false;
  SimDuration current_cost_ = 0;

  // Staged outputs: (edge index, tuple) pairs, emitted in order.
  struct Staged {
    std::size_t edge;
    std::size_t replica;
    Tuple tuple;
  };
  std::vector<Staged> staged_;
  std::size_t staged_pos_ = 0;
  TupleQueue* blocked_queue_ = nullptr;

  std::vector<Tuple> scratch_in_;
  std::vector<Tuple> scratch_out_;

  std::uint64_t tuples_in_ = 0;
  std::uint64_t tuples_out_ = 0;
  SimDuration busy_ns_ = 0;
  std::unique_ptr<EgressMeasurements> egress_;  // egress role only
};

}  // namespace lachesis::spe

#endif  // LACHESIS_SPE_PHYSICAL_H_
