#include "spe/physical.h"

#include <cassert>
#include <limits>
#include <utility>

namespace lachesis::spe {

namespace {
// True for a sample in [0, 2^32) ns; a negative one wraps past the limit.
bool FitsNarrow(SimDuration ns) {
  return static_cast<std::uint64_t>(ns) <=
         std::numeric_limits<std::uint32_t>::max();
}
}  // namespace

void LatencySamples::Append(SimDuration ns) {
  if (!wide_ && FitsNarrow(ns)) {
    narrow_.push_back(static_cast<std::uint32_t>(ns));
    return;
  }
  Widen();
  wide_samples_.push_back(ns);
}

void LatencySamples::Set(std::size_t i, SimDuration ns) {
  assert(i < size());
  if (!wide_ && FitsNarrow(ns)) {
    narrow_[i] = static_cast<std::uint32_t>(ns);
    return;
  }
  Widen();
  wide_samples_[i] = ns;
}

void LatencySamples::Widen() {
  if (wide_) return;
  wide_samples_.assign(narrow_.begin(), narrow_.end());
  narrow_.clear();
  narrow_.shrink_to_fit();
  wide_ = true;
}

// The sampler is stream 1 of the operator's seed. The operator's rng_ is
// Rng(seed) itself, so no sampler draw moves its cost jitter or blocking.
EgressMeasurements::EgressMeasurements(std::uint64_t seed,
                                       LatencyReservoirs reservoirs)
    : seed_(seed), reservoirs_(reservoirs), sampler_(Rng(seed).Split(1)) {}

void EgressMeasurements::Record(SimDuration latency_ns, SimDuration e2e_ns) {
  latency.Add(static_cast<double>(latency_ns));
  e2e_latency.Add(static_cast<double>(e2e_ns));
  ++tuples;
  if (reservoirs_ == LatencyReservoirs::kNone) return;
  const bool keep_latency = Keeps(LatencyReservoirs::kProcessing);
  const bool keep_e2e = Keeps(LatencyReservoirs::kEndToEnd);
  if (tuples <= kMaxSamples) {
    if (keep_latency) latency_samples.Append(latency_ns);
    if (keep_e2e) e2e_latency_samples.Append(e2e_ns);
    return;
  }
  // Reservoir sampling: the tuple takes a uniform slot of the first
  // `tuples`, so each tuple is kept with probability kMaxSamples / tuples.
  const std::uint64_t slot = sampler_.NextBounded(tuples);
  if (slot >= kMaxSamples) return;
  if (keep_latency) latency_samples.Set(slot, latency_ns);
  if (keep_e2e) e2e_latency_samples.Set(slot, e2e_ns);
}

PhysicalOp::PhysicalOp(Config config, TupleQueue* input,
                       std::vector<std::unique_ptr<OperatorLogic>> logic_chain)
    : config_(std::move(config)),
      input_(input),
      logic_chain_(std::move(logic_chain)),
      rng_(config_.seed),
      egress_(config_.role == OperatorRole::kEgress
                  ? std::make_unique<EgressMeasurements>(config_.seed,
                                                         config_.reservoirs)
                  : nullptr) {
  assert(input_ != nullptr);
  assert(!logic_chain_.empty());
}

bool PhysicalOp::Begin(SimDuration& cost_out) {
  assert(!in_flight_);
  if (input_->empty()) return false;
  current_ = input_->Pop();
  in_flight_ = true;
  ++tuples_in_;
  const double jitter =
      config_.cost_jitter > 0
          ? rng_.Uniform(1.0 - config_.cost_jitter, 1.0 + config_.cost_jitter)
          : 1.0;
  current_cost_ =
      static_cast<SimDuration>(static_cast<double>(config_.cost) * jitter) +
      config_.per_tuple_overhead;
  cost_out = current_cost_;
  return true;
}

SimDuration PhysicalOp::Finish(SimTime now) {
  assert(in_flight_);
  in_flight_ = false;
  busy_ns_ += current_cost_;

  if (config_.role == OperatorRole::kIngress) current_.ingested = now;

  // Run the fused logic chain.
  scratch_in_.clear();
  scratch_in_.push_back(current_);
  for (const auto& logic : logic_chain_) {
    scratch_out_.clear();
    for (const Tuple& t : scratch_in_) logic->Process(t, scratch_out_);
    scratch_in_.swap(scratch_out_);
  }

  if (egress_ != nullptr) {
    // Egress delivers to the user: record latency per produced result.
    for (const Tuple& t : scratch_in_) {
      egress_->Record(now - t.ingested, now - t.produced);
    }
    tuples_out_ += scratch_in_.size();
    scratch_in_.clear();
  }

  // Stage outputs for emission: each result goes to every downstream edge
  // (streams are multicast to all consumers).
  for (const Tuple& t : scratch_in_) {
    ++tuples_out_;
    RouteOutput(t);
  }
  scratch_in_.clear();

  if (config_.block_probability > 0 && rng_.Chance(config_.block_probability)) {
    return static_cast<SimDuration>(
        rng_.Uniform(0.0, static_cast<double>(config_.block_max)));
  }
  return 0;
}

void PhysicalOp::RouteOutput(const Tuple& t) {
  for (std::size_t e = 0; e < edges_.size(); ++e) {
    const std::size_t replica = edges_[e].PickReplica(t);
    staged_.push_back({e, replica, t});
  }
}

bool PhysicalOp::TryEmit() {
  blocked_queue_ = nullptr;
  while (staged_pos_ < staged_.size()) {
    const Staged& s = staged_[staged_pos_];
    PhysicalEdge& edge = edges_[s.edge];
    TupleQueue* dest = edge.destinations[s.replica];
    if (edge.remote[s.replica]) {
      // Remote hop: delivered after the network delay; Kafka-like transport
      // is unbounded, so no backpressure on the sender.
      assert(remote_push_);
      remote_push_(dest, s.tuple, config_.network_delay);
    } else {
      if (dest->full()) {
        blocked_queue_ = dest;
        return false;
      }
      dest->Push(s.tuple);
    }
    ++staged_pos_;
  }
  staged_.clear();
  staged_pos_ = 0;
  return true;
}

void PhysicalOp::EmitAllUnbounded() {
  while (staged_pos_ < staged_.size()) {
    const Staged& s = staged_[staged_pos_];
    PhysicalEdge& edge = edges_[s.edge];
    TupleQueue* dest = edge.destinations[s.replica];
    if (edge.remote[s.replica]) {
      assert(remote_push_);
      remote_push_(dest, s.tuple, config_.network_delay);
    } else {
      dest->Push(s.tuple);
    }
    ++staged_pos_;
  }
  staged_.clear();
  staged_pos_ = 0;
}

double PhysicalOp::MeasuredCostNs() const {
  if (tuples_in_ == 0) return 0.0;
  return static_cast<double>(busy_ns_) / static_cast<double>(tuples_in_);
}

double PhysicalOp::MeasuredSelectivity() const {
  if (tuples_in_ == 0) return 0.0;
  return static_cast<double>(tuples_out_) / static_cast<double>(tuples_in_);
}

void PhysicalOp::ResetMeasurements() {
  // Counters (tuples_in/out, busy_ns) stay cumulative: the metric scraper
  // and the harness both difference them over windows. Only the egress
  // latency reservoirs are cleared (warmup trim).
  if (egress_ != nullptr) egress_->Reset();
}

}  // namespace lachesis::spe
