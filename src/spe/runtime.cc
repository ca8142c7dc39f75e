#include "spe/runtime.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <utility>

#include "sim/fleet.h"

namespace lachesis::spe {

std::uint64_t DeployedQuery::TotalIngested() const {
  std::uint64_t total = 0;
  for (const DeployedOp& d : ops) {
    bool is_ingress = false;
    for (const int l : d.logical_indices) {
      if (logical.operators[static_cast<std::size_t>(l)].role ==
          OperatorRole::kIngress) {
        is_ingress = true;
      }
    }
    if (is_ingress) total += d.op->tuples_in();
  }
  return total;
}

std::vector<EgressMeasurements*> DeployedQuery::Egresses() {
  std::vector<EgressMeasurements*> result;
  for (DeployedOp& d : ops) {
    if (EgressMeasurements* egress = d.op->egress()) result.push_back(egress);
  }
  return result;
}

void DeployedQuery::ResetMeasurements() {
  for (DeployedOp& d : ops) d.op->ResetMeasurements();
}

SpeInstance::SpeInstance(SpeFlavor flavor, std::vector<sim::Machine*> machines,
                         std::string name)
    : flavor_(std::move(flavor)),
      machines_(std::move(machines)),
      name_(std::move(name)) {
  if (machines_.empty()) {
    throw std::invalid_argument("SpeInstance needs at least one machine");
  }
}

namespace {

// Validates the DAG shape; throws std::invalid_argument on errors.
void ValidateQuery(const LogicalQuery& q) {
  const int n = static_cast<int>(q.operators.size());
  if (n == 0) throw std::invalid_argument(q.name + ": empty query");
  for (const auto& e : q.edges) {
    if (e.from < 0 || e.from >= n || e.to < 0 || e.to >= n) {
      throw std::invalid_argument(q.name + ": edge out of range");
    }
  }
  for (int i = 0; i < n; ++i) {
    const auto& op = q.operators[static_cast<std::size_t>(i)];
    if (op.role == OperatorRole::kIngress && !q.Upstream(i).empty()) {
      throw std::invalid_argument(q.name + ": ingress " + op.name +
                                  " has upstream operators");
    }
    if (op.role == OperatorRole::kEgress && !q.Downstream(i).empty()) {
      throw std::invalid_argument(q.name + ": egress " + op.name +
                                  " has downstream operators");
    }
    if (op.parallelism < 1) {
      throw std::invalid_argument(q.name + ": bad parallelism for " + op.name);
    }
    if (!op.make_logic) {
      throw std::invalid_argument(q.name + ": missing logic for " + op.name);
    }
  }
  // Kahn topological check for acyclicity.
  std::vector<int> indegree(static_cast<std::size_t>(n), 0);
  for (const auto& e : q.edges) ++indegree[static_cast<std::size_t>(e.to)];
  std::vector<int> frontier;
  for (int i = 0; i < n; ++i) {
    if (indegree[static_cast<std::size_t>(i)] == 0) frontier.push_back(i);
  }
  int visited = 0;
  while (!frontier.empty()) {
    const int u = frontier.back();
    frontier.pop_back();
    ++visited;
    for (const int v : q.Downstream(u)) {
      if (--indegree[static_cast<std::size_t>(v)] == 0) frontier.push_back(v);
    }
  }
  if (visited != n) throw std::invalid_argument(q.name + ": cycle in DAG");
}

}  // namespace

DeployedQuery& SpeInstance::Deploy(const LogicalQuery& query,
                                   const DeployOptions& options) {
  ValidateQuery(query);
  auto deployed = std::make_unique<DeployedQuery>();
  deployed->id = QueryId(queries_.size());
  deployed->name = query.name;
  deployed->logical = query;
  const LogicalQuery& q = deployed->logical;
  const int n = static_cast<int>(q.operators.size());

  // --- fusion: group logical ops into chains --------------------------------
  // A transform v is appended to the chain of u when chaining is on, u->v is
  // the only edge out of u and into v, parallelism matches, and the edge is
  // not a key-partitioned exchange with parallelism > 1 (which requires a
  // real shuffle).
  const bool chaining = options.chaining && flavor_.supports_chaining;
  std::vector<int> chain_of(static_cast<std::size_t>(n), -1);
  std::vector<std::vector<int>> chains;
  for (int i = 0; i < n; ++i) {
    if (chain_of[static_cast<std::size_t>(i)] >= 0) continue;
    // Start a new chain at i only if i is not fusable into its upstream
    // (handled when the upstream is visited; operators are indexed in
    // insertion order, which Add() makes upstream-first for pipelines).
    std::vector<int> chain{i};
    chain_of[static_cast<std::size_t>(i)] = static_cast<int>(chains.size());
    if (chaining) {
      int tail = i;
      for (;;) {
        const auto down = q.Downstream(tail);
        if (down.size() != 1) break;
        const int next = down[0];
        if (chain_of[static_cast<std::size_t>(next)] >= 0) break;
        const auto& tail_op = q.operators[static_cast<std::size_t>(tail)];
        const auto& next_op = q.operators[static_cast<std::size_t>(next)];
        // Only transform->transform edges fuse: ingress keeps its own thread
        // (flow control, source channel) and egress keeps its measurement
        // point, matching how the paper's physical DAGs are drawn (Fig 2).
        if (next_op.role != OperatorRole::kTransform ||
            tail_op.role != OperatorRole::kTransform) {
          break;
        }
        if (q.Upstream(next).size() != 1) break;
        if (next_op.parallelism != tail_op.parallelism) break;
        Partitioning part = Partitioning::kShuffle;
        for (const auto& e : q.edges) {
          if (e.from == tail && e.to == next) part = e.partitioning;
        }
        if (part == Partitioning::kKeyBy &&
            next_op.parallelism * options.parallelism > 1) {
          break;
        }
        chain.push_back(next);
        chain_of[static_cast<std::size_t>(next)] = static_cast<int>(chains.size());
        tail = next;
      }
    }
    chains.push_back(std::move(chain));
  }

  // --- instantiate physical operators ---------------------------------------
  struct ChainDeployment {
    std::vector<std::size_t> op_indices;  // indices into deployed->ops
  };
  std::vector<ChainDeployment> chain_deployments(chains.size());

  const auto node_of = [&](int logical, int replica) {
    if (options.node_of) return options.node_of(logical, replica);
    return replica % static_cast<int>(machines_.size());
  };

  for (std::size_t c = 0; c < chains.size(); ++c) {
    const std::vector<int>& chain = chains[c];
    const auto& head_op = q.operators[static_cast<std::size_t>(chain.front())];
    const int replicas = head_op.parallelism * options.parallelism;

    std::string chain_name;
    for (const int l : chain) {
      if (!chain_name.empty()) chain_name += "+";
      chain_name += q.operators[static_cast<std::size_t>(l)].name;
    }

    bool chain_is_ingress = false;
    bool chain_is_egress = false;
    SimDuration total_cost = 0;
    double jitter = 0;
    double block_probability = 0;
    SimDuration block_max = 0;
    for (const int l : chain) {
      const auto& op = q.operators[static_cast<std::size_t>(l)];
      chain_is_ingress |= op.role == OperatorRole::kIngress;
      chain_is_egress |= op.role == OperatorRole::kEgress;
      total_cost += op.cost;
      jitter = std::max(jitter, op.cost_jitter);
      if (op.block_probability > block_probability) {
        block_probability = op.block_probability;
        block_max = op.block_max;
      }
    }

    for (int r = 0; r < replicas; ++r) {
      const int machine_index = node_of(chain.front(), r);
      assert(machine_index >= 0 &&
             machine_index < static_cast<int>(machines_.size()));
      sim::Machine& machine = *machines_[static_cast<std::size_t>(machine_index)];

      // Ingress chains read from an unbounded Kafka-like source channel;
      // internal queues follow the flavor's capacity.
      const std::size_t capacity =
          chain_is_ingress ? 0 : flavor_.queue_capacity;
      deployed->queues_.push_back(
          std::make_unique<TupleQueue>(machine, capacity));
      TupleQueue* input = deployed->queues_.back().get();
      if (chain_is_ingress) deployed->source_channels_.push_back(input);

      PhysicalOp::Config config;
      config.name = name_ + "." + q.name + "." + chain_name + "." +
                    std::to_string(r);
      config.query = deployed->id;
      config.logical_indices = chain;
      config.replica = r;
      config.role = chain_is_ingress ? OperatorRole::kIngress
                    : chain_is_egress ? OperatorRole::kEgress
                                      : OperatorRole::kTransform;
      config.cost = total_cost;
      config.cost_jitter = jitter;
      config.block_probability = block_probability;
      config.block_max = block_max;
      config.per_tuple_overhead = flavor_.per_tuple_overhead;
      config.network_delay = options.network_delay;
      config.seed = options.seed + 7919 * next_op_id_ + 13;
      config.reservoirs = options.reservoirs;

      std::vector<std::unique_ptr<OperatorLogic>> logic;
      logic.reserve(chain.size());
      for (const int l : chain) {
        logic.push_back(q.operators[static_cast<std::size_t>(l)].make_logic());
      }
      deployed->storage_.push_back(
          std::make_unique<PhysicalOp>(config, input, std::move(logic)));
      PhysicalOp* op = deployed->storage_.back().get();
      op->set_remote_push([&machine](TupleQueue* dest, const Tuple& t,
                                     SimDuration delay) {
        sim::Simulator& src = machine.simulator();
        sim::Simulator& dst = dest->machine().simulator();
        if (&src == &dst || src.fleet() == nullptr) {
          src.ScheduleAfter(delay, [dest, t] { dest->Push(t); });
        } else {
          // Fleet mode, destination on another shard: hand the tuple to the
          // fleet mailbox so it is merged deterministically at the next
          // barrier instead of mutating a queue another thread owns.
          src.fleet()->PostCross(src.shard_index(), dst.shard_index(),
                                 src.now() + delay,
                                 [dest, t] { dest->Push(t); });
        }
      });

      DeployedOp d;
      d.id = OperatorId(next_op_id_++);
      d.op = op;
      d.machine_index = machine_index;
      d.logical_indices = chain;
      d.replica = r;
      chain_deployments[c].op_indices.push_back(deployed->ops.size());
      deployed->ops.push_back(std::move(d));
    }
  }

  // --- wire edges between chains ---------------------------------------------
  for (const auto& e : q.edges) {
    const int from_chain = chain_of[static_cast<std::size_t>(e.from)];
    const int to_chain = chain_of[static_cast<std::size_t>(e.to)];
    if (from_chain == to_chain) continue;  // fused away
    // Only edges leaving the chain tail materialize; fusion guarantees the
    // tail is the only op in the chain with external downstream edges.
    const auto& to_ops = chain_deployments[static_cast<std::size_t>(to_chain)];
    for (const std::size_t from_idx :
         chain_deployments[static_cast<std::size_t>(from_chain)].op_indices) {
      DeployedOp& from_op = deployed->ops[from_idx];
      PhysicalEdge edge;
      edge.partitioning = e.partitioning;
      for (const std::size_t to_idx : to_ops.op_indices) {
        const DeployedOp& to_op = deployed->ops[to_idx];
        edge.destinations.push_back(&to_op.op->input());
        edge.remote.push_back(to_op.machine_index != from_op.machine_index);
      }
      from_op.op->AddEdge(std::move(edge));
    }
  }

  // --- cross-node serialization costs -------------------------------------------
  // Tuples leaving the node pay serialization + network-stack CPU on the
  // sender. Charged per input tuple, scaled by the fraction of destinations
  // that are remote.
  {
    constexpr SimDuration kSerializationCost = Micros(30);
    for (const auto& e : q.edges) {
      const int from_chain = chain_of[static_cast<std::size_t>(e.from)];
      const int to_chain = chain_of[static_cast<std::size_t>(e.to)];
      if (from_chain == to_chain) continue;
      for (const std::size_t from_idx :
           chain_deployments[static_cast<std::size_t>(from_chain)].op_indices) {
        DeployedOp& from_op = deployed->ops[from_idx];
        int remote = 0;
        int total = 0;
        for (const std::size_t to_idx :
             chain_deployments[static_cast<std::size_t>(to_chain)].op_indices) {
          ++total;
          remote += deployed->ops[to_idx].machine_index != from_op.machine_index;
        }
        if (total > 0 && remote > 0) {
          from_op.op->AddSerializationOverhead(
              kSerializationCost * remote / total);
        }
      }
    }
  }

  // --- ingress flow control (flavor's max.spout.pending) ------------------------
  if (flavor_.max_pending > 0) {
    // Sum of internal (non-source-channel) queue sizes of this query. The
    // queues are owned by the DeployedQuery, as is the ingress reading them.
    // Each ingress only observes queues living on its own simulator: in
    // fleet mode an ingress polling a queue another shard's worker is
    // mutating would race, and the remote backlog is invisible to a real
    // spout anyway (acks cross the network with the tuples).
    for (DeployedOp& d : deployed->ops) {
      if (d.op->config().role != OperatorRole::kIngress) continue;
      const sim::Simulator* home =
          &machines_[static_cast<std::size_t>(d.machine_index)]->simulator();
      std::vector<const TupleQueue*> internal_queues;
      for (const DeployedOp& other : deployed->ops) {
        if (other.op->config().role == OperatorRole::kIngress) continue;
        if (&other.op->input().machine().simulator() != home) continue;
        internal_queues.push_back(&other.op->input());
      }
      d.op->set_flow_control(std::move(internal_queues), flavor_.max_pending);
    }
  }

  // --- spawn threads ------------------------------------------------------------
  if (options.create_threads) {
    for (DeployedOp& d : deployed->ops) {
      sim::Machine& machine =
          *machines_[static_cast<std::size_t>(d.machine_index)];
      CgroupId cgroup = machine.root_cgroup();
      if (static_cast<std::size_t>(d.machine_index) < options.cgroups.size()) {
        cgroup = options.cgroups[static_cast<std::size_t>(d.machine_index)];
      }
      d.thread = machine.CreateThread(
          d.op->config().name, std::make_unique<OperatorThreadBody>(*d.op),
          cgroup);
      d.has_thread = true;
    }
  }

  queries_.push_back(std::move(deployed));
  return *queries_.back();
}

void SpeInstance::ForEachRawMetric(const RawMetricFn& fn,
                                   int machine_index) const {
  for (const auto& query : queries_) {
    for (const DeployedOp& d : query->ops) {
      // Filter before touching the operator: in fleet mode ops on other
      // machines belong to other shards' threads mid-epoch.
      if (machine_index >= 0 && d.machine_index != machine_index) continue;
      const PhysicalOp& op = *d.op;
      const bool is_ingress = op.config().role == OperatorRole::kIngress;
      const sim::Machine& machine =
          *machines_[static_cast<std::size_t>(d.machine_index)];
      for (const RawMetric m : flavor_.exposed_metrics) {
        double value = 0;
        switch (m) {
          case RawMetric::kTuplesIn:
            value = static_cast<double>(op.tuples_in());
            break;
          case RawMetric::kTuplesOut:
            value = static_cast<double>(op.tuples_out());
            break;
          case RawMetric::kQueueSize:
            // For ingress operators the input is the external source channel
            // (Kafka lag). Storm-style spouts expose their PENDING count,
            // which flow control bounds at max_pending; report the same so
            // QS sees backlogged spouts without the unbounded lag swamping
            // the normalization.
            if (is_ingress) {
              value = static_cast<double>(
                  flavor_.max_pending > 0
                      ? std::min(op.input().size(), flavor_.max_pending)
                      : op.input().size());
            } else {
              value = static_cast<double>(op.input().size());
            }
            break;
          case RawMetric::kBufferUsage:
            value = (is_ingress || !op.input().bounded())
                        ? 0.0
                        : static_cast<double>(op.input().size()) /
                              static_cast<double>(op.input().capacity());
            break;
          case RawMetric::kBufferCapacity:
            value = static_cast<double>(op.input().capacity());
            break;
          case RawMetric::kAvgExecLatencyUs:
            value = op.MeasuredCostNs() / 1000.0;
            break;
          case RawMetric::kBusyTimeNs:
            value = static_cast<double>(op.busy_ns());
            break;
          case RawMetric::kCost:
            value = op.MeasuredCostNs();
            break;
          case RawMetric::kSelectivity:
            value = op.MeasuredSelectivity();
            break;
          case RawMetric::kHeadTupleAgeNs:
            value = static_cast<double>(op.input().HeadAge(machine.now()));
            break;
          case RawMetric::kQueueHighWater:
            value = static_cast<double>(op.input().high_water());
            break;
        }
        fn(*query, d, m, value);
      }
    }
  }
}

namespace {
// How often a throttled ingress re-checks the pending count.
constexpr SimDuration kThrottlePollInterval = Millis(1);
}  // namespace

sim::Action OperatorThreadBody::Next(sim::Machine& machine) {
  for (;;) {
    switch (phase_) {
      case Phase::kFetch: {
        if (op_->Throttled()) {
          // Spout flow control: pause, then re-check the pending count.
          return sim::Action::Sleep(kThrottlePollInterval);
        }
        SimDuration cost = 0;
        if (!op_->Begin(cost)) {
          return sim::Action::Wait(op_->input().not_empty());
        }
        phase_ = Phase::kFinish;
        return sim::Action::Compute(cost);
      }
      case Phase::kFinish: {
        pending_block_ = op_->Finish(machine.now());
        phase_ = Phase::kEmit;
        continue;
      }
      case Phase::kEmit: {
        if (!op_->TryEmit()) {
          return sim::Action::Wait(op_->blocked_queue()->not_full());
        }
        phase_ = Phase::kFetch;
        if (pending_block_ > 0) {
          const SimDuration d = pending_block_;
          pending_block_ = 0;
          return sim::Action::Sleep(d);
        }
        continue;
      }
    }
  }
}

}  // namespace lachesis::spe
