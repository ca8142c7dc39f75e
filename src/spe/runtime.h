// SPE runtime: deployment of logical queries to physical operators and
// their execution by per-operator simulated threads.
//
// This models the mainstream one-at-a-time SPE runtime the paper targets:
// during deployment the logical DAG is transformed into a physical DAG
// (operator fusion of linear transform chains, fission into replicas), and
// each physical operator runs on a dedicated kernel thread scheduled by the
// OS (paper §2). The runtime exposes the "public API" surface an SPE driver
// reads: the entity graph (logical ops <-> physical ops <-> threads) and raw
// metrics per the engine flavor.
#ifndef LACHESIS_SPE_RUNTIME_H_
#define LACHESIS_SPE_RUNTIME_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/ids.h"
#include "sim/machine.h"
#include "spe/flavor.h"
#include "spe/logical.h"
#include "spe/physical.h"
#include "spe/queue.h"

namespace lachesis::spe {

struct DeployOptions {
  // Multiplies every logical operator's parallelism (Fig 17 fission sweep).
  int parallelism = 1;
  // Fuse linear transform chains (Flink chaining). Effective only when the
  // flavor supports it.
  bool chaining = false;
  // Placement of replica r of any operator; defaults to r % #machines.
  std::function<int(int logical_index, int replica)> node_of;
  // Cgroup for operator threads, per machine index; defaults to the root.
  std::vector<CgroupId> cgroups;
  // When false, physical operators are left passive for a user-level
  // scheduler (src/ulss/) to drive.
  bool create_threads = true;
  SimDuration network_delay = Micros(500);
  std::uint64_t seed = 42;
  // The latency reservoirs each egress keeps (EgressMeasurements); an
  // unkept one stays empty and grows no storage. perfbench's sim-scale reads
  // this default's end-to-end reservoir and sets no option of its own, so
  // it cannot opt in: the default must stay what it reads.
  LatencyReservoirs reservoirs = LatencyReservoirs::kEndToEnd;
};

// One deployed physical operator, with everything a driver may expose.
struct DeployedOp {
  OperatorId id;  // unique within the SpeInstance
  PhysicalOp* op = nullptr;
  ThreadId thread;  // valid iff threads were created
  bool has_thread = false;
  int machine_index = 0;
  std::vector<int> logical_indices;
  int replica = 0;
};

class DeployedQuery {
 public:
  QueryId id;
  std::string name;
  LogicalQuery logical;
  std::vector<DeployedOp> ops;

  // Source channels feeding the ingress replicas (Kafka-like, unbounded).
  [[nodiscard]] const std::vector<TupleQueue*>& source_channels() const {
    return source_channels_;
  }
  // Sum of ingress input counts (the paper's throughput numerator).
  [[nodiscard]] std::uint64_t TotalIngested() const;
  // All egress measurement blocks.
  [[nodiscard]] std::vector<EgressMeasurements*> Egresses();
  void ResetMeasurements();

 private:
  friend class SpeInstance;
  std::vector<std::unique_ptr<PhysicalOp>> storage_;
  std::vector<std::unique_ptr<TupleQueue>> queues_;
  std::vector<TupleQueue*> source_channels_;
};

// An engine instance of a given flavor spanning one or more machines.
class SpeInstance {
 public:
  SpeInstance(SpeFlavor flavor, std::vector<sim::Machine*> machines,
              std::string name);

  // Deploys a logical query; the instance owns the result.
  DeployedQuery& Deploy(const LogicalQuery& query, const DeployOptions& options);

  [[nodiscard]] const SpeFlavor& flavor() const { return flavor_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const std::vector<sim::Machine*>& machines() const {
    return machines_;
  }
  [[nodiscard]] std::vector<std::unique_ptr<DeployedQuery>>& queries() {
    return queries_;
  }

  // Raw-metric iteration for the metric scraper: invokes `fn` for every
  // (query, op, metric, value) the flavor's public API exposes. When
  // `machine_index` is non-negative only operators placed on that machine
  // are visited -- fleet-mode scrapers use this so a shard's scraper never
  // touches operator or machine state owned by another shard's thread.
  using RawMetricFn = std::function<void(const DeployedQuery&, const DeployedOp&,
                                         RawMetric, double)>;
  void ForEachRawMetric(const RawMetricFn& fn, int machine_index = -1) const;

 private:
  SpeFlavor flavor_;
  std::vector<sim::Machine*> machines_;
  std::string name_;
  std::vector<std::unique_ptr<DeployedQuery>> queries_;
  std::uint64_t next_op_id_ = 0;
};

// Thread body executing one physical operator (one-thread-per-operator
// model): fetch -> compute cost -> apply & stage -> emit (with backpressure
// waits) -> optionally block for simulated I/O.
class OperatorThreadBody final : public sim::ThreadBody {
 public:
  explicit OperatorThreadBody(PhysicalOp& op) : op_(&op) {}
  sim::Action Next(sim::Machine& machine) override;

 private:
  enum class Phase { kFetch, kFinish, kEmit };
  PhysicalOp* op_;
  Phase phase_ = Phase::kFetch;
  SimDuration pending_block_ = 0;
};

}  // namespace lachesis::spe

#endif  // LACHESIS_SPE_RUNTIME_H_
