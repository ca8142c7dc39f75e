// Native SPE executor: real OS threads, one per physical operator.
//
// This is the runtime the paper actually schedules — operator threads a
// kernel runs under CFS, connected by lock-free bounded SPSC rings
// (native_queue.h) with rate-controlled source threads feeding the ingress
// channels. It reuses the sim SPE's logical-query vocabulary (logical.h:
// LogicalQuery/OperatorLogic/Tuple) so the same topology deploys on either
// backend, and it exposes the same raw-metric registry surface
// (ForEachRawMetric over spe::RawMetric) so the existing driver/metric
// pipeline scrapes it live with zero control-plane changes.
//
// Sim-vs-native operator surface (contract in docs/SPE_RUNTIME.md):
//  * one replica per logical operator (parallelism hints are ignored);
//  * each operator has at most one upstream operator, so every ring stays
//    single-producer/single-consumer (fan-out is allowed, fan-in is
//    rejected at AddQuery);
//  * queues are always bounded (Flink-style backpressure); the sim's
//    unbounded Storm/Liebre queues are approximated by large rings;
//  * per-tuple CPU cost is emulated by spinning on the monotonic clock for
//    the operator's configured cost (with the same jitter model).
//
// A source sleeps to each tuple's due time on an absolute CLOCK_MONOTONIC
// deadline, with 1 ns of timer slack when its period exceeds the default
// slack, so its wake-ups land when the tuple falls due.
#ifndef LACHESIS_SPE_NATIVE_RUNTIME_H_
#define LACHESIS_SPE_NATIVE_RUNTIME_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/sim_time.h"
#include "spe/flavor.h"
#include "spe/logical.h"
#include "spe/native_queue.h"
#include "spe/tuple.h"

namespace lachesis::spe {

// Per-query deployment knobs.
struct NativeDeployOptions {
  // Offered load of this query's source thread, tuples/second.
  double source_rate_tps = 1000.0;
  // Inter-operator ring capacity (rounded up to a power of two).
  std::size_t queue_capacity = 1024;
  // Ingress channel capacity ("Kafka lag" buffer between source and spout).
  std::size_t source_channel_capacity = 8192;
  // Source stops after this many tuples (0 = until Stop()).
  std::uint64_t max_tuples = 0;
  std::uint64_t seed = 42;
};

struct NativeRuntimeOptions {
  std::string name = "native-spe";
  // Pin every runtime thread round-robin over these CPUs (for the
  // sim-vs-native differential, which compares against a 1-core sim).
  // Empty = leave placement to the kernel.
  std::vector<int> pin_cpus;
};

// One physical operator executed by a dedicated OS thread. Counters are
// relaxed atomics: written by the operator thread, scraped concurrently by
// the driver's Poll.
class NativeOperator {
 public:
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] OperatorRole role() const { return role_; }
  [[nodiscard]] int query_index() const { return query_index_; }
  [[nodiscard]] int logical_index() const { return logical_index_; }

  [[nodiscard]] std::uint64_t tuples_in() const {
    return tuples_in_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t tuples_out() const {
    return tuples_out_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t busy_ns() const {
    return busy_ns_.load(std::memory_order_relaxed);
  }
  // Kernel thread id of the operator thread; -1 before Start().
  [[nodiscard]] long tid() const {
    return tid_.load(std::memory_order_acquire);
  }
  [[nodiscard]] const NativeSpscQueue<Tuple>& input() const { return *input_; }

  // Average measured per-tuple wall cost, ns (0 before the first tuple).
  [[nodiscard]] double MeasuredCostNs() const {
    const std::uint64_t n = tuples_in();
    return n == 0 ? 0.0 : static_cast<double>(busy_ns()) / static_cast<double>(n);
  }
  [[nodiscard]] double MeasuredSelectivity() const {
    const std::uint64_t n = tuples_in();
    return n == 0 ? 1.0 : static_cast<double>(tuples_out()) / static_cast<double>(n);
  }

 private:
  friend class NativeRuntime;

  std::string name_;
  OperatorRole role_ = OperatorRole::kTransform;
  SimDuration cost_ = 0;
  double cost_jitter_ = 0.0;
  std::uint64_t jitter_state_ = 0;
  std::unique_ptr<OperatorLogic> logic_;
  NativeSpscQueue<Tuple>* input_ = nullptr;
  std::vector<NativeSpscQueue<Tuple>*> outputs_;
  int query_index_ = 0;
  int logical_index_ = 0;

  std::atomic<std::uint64_t> tuples_in_{0};
  std::atomic<std::uint64_t> tuples_out_{0};
  std::atomic<std::uint64_t> busy_ns_{0};
  std::atomic<long> tid_{-1};
};

// Rate-controlled producer thread feeding one ingress channel.
class NativeSource {
 public:
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] int query_index() const { return query_index_; }
  [[nodiscard]] std::uint64_t emitted() const {
    return emitted_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] long tid() const {
    return tid_.load(std::memory_order_acquire);
  }
  // Timer slack the source thread sleeps with, ns; -1 before Start() and
  // off Linux.
  [[nodiscard]] long timer_slack_ns() const {
    return timer_slack_ns_.load(std::memory_order_relaxed);
  }

 private:
  friend class NativeRuntime;

  std::string name_;
  double rate_tps_ = 0.0;
  std::uint64_t max_tuples_ = 0;
  std::uint64_t seed_ = 0;
  NativeSpscQueue<Tuple>* channel_ = nullptr;
  int query_index_ = 0;
  std::atomic<std::uint64_t> emitted_{0};
  std::atomic<long> tid_{-1};
  std::atomic<long> timer_slack_ns_{-1};
};

class NativeRuntime {
 public:
  explicit NativeRuntime(NativeRuntimeOptions options = {});
  ~NativeRuntime();

  NativeRuntime(const NativeRuntime&) = delete;
  NativeRuntime& operator=(const NativeRuntime&) = delete;

  // Deploys a query (before Start()). Throws std::invalid_argument when the
  // topology falls outside the native operator surface: empty DAG, fan-in
  // (an operator with >1 upstream), a non-ingress operator with no
  // upstream, or an ingress with an upstream.
  int AddQuery(const LogicalQuery& query, const NativeDeployOptions& options);

  // Spawns one thread per operator plus one per source; returns once every
  // thread has registered its kernel tid (so callers can hand the tids to
  // the control plane immediately).
  void Start();

  // Stops the executor and joins every thread. drain=true closes only the
  // source channels and lets buffered tuples flow through (delivery tests);
  // drain=false additionally closes every ring so threads exit after at
  // most one more tuple (prompt shutdown under backlog).
  void Stop(bool drain = true);

  [[nodiscard]] bool started() const { return started_; }
  [[nodiscard]] const std::string& name() const { return options_.name; }

  [[nodiscard]] std::size_t query_count() const { return queries_.size(); }
  [[nodiscard]] const LogicalQuery& query(std::size_t index) const {
    return queries_[index].logical;
  }
  [[nodiscard]] const std::string& query_name(std::size_t index) const {
    return queries_[index].logical.name;
  }

  [[nodiscard]] const std::vector<std::unique_ptr<NativeOperator>>& ops() const {
    return ops_;
  }
  [[nodiscard]] const std::vector<std::unique_ptr<NativeSource>>& sources() const {
    return sources_;
  }

  // Sum of ingress tuples_in / egress tuples_out for one query.
  [[nodiscard]] std::uint64_t TotalIngested(std::size_t query_index) const;
  [[nodiscard]] std::uint64_t TotalEmitted(std::size_t query_index) const;
  [[nodiscard]] std::uint64_t SourceEmitted(std::size_t query_index) const;

  // Raw metrics this runtime's registry exposes (rich Liebre-style
  // instrumentation: we own the engine).
  static const std::set<RawMetric>& ExposedMetrics();

  // Live registry iteration, mirroring SpeInstance::ForEachRawMetric. Safe
  // to call from any thread while operators run.
  using RawMetricFn =
      std::function<void(const NativeOperator&, RawMetric, double)>;
  void ForEachRawMetric(const RawMetricFn& fn) const;

  // Nanoseconds since the runtime epoch (steady clock); tuple timestamps
  // use this domain.
  [[nodiscard]] std::uint64_t NowNs() const;

  // Number of pin failures observed by runtime threads (0 when pinning is
  // disabled or fully succeeded).
  [[nodiscard]] int pin_failures() const {
    return pin_failures_.load(std::memory_order_relaxed);
  }

 private:
  struct DeployedNativeQuery {
    LogicalQuery logical;
    NativeDeployOptions options;
    std::vector<int> op_indices;  // into ops_, by logical index
  };

  void OperatorThreadBody(NativeOperator& op, int pin_cpu);
  void SourceThreadBody(NativeSource& source, int pin_cpu);
  void RegisterCurrentThread(const std::string& label, int pin_cpu,
                             std::atomic<long>& tid_out);
  int NextPinCpu();

  NativeRuntimeOptions options_;
  std::chrono::steady_clock::time_point epoch_;
  std::vector<DeployedNativeQuery> queries_;
  std::vector<std::unique_ptr<NativeSpscQueue<Tuple>>> rings_;
  std::vector<std::unique_ptr<NativeOperator>> ops_;
  std::vector<std::unique_ptr<NativeSource>> sources_;
  std::vector<std::thread> threads_;
  std::atomic<std::uint32_t> registered_{0};
  std::atomic<bool> halt_{false};
  std::atomic<bool> source_stop_{false};
  std::atomic<int> pin_failures_{0};
  int next_pin_ = 0;
  bool started_ = false;
  bool stopped_ = false;
};

}  // namespace lachesis::spe

#endif  // LACHESIS_SPE_NATIVE_RUNTIME_H_
