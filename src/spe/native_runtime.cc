#include "spe/native_runtime.h"

#include <algorithm>
#include <stdexcept>

#ifdef __linux__
#include <pthread.h>
#include <sched.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

#include "spe/futex.h"

namespace lachesis::spe {

namespace {

inline std::uint64_t SplitMix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Burns CPU until `until`: the native stand-in for the sim's per-tuple cost
// model. The clock read is the work -- a vDSO call, no syscall.
inline void SpinUntil(std::chrono::steady_clock::time_point until) {
  while (std::chrono::steady_clock::now() < until) {
  }
}

}  // namespace

NativeRuntime::NativeRuntime(NativeRuntimeOptions options)
    : options_(std::move(options)), epoch_(std::chrono::steady_clock::now()) {}

NativeRuntime::~NativeRuntime() { Stop(/*drain=*/false); }

std::uint64_t NativeRuntime::NowNs() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

int NativeRuntime::NextPinCpu() {
  if (options_.pin_cpus.empty()) return -1;
  const int cpu = options_.pin_cpus[static_cast<std::size_t>(next_pin_) %
                                    options_.pin_cpus.size()];
  ++next_pin_;
  return cpu;
}

int NativeRuntime::AddQuery(const LogicalQuery& query,
                            const NativeDeployOptions& options) {
  if (started_) {
    throw std::invalid_argument("NativeRuntime: AddQuery after Start");
  }
  if (query.operators.empty()) {
    throw std::invalid_argument("NativeRuntime: empty query '" + query.name +
                                "'");
  }
  const int n = static_cast<int>(query.operators.size());
  for (const LogicalEdge& e : query.edges) {
    if (e.from < 0 || e.from >= n || e.to < 0 || e.to >= n) {
      throw std::invalid_argument("NativeRuntime: edge out of range in '" +
                                  query.name + "'");
    }
  }
  bool has_ingress = false;
  for (int i = 0; i < n; ++i) {
    const LogicalOperator& op = query.operators[static_cast<std::size_t>(i)];
    const std::size_t upstream = query.Upstream(i).size();
    if (op.role == OperatorRole::kIngress) {
      has_ingress = true;
      if (upstream != 0) {
        throw std::invalid_argument("NativeRuntime: ingress '" + op.name +
                                    "' has an upstream operator");
      }
    } else {
      if (upstream == 0) {
        throw std::invalid_argument("NativeRuntime: operator '" + op.name +
                                    "' has no upstream");
      }
      if (upstream > 1) {
        // Fan-in would make the input ring multi-producer; outside the
        // native operator surface (docs/SPE_RUNTIME.md).
        throw std::invalid_argument("NativeRuntime: operator '" + op.name +
                                    "' has fan-in (" +
                                    std::to_string(upstream) +
                                    " upstreams); native rings are SPSC");
      }
    }
  }
  if (!has_ingress) {
    throw std::invalid_argument("NativeRuntime: query '" + query.name +
                                "' has no ingress");
  }

  const int query_index = static_cast<int>(queries_.size());
  DeployedNativeQuery deployed;
  deployed.logical = query;
  deployed.options = options;

  // One input ring per operator: the ingress ring doubles as the source
  // channel (Kafka-lag buffer).
  for (int i = 0; i < n; ++i) {
    const LogicalOperator& lop = query.operators[static_cast<std::size_t>(i)];
    const std::size_t cap = lop.role == OperatorRole::kIngress
                                ? options.source_channel_capacity
                                : options.queue_capacity;
    rings_.push_back(std::make_unique<NativeSpscQueue<Tuple>>(cap));

    auto op = std::make_unique<NativeOperator>();
    op->name_ = lop.name;
    op->role_ = lop.role;
    op->cost_ = lop.cost;
    op->cost_jitter_ = lop.cost_jitter;
    op->jitter_state_ = options.seed ^ (0x5bd1e995ULL * (i + 1));
    op->logic_ = lop.make_logic ? lop.make_logic()
                                : std::make_unique<IdentityLogic>();
    op->input_ = rings_.back().get();
    op->query_index_ = query_index;
    op->logical_index_ = i;
    deployed.op_indices.push_back(static_cast<int>(ops_.size()));
    ops_.push_back(std::move(op));
  }
  // Wire fan-out: each output tuple is pushed to every downstream ring.
  for (const LogicalEdge& e : query.edges) {
    NativeOperator& from =
        *ops_[static_cast<std::size_t>(
            deployed.op_indices[static_cast<std::size_t>(e.from)])];
    NativeOperator& to =
        *ops_[static_cast<std::size_t>(
            deployed.op_indices[static_cast<std::size_t>(e.to)])];
    from.outputs_.push_back(to.input_);
  }
  // One rate-controlled source per ingress.
  for (int i = 0; i < n; ++i) {
    const LogicalOperator& lop = query.operators[static_cast<std::size_t>(i)];
    if (lop.role != OperatorRole::kIngress) continue;
    auto source = std::make_unique<NativeSource>();
    source->name_ = "src." + lop.name;
    source->rate_tps_ = options.source_rate_tps;
    source->max_tuples_ = options.max_tuples;
    source->seed_ = options.seed;
    source->channel_ =
        ops_[static_cast<std::size_t>(
                 deployed.op_indices[static_cast<std::size_t>(i)])]
            ->input_;
    source->query_index_ = query_index;
    sources_.push_back(std::move(source));
  }
  queries_.push_back(std::move(deployed));
  return query_index;
}

void NativeRuntime::Start() {
  if (started_) throw std::logic_error("NativeRuntime: Start called twice");
  if (ops_.empty()) throw std::logic_error("NativeRuntime: no queries");
  started_ = true;
  epoch_ = std::chrono::steady_clock::now();
  const std::size_t expected = ops_.size() + sources_.size();
  threads_.reserve(expected);
  for (auto& op : ops_) {
    const int cpu = NextPinCpu();
    threads_.emplace_back(
        [this, op = op.get(), cpu] { OperatorThreadBody(*op, cpu); });
  }
  for (auto& source : sources_) {
    const int cpu = NextPinCpu();
    threads_.emplace_back(
        [this, source = source.get(), cpu] { SourceThreadBody(*source, cpu); });
  }
  // Block until every thread registered its kernel tid, so callers can
  // hand the handles to the control plane immediately after Start().
  std::uint32_t r = registered_.load(std::memory_order_acquire);
  while (r < expected) {
    internal::FutexWait(registered_, r);
    r = registered_.load(std::memory_order_acquire);
  }
}

void NativeRuntime::Stop(bool drain) {
  if (!started_ || stopped_) return;
  stopped_ = true;
  source_stop_.store(true, std::memory_order_release);
  if (!drain) {
    halt_.store(true, std::memory_order_release);
    for (auto& ring : rings_) ring->Close();
  }
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }
}

void NativeRuntime::RegisterCurrentThread(const std::string& label,
                                          int pin_cpu,
                                          std::atomic<long>& tid_out) {
#ifdef __linux__
  // comm is limited to 15 chars + NUL.
  pthread_setname_np(pthread_self(), label.substr(0, 15).c_str());
  if (pin_cpu >= 0) {
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(static_cast<unsigned>(pin_cpu), &set);
    if (sched_setaffinity(0, sizeof(set), &set) != 0) {
      pin_failures_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  tid_out.store(static_cast<long>(syscall(SYS_gettid)),
                std::memory_order_release);
#else
  (void)label;
  if (pin_cpu >= 0) pin_failures_.fetch_add(1, std::memory_order_relaxed);
  tid_out.store(-1, std::memory_order_release);
#endif
  registered_.fetch_add(1, std::memory_order_release);
  internal::FutexWakeAll(registered_);
}

void NativeRuntime::OperatorThreadBody(NativeOperator& op, int pin_cpu) {
  RegisterCurrentThread(op.name_, pin_cpu, op.tid_);
  std::vector<Tuple> outputs;
  Tuple t;
  bool downstream_closed = false;
  while (!halt_.load(std::memory_order_acquire) && !downstream_closed &&
         op.input_->Pop(t)) {
    const std::uint64_t start = NowNs();
    if (op.role_ == OperatorRole::kIngress) {
      t.ingested = static_cast<SimTime>(start);
    }
    outputs.clear();
    op.logic_->Process(t, outputs);
    if (op.cost_ > 0) {
      std::uint64_t cost = static_cast<std::uint64_t>(op.cost_);
      if (op.cost_jitter_ > 0.0) {
        const double u = static_cast<double>(SplitMix64(op.jitter_state_) >> 11) *
                         (1.0 / 9007199254740992.0);  // [0,1)
        const double factor = 1.0 - op.cost_jitter_ + 2.0 * op.cost_jitter_ * u;
        cost = static_cast<std::uint64_t>(static_cast<double>(cost) * factor);
      }
      SpinUntil(std::chrono::steady_clock::now() +
                std::chrono::nanoseconds(cost));
    }
    const std::uint64_t end = NowNs();
    op.busy_ns_.fetch_add(end - start, std::memory_order_relaxed);
    op.tuples_in_.fetch_add(1, std::memory_order_relaxed);
    for (Tuple& out : outputs) {
      out.MergeContributor(t);
      for (NativeSpscQueue<Tuple>* ring : op.outputs_) {
        if (!ring->Push(out)) {  // downstream closed: prompt shutdown
          downstream_closed = true;
          break;
        }
      }
      if (downstream_closed) break;
      op.tuples_out_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  // Input closed and drained (or halting): cascade shutdown downstream.
  for (NativeSpscQueue<Tuple>* ring : op.outputs_) ring->Close();
}

void NativeRuntime::SourceThreadBody(NativeSource& source, int pin_cpu) {
  RegisterCurrentThread(source.name_, pin_cpu, source.tid_);
  const double rate = source.rate_tps_ > 0 ? source.rate_tps_ : 1.0;
  const auto period_ns = static_cast<std::uint64_t>(1e9 / rate);
  std::uint64_t next = NowNs();
  std::uint64_t seq = 0;
  while (!source_stop_.load(std::memory_order_acquire) &&
         !halt_.load(std::memory_order_acquire)) {
    if (source.max_tuples_ != 0 && seq >= source.max_tuples_) break;
    const std::uint64_t now = NowNs();
    if (now < next) {
      // Sleep in <=1 ms slices so Stop() is noticed promptly.
      const std::uint64_t ahead = next - now;
      std::this_thread::sleep_for(std::chrono::nanoseconds(
          std::min<std::uint64_t>(ahead, 1000000)));
      continue;
    }
    Tuple t;
    t.produced = static_cast<SimTime>(now);
    t.key = static_cast<std::int64_t>(seq);
    t.value = static_cast<double>(seq);
    if (!source.channel_->Push(std::move(t))) break;  // closed
    source.emitted_.fetch_add(1, std::memory_order_relaxed);
    ++seq;
    next += period_ns;
  }
  source.channel_->Close();
}

std::uint64_t NativeRuntime::TotalIngested(std::size_t query_index) const {
  std::uint64_t total = 0;
  for (const int op_index : queries_[query_index].op_indices) {
    const NativeOperator& op = *ops_[static_cast<std::size_t>(op_index)];
    if (op.role() == OperatorRole::kIngress) total += op.tuples_in();
  }
  return total;
}

std::uint64_t NativeRuntime::TotalEmitted(std::size_t query_index) const {
  std::uint64_t total = 0;
  for (const int op_index : queries_[query_index].op_indices) {
    const NativeOperator& op = *ops_[static_cast<std::size_t>(op_index)];
    if (op.role() == OperatorRole::kEgress) total += op.tuples_out();
  }
  return total;
}

std::uint64_t NativeRuntime::SourceEmitted(std::size_t query_index) const {
  std::uint64_t total = 0;
  for (const auto& source : sources_) {
    if (source->query_index() == static_cast<int>(query_index)) {
      total += source->emitted();
    }
  }
  return total;
}

const std::set<RawMetric>& NativeRuntime::ExposedMetrics() {
  static const std::set<RawMetric> kExposed = {
      RawMetric::kTuplesIn,        RawMetric::kTuplesOut,
      RawMetric::kQueueSize,       RawMetric::kBufferUsage,
      RawMetric::kBufferCapacity,  RawMetric::kAvgExecLatencyUs,
      RawMetric::kBusyTimeNs,      RawMetric::kCost,
      RawMetric::kSelectivity,     RawMetric::kQueueHighWater,
  };
  return kExposed;
}

void NativeRuntime::ForEachRawMetric(const RawMetricFn& fn) const {
  for (const auto& op_ptr : ops_) {
    const NativeOperator& op = *op_ptr;
    const NativeSpscQueue<Tuple>& input = *op.input_;
    for (const RawMetric m : ExposedMetrics()) {
      double value = 0;
      switch (m) {
        case RawMetric::kTuplesIn:
          value = static_cast<double>(op.tuples_in());
          break;
        case RawMetric::kTuplesOut:
          value = static_cast<double>(op.tuples_out());
          break;
        case RawMetric::kQueueSize:
          value = static_cast<double>(input.size());
          break;
        case RawMetric::kBufferUsage:
          value = static_cast<double>(input.size()) /
                  static_cast<double>(input.capacity());
          break;
        case RawMetric::kBufferCapacity:
          value = static_cast<double>(input.capacity());
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
        case RawMetric::kQueueHighWater:
          value = static_cast<double>(input.high_water());
          break;
        case RawMetric::kHeadTupleAgeNs:  // not exposed: head peeks would
          break;                          // race the consumer thread
      }
      fn(op, m, value);
    }
  }
}

}  // namespace lachesis::spe
