// Real-thread workloads: NativeRuntime operator threads scheduled by the
// lachesisd native-query control loop (queue-size policy, nice translator,
// LinuxOsAdapter) on the host kernel.
//
// native-fastpath: one zero-cost ingress->map->egress chain at 100k
//   tuples/s, unpinned, 1 s control period. Ring push/pop and park/wake
//   are nearly all of its CPU, so executor changes show here.
// native-contended: the paper's CPU-scarcity regime. Every runtime thread
//   is pinned to one CPU shared by a light chain (5/20/5 us per tuple at
//   5,000/s, filter passes even keys) and a heavy chain (5/200/5 us at
//   2,400/s): about 0.65 of the CPU in emulated cost, with a 100 ms
//   control period. CFS and Lachesis' renices set latency here, and CPU an
//   executor burns while waiting is taken from the operators.
//
// Load is open-loop: the runtime's source threads emit on a fixed schedule
// and stamp their sequence number in Tuple::key, so tuple k was due at
// emission(0) + k * period and latency is timed from that due time.
#include <pthread.h>
#include <sched.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <memory>
#include <span>
#include <thread>

#include "core/policies.h"
#include "core/runner.h"
#include "core/translators.h"
#include "osctl/cgroupfs.h"
#include "osctl/daemon_config.h"
#include "osctl/linux_os_adapter.h"
#include "osctl/native_executor.h"
#include "osctl/native_runtime_driver.h"
#include "osctl/nice.h"
#include "spe/native_runtime.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace lachesis;

// Fresh set-ups per pass; setup_s is their median.
constexpr int kSetups = 30;
constexpr int kWarmupSeconds = 1;
// The middle operator stamps every kHopSample-th key in traced passes.
constexpr std::int64_t kHopSample = 64;
// Egress tuples a latency sub-window should hold (p99 then has >= 10
// samples beyond it).
constexpr double kSubWindowSamples = 1000;

struct ChainSpec {
  const char* name;
  const char* mid_name;
  double rate_tps;
  int ingress_us;
  int mid_us;
  int egress_us;
  bool even_filter;
};

struct NativeSpec {
  std::vector<ChainSpec> chains;
  bool pin = false;
  SimDuration period = Seconds(1);
};

NativeSpec SpecFor(const std::string& workload) {
  if (workload == "native-fastpath") {
    return {{{"fast", "map", 100000.0, 0, 0, 0, false}}, false, Seconds(1)};
  }
  return {{{"light", "filter", 5000.0, 5, 20, 5, true},
           {"heavy", "map", 2400.0, 5, 200, 5, false}},
          true,
          Millis(100)};
}

// Tuples a chain's source emits in one pass, with margin: set-ups,
// warm-up, window and drain.
std::size_t TuplesPerPass(const ChainSpec& chain, const RunOptions& options) {
  return static_cast<std::size_t>(chain.rate_tps *
                                  (kWarmupSeconds + options.seconds + 5.0));
}

// The runtime's source spacing (integer nanoseconds, as it computes it).
std::int64_t SourcePeriodNs(double rate_tps) {
  return static_cast<std::int64_t>(1e9 / rate_tps);
}

struct Arrival {
  std::int64_t key;
  std::int64_t produced;
  std::int64_t ingested;
  std::int64_t egress;
};

// One chain's egress records for a whole pass. The buffer is allocated and
// touched before the first set-up, so recording never allocates and the
// whole buffer is resident: peak_rss_mb subtracts its bytes.
class ArrivalLog {
 public:
  explicit ArrivalLog(std::size_t capacity)
      : data_(new Arrival[capacity]), capacity_(capacity) {
    std::memset(data_.get(), 0, capacity * sizeof(Arrival));
  }
  // Only the egress thread of the current set-up pushes; the log is read
  // after that thread was joined.
  void Clear() { size_ = overflow_ = 0; }
  void Push(const Arrival& a) {
    if (size_ < capacity_) {
      data_[size_++] = a;
    } else {
      ++overflow_;
    }
  }
  [[nodiscard]] std::span<const Arrival> arrivals() const {
    return {data_.get(), size_};
  }
  [[nodiscard]] std::size_t overflow() const { return overflow_; }
  [[nodiscard]] double mib() const {
    return static_cast<double>(capacity_ * sizeof(Arrival)) / (1024.0 * 1024.0);
  }

 private:
  std::unique_ptr<Arrival[]> data_;
  std::size_t capacity_;
  std::size_t size_ = 0;
  std::size_t overflow_ = 0;
};

// Egress logic: records every tuple's key and timestamps on arrival.
class EgressRecorder final : public spe::OperatorLogic {
 public:
  EgressRecorder(const spe::NativeRuntime& runtime, ArrivalLog& log)
      : runtime_(&runtime), log_(&log) {}
  void Process(const spe::Tuple& t, std::vector<spe::Tuple>& out) override {
    log_->Push({t.key, t.produced, t.ingested,
                static_cast<std::int64_t>(runtime_->NowNs())});
    out.push_back(t);
  }

 private:
  const spe::NativeRuntime* runtime_;
  ArrivalLog* log_;
};

// Middle operator: pass-through or even-key filter; in traced passes it
// also stamps sampled keys for the hop spans.
class MidLogic final : public spe::OperatorLogic {
 public:
  MidLogic(const spe::NativeRuntime* stamp_clock, bool even_filter,
           std::size_t expected)
      : stamp_clock_(stamp_clock), even_filter_(even_filter) {
    if (stamp_clock_ != nullptr) stamps_.reserve(expected / kHopSample + 16);
  }
  void Process(const spe::Tuple& t, std::vector<spe::Tuple>& out) override {
    if (stamp_clock_ != nullptr && t.key % kHopSample == 0) {
      stamps_.emplace_back(t.key,
                           static_cast<std::int64_t>(stamp_clock_->NowNs()));
    }
    if (!even_filter_ || t.key % 2 == 0) out.push_back(t);
  }
  [[nodiscard]] const std::vector<std::pair<std::int64_t, std::int64_t>>&
  stamps() const {
    return stamps_;
  }

 private:
  const spe::NativeRuntime* stamp_clock_;
  bool even_filter_;
  std::vector<std::pair<std::int64_t, std::int64_t>> stamps_;
};

// Everything one set-up builds. Members are destroyed in reverse order:
// the runner before what it references, the runtime (which joins its
// threads) after the driver that reads it.
struct NativeStack {
  std::unique_ptr<SpanLog> log;
  std::unique_ptr<spe::NativeRuntime> runtime;
  std::vector<MidLogic*> mid;
  std::unique_ptr<osctl::NativeRuntimeDriver> driver;
  std::unique_ptr<TracedDriver> traced_driver;
  osctl::LinuxNiceController nice;
  std::unique_ptr<osctl::CgroupController> cgroups;
  std::unique_ptr<osctl::LinuxOsAdapter> linux_os;
  std::unique_ptr<TracedOsAdapter> traced_os;
  osctl::NativeControlExecutor executor;
  std::unique_ptr<MeteredExecutor> metered;
  std::unique_ptr<core::LachesisRunner> runner;
};

int PinCpu() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (CPU_ISSET(cpu, &set)) return cpu;
  }
  return 0;
}

// Set-up calibration. A set-up's time is mostly the host's cost of
// starting threads: clone, pinning, cross-CPU wake-ups. On a shared VM that
// cost follows the host's load (on a 4-vCPU x86 VM the median pinned
// set-up of runs half an hour apart moved from 0.4 to 1.6 ms), much as the
// simulator's CPU cost does (see sim_workload.cc). A reference start of the workload's thread count, with
// the same pinning and without the program, runs before and after every
// set-up while no stack is alive, and the set-up time is scaled by
// kNominalStartNsPerThread * threads / (the mean of the two): the set-up
// time on a host where starting a thread takes 40 us.
constexpr double kNominalStartNsPerThread = 40e3;

// Host time to start `threads` threads that each name and pin themselves
// (to `cpu`, unless negative), publish their tid and park, as
// NativeRuntime::Start's threads do, until all of them have registered.
std::int64_t ReferenceStartNs(int threads, int cpu) {
  std::atomic<int> registered{0};
  std::atomic<bool> release{false};
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(threads));
  const std::int64_t start = SteadyNs();
  for (int i = 0; i < threads; ++i) {
    pool.emplace_back([&registered, &release, cpu] {
      pthread_setname_np(pthread_self(), "perfbench.ref");
      if (cpu >= 0) {
        cpu_set_t set;
        CPU_ZERO(&set);
        CPU_SET(static_cast<unsigned>(cpu), &set);
        sched_setaffinity(0, sizeof(set), &set);
      }
      static_cast<void>(syscall(SYS_gettid));
      registered.fetch_add(1, std::memory_order_release);
      registered.notify_all();
      release.wait(false, std::memory_order_acquire);
    });
  }
  int r = registered.load(std::memory_order_acquire);
  while (r < threads) {
    registered.wait(r, std::memory_order_acquire);
    r = registered.load(std::memory_order_acquire);
  }
  const std::int64_t spent = SteadyNs() - start;
  release.store(true, std::memory_order_release);
  release.notify_all();
  for (std::thread& t : pool) t.join();
  return std::max<std::int64_t>(spent, 1);
}

spe::LogicalQuery BuildChain(const ChainSpec& chain, NativeStack& stack,
                             std::size_t index, bool traced,
                             std::size_t expected, ArrivalLog& egress_log) {
  spe::LogicalQuery query;
  query.name = chain.name;
  spe::NativeRuntime* runtime = stack.runtime.get();
  const int in = query.Add(
      spe::MakeIngress(std::string(chain.name) + ".ingress",
                       Micros(chain.ingress_us)));
  const int mid = query.Add(spe::MakeTransform(
      std::string(chain.name) + "." + chain.mid_name, Micros(chain.mid_us),
      [&stack, index, runtime, traced, chain, expected] {
        auto logic = std::make_unique<MidLogic>(traced ? runtime : nullptr,
                                                chain.even_filter, expected);
        stack.mid[index] = logic.get();
        return logic;
      }));
  spe::LogicalOperator egress = spe::MakeEgress(
      std::string(chain.name) + ".egress", Micros(chain.egress_us));
  egress.make_logic = [runtime, &egress_log] {
    return std::make_unique<EgressRecorder>(*runtime, egress_log);
  };
  const int out = query.Add(std::move(egress));
  query.Connect(in, mid);
  query.Connect(mid, out);
  return query;
}

// One fresh set-up, from the first call into the system until the control
// loop is ready to start: runtime, queries, threads with tids, driver and
// its first Poll, runner attached and reconciled with the kernel.
std::unique_ptr<NativeStack> BuildStack(const NativeSpec& spec,
                                        const RunOptions& options, bool traced,
                                        int pin_cpu,
                                        std::vector<ArrivalLog>& egress_logs,
                                        double* setup_seconds) {
  auto stack = std::make_unique<NativeStack>();
  if (traced) stack->log = std::make_unique<SpanLog>();
  stack->mid.assign(spec.chains.size(), nullptr);
  for (ArrivalLog& log : egress_logs) log.Clear();

  const std::int64_t start = SteadyNs();
  spe::NativeRuntimeOptions rt_options;
  rt_options.name = "perfbench";
  if (spec.pin) rt_options.pin_cpus = {pin_cpu};
  stack->runtime = std::make_unique<spe::NativeRuntime>(rt_options);
  for (std::size_t i = 0; i < spec.chains.size(); ++i) {
    const ChainSpec& chain = spec.chains[i];
    const std::size_t expected = TuplesPerPass(chain, options);
    spe::NativeDeployOptions deploy;
    deploy.source_rate_tps = chain.rate_tps;
    deploy.seed = options.seed * 1000003ULL + i;
    stack->runtime->AddQuery(
        BuildChain(chain, *stack, i, traced, expected, egress_logs[i]), deploy);
  }
  stack->runtime->Start();
  stack->driver = std::make_unique<osctl::NativeRuntimeDriver>(*stack->runtime);
  stack->driver->Poll(stack->executor.Now());

  core::SpeDriver* driver = stack->driver.get();
  if (traced) {
    stack->traced_driver =
        std::make_unique<TracedDriver>(*stack->driver, *stack->log);
    driver = stack->traced_driver.get();
  }
  stack->cgroups = std::make_unique<osctl::CgroupController>(
      options.out_dir + "/cgroup", osctl::CgroupVersion::kV2);
  stack->linux_os =
      std::make_unique<osctl::LinuxOsAdapter>(stack->nice, *stack->cgroups);
  core::OsAdapter* os = stack->linux_os.get();
  if (traced) {
    stack->traced_os = std::make_unique<TracedOsAdapter>(
        *stack->linux_os, *stack->log, SpanKind::kAdapter);
    os = stack->traced_os.get();
  }
  stack->metered =
      std::make_unique<MeteredExecutor>(stack->executor, stack->log.get());
  stack->runner = std::make_unique<core::LachesisRunner>(*stack->metered, *os,
                                                         options.seed + 3);
  // lachesisd's defaults for a [native-query] daemon.
  const osctl::DaemonConfig defaults;
  core::HealthConfig health;
  health.enabled = true;
  health.backoff_base = Millis(defaults.backoff_base_ms);
  health.backoff_cap = Millis(defaults.backoff_cap_ms);
  health.breaker_threshold = static_cast<int>(defaults.breaker_threshold);
  health.probe_interval = Millis(defaults.breaker_probe_ms);
  health.seed = options.seed;
  stack->runner->SetHealthConfig(health);
  stack->runner->recorder().SetRingCapacity(
      static_cast<std::size_t>(defaults.obs_ring_capacity));

  core::PolicyBinding binding;
  std::unique_ptr<core::SchedulingPolicy> policy =
      std::make_unique<core::QueueSizePolicy>();
  std::unique_ptr<core::Translator> translator =
      std::make_unique<core::NiceTranslator>();
  if (traced) {
    policy = std::make_unique<TracedPolicy>(std::move(policy), *stack->log);
    translator =
        std::make_unique<TracedTranslator>(std::move(translator), *stack->log);
  }
  binding.policy = std::move(policy);
  binding.translator = std::move(translator);
  binding.period = spec.period;
  binding.drivers = {driver};
  stack->runner->AddQuery(std::move(binding));
  stack->runner->ReconcileWithBackend();
  *setup_seconds = static_cast<double>(SteadyNs() - start) / 1e9;
  return stack;
}

struct Snapshot {
  std::int64_t runtime_ns = 0;
  SimTime exec_ns = 0;
  std::int64_t process_cpu = 0;
  std::int64_t control_cpu = 0;
  std::uint64_t ingested = 0;
  std::uint64_t parks = 0;
  std::uint64_t queued = 0;
  std::vector<std::uint64_t> busy_ns;
  CpuTimes cpu;
  CpuTimes pinned;
};

Snapshot Take(const NativeStack& stack, clockid_t control_clock, int pin_cpu) {
  Snapshot s;
  s.cpu = ReadCpuTimes();
  if (pin_cpu >= 0) s.pinned = ReadCpuTimes(pin_cpu);
  s.runtime_ns = static_cast<std::int64_t>(stack.runtime->NowNs());
  s.exec_ns = stack.executor.Now();
  s.process_cpu = ProcessCpuNs();
  timespec ts{};
  clock_gettime(control_clock, &ts);
  s.control_cpu = static_cast<std::int64_t>(ts.tv_sec) * 1000000000LL + ts.tv_nsec;
  for (const auto& op : stack.runtime->ops()) {
    if (op->role() == spe::OperatorRole::kIngress) s.ingested += op->tuples_in();
    s.parks += op->input().producer_sleeps() + op->input().consumer_sleeps();
    s.queued += op->input().size();
    s.busy_ns.push_back(op->busy_ns());
  }
  return s;
}

// Runs the control loop on its own thread, as lachesisd does; stopped and
// joined on every path out of the pass.
class ControlThread {
 public:
  ControlThread(osctl::NativeControlExecutor& executor, SimTime until)
      : executor_(&executor), thread_([&executor, until] { executor.Run(until); }) {}
  ~ControlThread() { Join(); }
  ControlThread(const ControlThread&) = delete;
  ControlThread& operator=(const ControlThread&) = delete;

  void Join() {
    executor_->Stop();
    if (thread_.joinable()) thread_.join();
  }
  [[nodiscard]] clockid_t cpu_clock() {
    clockid_t clock{};
    pthread_getcpuclockid(thread_.native_handle(), &clock);
    return clock;
  }

 private:
  osctl::NativeControlExecutor* executor_;
  std::thread thread_;
};

struct TickRecord {
  SimTime now;
  std::uint64_t request;
  core::DeltaStats delta;
  std::uint64_t obs_recorded;
};

struct PassResult {
  std::map<std::string, double> e2e;
  std::map<std::string, double> layer;
  std::map<std::string, double> info;
  std::vector<std::string> problems;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

PassResult RunPass(const NativeSpec& spec, const RunOptions& options,
                   bool traced) {
  const int pin_cpu = PinCpu();
  std::vector<ArrivalLog> egress_logs;
  double egress_logs_mib = 0;
  for (const ChainSpec& chain : spec.chains) {
    egress_logs.emplace_back(TuplesPerPass(chain, options));
    egress_logs_mib += egress_logs.back().mib();
  }
  // Timed set-ups, each torn down again and bracketed by reference starts
  // (see kNominalStartNsPerThread); the window then runs on one more.
  // BuildChain deploys 3 operators per chain, and the runtime adds a source.
  const int threads = 4 * static_cast<int>(spec.chains.size());
  const int ref_cpu = spec.pin ? pin_cpu : -1;
  std::vector<double> setups;
  std::vector<double> raw_setups;
  const CpuTimes setup_start = ReadCpuTimes(ref_cpu);
  std::int64_t ref_ns = ReferenceStartNs(threads, ref_cpu);
  for (int i = 0; i < kSetups; ++i) {
    double seconds = 0;
    BuildStack(spec, options, traced, pin_cpu, egress_logs, &seconds).reset();
    const std::int64_t next_ns = ReferenceStartNs(threads, ref_cpu);
    raw_setups.push_back(seconds);
    setups.push_back(seconds * kNominalStartNsPerThread * threads /
                     (0.5 * static_cast<double>(ref_ns + next_ns)));
    ref_ns = next_ns;
  }
  PassResult result;
  result.info["setups"] = kSetups;
  result.info["raw_setup_s"] = Median(raw_setups);
  result.info["setup_steal_share"] =
      StealShare(setup_start, ReadCpuTimes(ref_cpu));
  if (spec.pin) result.info["pinned_cpu"] = pin_cpu;
  double unused = 0;
  std::unique_ptr<NativeStack> stack =
      BuildStack(spec, options, traced, pin_cpu, egress_logs, &unused);
  result.info["pin_failures"] = stack->runtime->pin_failures();
  if (stack->runtime->pin_failures() > 0) {
    result.problems.push_back("runtime threads could not be pinned");
  }

  std::vector<TickRecord> ticks;
  ticks.reserve(4096);
  core::LachesisRunner& runner = *stack->runner;
  MeteredExecutor& metered = *stack->metered;
  runner.SetTickObserver([&ticks, &runner, &metered](
                             const core::RunnerTickInfo& info) {
    ticks.push_back({info.now, metered.callbacks(), info.delta,
                     runner.recorder().total_recorded()});
  });
  // The loop's horizon bounds Run() even if a Stop() races its start.
  const SimTime until =
      stack->executor.Now() + Seconds(kWarmupSeconds + options.seconds + 2);
  runner.Start(until);
  ControlThread control(stack->executor, until);
  const clockid_t control_clock = control.cpu_clock();

  std::this_thread::sleep_for(std::chrono::seconds(kWarmupSeconds));
  // One snapshot per second of the window.
  const int pin = spec.pin ? pin_cpu : -1;
  std::vector<Snapshot> marks;
  marks.push_back(Take(*stack, control_clock, pin));
  const auto window_start = std::chrono::steady_clock::now();
  for (int i = 1; i <= options.seconds; ++i) {
    std::this_thread::sleep_until(window_start + std::chrono::seconds(i));
    marks.push_back(Take(*stack, control_clock, pin));
  }
  const Snapshot& t0 = marks.front();
  const Snapshot& t1 = marks.back();
  control.Join();
  spe::NativeRuntime& runtime = *stack->runtime;
  runtime.Stop(/*drain=*/true);
  // The process's peak RSS without the benchmark's own egress records.
  const double peak_rss_mb = PeakRssMb() - egress_logs_mib;

  const double window_s = static_cast<double>(t1.runtime_ns - t0.runtime_ns) / 1e9;
  const double ingested = static_cast<double>(t1.ingested - t0.ingested);

  // Latency samples of the whole window and of each sub-window in it: the
  // shortest multiple of 10 ms expected to hold kSubWindowSamples egress
  // tuples.
  double egress_rate = 0;
  for (const ChainSpec& chain : spec.chains) {
    egress_rate += chain.even_filter ? chain.rate_tps / 2 : chain.rate_tps;
  }
  const std::int64_t sub_window_ns =
      10000000LL * static_cast<std::int64_t>(
                       std::ceil(kSubWindowSamples / egress_rate / 0.01));
  std::vector<double> latency_ms;
  std::vector<std::vector<double>> latency_by_window(static_cast<std::size_t>(
      static_cast<std::int64_t>(options.seconds) * 1000000000LL / sub_window_ns));
  std::vector<double> lateness_ms;
  std::vector<double> hops[3];
  // Output check: after the draining Stop every emitted tuple was ingested
  // and every one the filter passes reached egress, once and in order.
  for (std::size_t q = 0; q < spec.chains.size(); ++q) {
    const ChainSpec& chain = spec.chains[q];
    const std::uint64_t emitted = runtime.SourceEmitted(q);
    const std::uint64_t in = runtime.TotalIngested(q);
    const std::int64_t step = chain.even_filter ? 2 : 1;
    const std::uint64_t expected = chain.even_filter ? (emitted + 1) / 2 : emitted;
    const std::span<const Arrival> arrivals = egress_logs[q].arrivals();
    if (egress_logs[q].overflow() > 0) {
      result.problems.push_back(std::string(chain.name) +
                                ": egress log overflowed by " +
                                std::to_string(egress_logs[q].overflow()));
    }
    std::uint64_t in_order = 0;
    while (in_order < arrivals.size() && in_order < expected &&
           arrivals[in_order].key == static_cast<std::int64_t>(in_order) * step) {
      ++in_order;
    }
    const std::uint64_t lost = (emitted > in ? emitted - in : in - emitted) +
                               (expected - in_order) +
                               (arrivals.size() - in_order);
    result.attempted += emitted;
    result.failed += lost;
    result.info[std::string(chain.name) + ".emitted"] = static_cast<double>(emitted);
    if (lost > 0) {
      result.problems.push_back(
          std::string(chain.name) + ": emitted " + std::to_string(emitted) +
          ", ingested " + std::to_string(in) + ", expected at egress " +
          std::to_string(expected) + ", delivered in order " +
          std::to_string(in_order) + " of " + std::to_string(arrivals.size()));
    }
    if (arrivals.empty() || arrivals[0].key != 0) continue;

    const std::int64_t anchor = arrivals[0].produced;
    const std::int64_t period = SourcePeriodNs(chain.rate_tps);
    std::size_t stamp = 0;
    const auto& stamps = stack->mid[q]->stamps();
    for (const Arrival& a : arrivals) {
      const std::int64_t due = anchor + a.key * period;
      if (due < t0.runtime_ns || due >= t1.runtime_ns) continue;
      latency_ms.push_back(static_cast<double>(a.egress - due) / 1e6);
      const auto sub = static_cast<std::size_t>((due - t0.runtime_ns) / sub_window_ns);
      if (sub < latency_by_window.size()) {
        latency_by_window[sub].push_back(latency_ms.back());
      }
      lateness_ms.push_back(static_cast<double>(a.produced - due) / 1e6);
      if (a.key % kHopSample != 0) continue;
      hops[0].push_back(static_cast<double>(a.ingested - a.produced) / 1e3);
      while (stamp < stamps.size() && stamps[stamp].first < a.key) ++stamp;
      if (stamp < stamps.size() && stamps[stamp].first == a.key) {
        const std::int64_t mid = stamps[stamp].second;
        hops[1].push_back(static_cast<double>(mid - a.ingested) / 1e3);
        hops[2].push_back(static_cast<double>(a.egress - mid) / 1e3);
        if (traced) {
          stack->log->Add(SpanKind::kHopSourceIngress,
                          static_cast<std::uint64_t>(a.key), a.produced,
                          a.ingested);
          stack->log->Add(SpanKind::kHopIngressMap,
                          static_cast<std::uint64_t>(a.key), a.ingested, mid);
          stack->log->Add(SpanKind::kHopMapEgress,
                          static_cast<std::uint64_t>(a.key), mid, a.egress);
        }
      }
    }
  }
  if (latency_ms.empty()) result.problems.push_back("no latency samples in the window");

  // Control operations over the whole run, from the delta layer.
  const core::DeltaStats& ops = runner.delta_totals();
  const std::uint64_t op_failed = ops.errors + ops.suppressed;
  result.attempted += ops.applied + ops.skipped + op_failed;
  result.failed += op_failed;
  result.info["ops_applied"] = static_cast<double>(ops.applied);
  result.info["ops_skipped"] = static_cast<double>(ops.skipped);
  result.info["ops_errors"] = static_cast<double>(ops.errors);
  result.info["ops_suppressed"] = static_cast<double>(ops.suppressed);
  if (op_failed > 0) {
    result.problems.push_back(std::to_string(op_failed) +
                              " control operations failed or were withheld");
  }

  // Backlog growth: flagged (not failed) when the rings hold more than a
  // tenth of a second of input at the end of the window and grew over it.
  double offered = 0;
  for (const ChainSpec& chain : spec.chains) offered += chain.rate_tps;
  const double growth =
      static_cast<double>(t1.queued) - static_cast<double>(t0.queued);
  result.info["backlog_growth"] = growth;
  result.info["backlog_flag"] =
      growth > 0 && static_cast<double>(t1.queued) > 0.1 * offered ? 1 : 0;
  result.info["latency_samples"] = static_cast<double>(latency_ms.size());
  result.info["latency_sub_window_ms"] = static_cast<double>(sub_window_ns) / 1e6;
  result.info["window_s"] = window_s;
  const double steal = StealShare(t0.cpu, t1.cpu);
  result.info["host_steal_share"] = steal;
  if (spec.pin) result.info["pinned_cpu_steal_share"] = StealShare(t0.pinned, t1.pinned);

  // Per-second CPU figures; each end-to-end CPU metric is their median.
  std::vector<double> cpu_us_per_tuple, cpu_share, control_share;
  for (std::size_t i = 1; i < marks.size(); ++i) {
    const double cpu = static_cast<double>(marks[i].process_cpu - marks[i - 1].process_cpu);
    const double control = static_cast<double>(marks[i].control_cpu - marks[i - 1].control_cpu);
    const double tuples = static_cast<double>(marks[i].ingested - marks[i - 1].ingested);
    const double wall = static_cast<double>(marks[i].runtime_ns - marks[i - 1].runtime_ns);
    if (tuples > 0) cpu_us_per_tuple.push_back(cpu / 1e3 / tuples);
    cpu_share.push_back(cpu / wall);
    control_share.push_back(control / wall);
  }
  auto& e2e = result.e2e;
  e2e["throughput_tps"] = ingested / window_s;
  // Real-thread quantiles are the median over the sub-windows of each
  // sub-window's quantile: the typical latency between host stalls. A
  // hypervisor preemption (steal) spoils the few sub-windows it overlaps
  // and does not move the median. spe.latency_p99_ms keeps the tail of the
  // whole window, stalls included.
  const auto per_window = [&latency_by_window](double q) {
    std::vector<double> values;
    for (const std::vector<double>& sub : latency_by_window) {
      if (!sub.empty()) values.push_back(Quantile(sub, q));
    }
    return Median(values);
  };
  e2e["latency_p50_ms"] = per_window(0.50);
  e2e["latency_p90_ms"] = per_window(0.90);
  e2e["latency_p99_ms"] = per_window(0.99);
  e2e["cpu_us_per_tuple"] = Median(cpu_us_per_tuple);
  e2e["control_cpu_share"] = Median(control_share);
  e2e["cpu_s_per_sim_s"] = Median(cpu_share);
  e2e["setup_s"] = Median(setups);
  e2e["peak_rss_mb"] = peak_rss_mb;

  auto& layer = result.layer;
  layer["spe.parks_per_tuple"] =
      ingested > 0 ? static_cast<double>(t1.parks - t0.parks) / ingested : 0.0;
  layer["spe.hop_p50_us.source_ingress"] = Median(hops[0]);
  layer["spe.hop_p50_us.ingress_map"] = Median(hops[1]);
  layer["spe.hop_p50_us.map_egress"] = Median(hops[2]);
  double busy_max = 0;
  std::uint64_t high_water = 0;
  for (std::size_t i = 0; i < runtime.ops().size(); ++i) {
    busy_max = std::max(
        busy_max, static_cast<double>(t1.busy_ns[i] - t0.busy_ns[i]) / 1e9 /
                      window_s);
    high_water = std::max(high_water, runtime.ops()[i]->input().high_water());
  }
  layer["spe.busy_share_max"] = busy_max;
  layer["spe.ring_high_water_max"] = static_cast<double>(high_water);
  layer["spe.source_lateness_p99_ms"] = Quantile(lateness_ms, 0.99);
  layer["spe.backlog_growth"] = growth;
  layer["spe.latency_p99_ms"] = Quantile(latency_ms, 0.99);
  layer["spe.latency_samples"] = static_cast<double>(latency_ms.size());
  layer["tsdb.series"] = static_cast<double>(stack->driver->store().series_count());
  layer["obs.dropped"] = static_cast<double>(runner.recorder().dropped());
  layer["host.steal_share"] = steal;

  // Control-plane layers, over the ticks dispatched inside the window.
  std::vector<const TickRecord*> window_ticks;
  for (const TickRecord& t : ticks) {
    if (t.now >= t0.exec_ns && t.now < t1.exec_ns) window_ticks.push_back(&t);
  }
  const std::size_t n = window_ticks.size();
  result.info["ticks"] = static_cast<double>(n);
  if (n > 0) {
    std::uint64_t applied = 0, skipped = 0;
    for (const TickRecord* t : window_ticks) {
      applied += t->delta.applied;
      skipped += t->delta.skipped;
    }
    const double dn = static_cast<double>(n);
    layer["core.ops_applied_per_tick"] = static_cast<double>(applied) / dn;
    layer["core.ops_skipped_per_tick"] = static_cast<double>(skipped) / dn;
    layer["core.elision_ratio"] =
        applied + skipped > 0
            ? static_cast<double>(skipped) / static_cast<double>(applied + skipped)
            : 0.0;
    const std::uint64_t obs_before =
        window_ticks.front() == &ticks.front() ? 0 : (window_ticks.front() - 1)->obs_recorded;
    layer["obs.events_per_tick"] =
        static_cast<double>(window_ticks.back()->obs_recorded - obs_before) / dn;
  }
  if (traced && n > 0) {
    const std::uint64_t first = window_ticks.front()->request;
    const std::uint64_t last = window_ticks.back()->request;
    const std::vector<KindTotals> totals =
        AddTickMetrics(*stack->log, first, last, layer);
    const auto kind = [&totals](SpanKind k) -> const KindTotals& {
      return totals[static_cast<std::size_t>(k)];
    };
    std::vector<double> lateness_us;
    for (std::uint64_t r = first; r <= last; ++r) {
      lateness_us.push_back(
          static_cast<double>(metered.lateness_ns()[static_cast<std::size_t>(r - 1)]) /
          1e3);
    }
    layer["osctl.poll_us"] = PerTickUs(kind(SpanKind::kPoll).total_ns, n);
    layer["tsdb.scrape_us"] = layer["osctl.poll_us"];
    layer["osctl.fetch_us"] = PerTickUs(kind(SpanKind::kFetch).total_ns, n);
    layer["osctl.fetches_per_tick"] =
        static_cast<double>(kind(SpanKind::kFetch).calls) / static_cast<double>(n);
    layer["osctl.adapter_us"] = PerTickUs(kind(SpanKind::kAdapter).total_ns, n);
    layer["osctl.adapter_calls_per_s"] =
        static_cast<double>(kind(SpanKind::kAdapter).calls) / window_s;
    layer["osctl.adapter_errors"] = static_cast<double>(stack->traced_os->errors());
    layer["osctl.tick_lateness_us"] = Median(lateness_us);
    if (!stack->log->WriteCsv(options.out_dir + "/spans-" + options.workload + ".csv")) {
      result.problems.push_back("could not write the span file");
    }
  }
  return result;
}

}  // namespace

RunResult RunNative(const RunOptions& options) {
  const NativeSpec spec = SpecFor(options.workload);
  RunResult run;
  PassResult plain = RunPass(spec, options, /*traced=*/false);
  run.problems = plain.problems;
  run.attempted = plain.attempted;
  run.failed = plain.failed;
  for (const auto& [k, v] : plain.info) run.info[k] = v;
  if (!options.trace) {
    run.metrics = plain.e2e;
    return run;
  }
  PassResult traced = RunPass(spec, options, /*traced=*/true);
  for (const std::string& p : traced.problems) run.problems.push_back("traced: " + p);
  run.attempted += traced.attempted;
  run.failed += traced.failed;
  run.metrics = traced.layer;
  const double base = plain.e2e["cpu_us_per_tuple"];
  run.metrics["trace.overhead"] =
      base > 0 ? traced.e2e["cpu_us_per_tuple"] / base - 1.0 : 0.0;
  return run;
}

}  // namespace perfbench
