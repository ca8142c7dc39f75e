// sim-scale: a simulated 4-core Liebre machine running 100 SYN queries x 5
// operators (500 operator threads) at 1,000 tuples/s in total -- the
// paper's §6.4 multi-query setup scaled by 5 -- under HR + cpu.shares with
// one cgroup per operator; scrape and control period are both 1 s.
//
// No native code runs: host time goes to the control tick over 500
// entities, the per-second scrape and the simulator itself. Simulated
// outcomes are a pure function of the seed, so they must repeat exactly,
// with and without tracing; host-side costs are measured per simulated
// second.
#include <algorithm>
#include <memory>

#include "common/rng.h"
#include "core/os_adapter.h"
#include "core/policies.h"
#include "core/runner.h"
#include "core/sim_driver.h"
#include "core/sim_executor.h"
#include "core/translators.h"
#include "queries/synthetic.h"
#include "sim/machine.h"
#include "sim/simulator.h"
#include "spe/flavor.h"
#include "spe/runtime.h"
#include "spe/source.h"
#include "trace.h"
#include "tsdb/scraper.h"
#include "tsdb/tsdb.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace lachesis;

constexpr int kSetups = 30;
constexpr int kQueries = 100;
constexpr double kTotalRateTps = 1000.0;
constexpr SimTime kWarmup = Seconds(10);
// Simulated seconds per second of --seconds: sized so that the measured
// window takes roughly --seconds of host time on a 4-vCPU x86 VM.
constexpr int kSimSecondsPerSecond = 80;
constexpr int kTracedSlices = 8;
// A traced tick's stage spans (poll, provider, entities, fetch, policy,
// translate) must account for all but this share of the tick span.
constexpr double kMaxUnaccountedShare = 0.10;

// Host-speed calibration. On a shared VM, co-tenants slow memory-bound
// single-thread code by up to 2x for seconds at a time, which swamps the
// simulator's, the tick's and the set-up's own host cost. A fixed kernel
// (1M random read-modify-writes over 64 MiB: like the simulator, which
// walks about 100 MiB, it misses the TLB and L2 and leans on the shared
// L3) runs before and after every set-up and every slice, outside the
// measured intervals, and that host time is scaled by kNominalNs / (the
// mean of the two kernel CPU times): the time on a host of nominal speed,
// about that of the 4-vCPU x86 VM this benchmark was sized on. Per slice,
// this kernel tracked the simulator's host cost better than one over
// 8 MiB (correlation 0.62 against 0.46 over 90 slices). The unscaled
// figures of the window are kept in the run context.
class Calibration {
 public:
  Calibration() : buffer_(std::size_t{1} << 24) {}

  // The buffer is zero-filled on construction, so all of it is resident.
  [[nodiscard]] double mib() const {
    return static_cast<double>(buffer_.size() * sizeof(std::uint32_t)) /
           (1024.0 * 1024.0);
  }

  // CPU time of one kernel run. The kernel runs twice over the same slots
  // and only the second run is timed: the first brings them back into the
  // caches, whatever the measured code evicted, so the time follows the
  // host and not the program's own footprint.
  std::int64_t KernelNs() {
    Pass();
    const std::int64_t start = ProcessCpuNs();
    Pass();
    return std::max<std::int64_t>(ProcessCpuNs() - start, 1);
  }

  // Scale for an interval between kernel runs that took `before` and
  // `after`: nominal / their mean.
  static double Factor(std::int64_t before, std::int64_t after) {
    return kNominalNs / (0.5 * static_cast<double>(before + after));
  }

 private:
  void Pass() {
    const std::uint32_t mask = static_cast<std::uint32_t>(buffer_.size() - 1);
    std::uint32_t state = 1;
    for (int i = 0; i < kSteps; ++i) {
      state = state * 1664525u + 1013904223u;
      buffer_[(state >> 4) & mask] += state;  // the low bits cycle early
    }
    sink_ = buffer_[(state >> 4) & mask];
  }

  static constexpr int kSteps = 1000000;
  static constexpr double kNominalNs = 14e6;
  std::vector<std::uint32_t> buffer_;
  volatile std::uint32_t sink_ = 0;
};

// Everything one set-up builds, destroyed in reverse order of declaration.
struct SimStack {
  std::unique_ptr<SpanLog> log;
  sim::Simulator sim;
  std::unique_ptr<sim::Machine> machine;
  std::unique_ptr<spe::SpeInstance> instance;
  std::vector<spe::DeployedQuery*> queries;
  std::vector<std::unique_ptr<spe::ExternalSource>> sources;
  tsdb::TimeSeriesStore store;
  std::unique_ptr<tsdb::Scraper> scraper;
  std::unique_ptr<core::SimSpeDriver> driver;
  std::unique_ptr<TracedDriver> traced_driver;
  core::SimOsAdapter os;
  std::unique_ptr<TracedOsAdapter> traced_os;
  std::unique_ptr<core::SimControlExecutor> executor;
  std::unique_ptr<MeteredExecutor> metered;
  std::unique_ptr<core::LachesisRunner> runner;
  std::uint64_t scrapes = 0;
};

// The scrape runs from the benchmark's own simulator event (instead of
// Scraper::Start) so the traced pass can time each ScrapeOnce.
void ScheduleScrape(SimStack& stack, SimTime when, SimTime end) {
  if (when > end) return;
  stack.sim.ScheduleAt(when, [&stack, when, end] {
    ++stack.scrapes;
    if (stack.log != nullptr) {
      stack.log->set_request(stack.scrapes);
      const int span = stack.log->Begin(SpanKind::kScrape);
      stack.scraper->ScrapeOnce();
      stack.log->End(span);
    } else {
      stack.scraper->ScrapeOnce();
    }
    ScheduleScrape(stack, when + Seconds(1), end);
  });
}

std::unique_ptr<SimStack> BuildStack(const RunOptions& options, bool traced,
                                     SimTime end, double* setup_seconds) {
  auto stack = std::make_unique<SimStack>();
  if (traced) stack->log = std::make_unique<SpanLog>();

  const std::int64_t start = SteadyNs();
  stack->sim.ReserveEvents(4096, 256);
  stack->machine = std::make_unique<sim::Machine>(stack->sim, 4);
  stack->instance = std::make_unique<spe::SpeInstance>(
      spe::LiebreFlavor(), std::vector<sim::Machine*>{stack->machine.get()},
      "liebre");
  // The SYN query set (costs, selectivities) is fixed so that every seed
  // offers the same work; the seed draws the arrival process and the
  // operators' cost jitter.
  queries::SyntheticConfig config;
  config.num_queries = kQueries;
  std::vector<queries::Workload> workloads = queries::MakeSynthetic(config);
  // Independent users: each query's rate is drawn around the mean and its
  // arrivals start at a random phase, so sources do not fire in lockstep.
  Rng rng(options.seed);
  std::vector<double> weights;
  double weight_sum = 0;
  for (std::size_t i = 0; i < workloads.size(); ++i) {
    weights.push_back(rng.Uniform(0.5, 1.5));
    weight_sum += weights.back();
  }
  for (std::size_t i = 0; i < workloads.size(); ++i) {
    spe::DeployOptions deploy;
    deploy.seed = options.seed * 7919 + i * 131;
    spe::DeployedQuery& query =
        stack->instance->Deploy(workloads[i].query, deploy);
    stack->queries.push_back(&query);
    stack->sources.push_back(std::make_unique<spe::ExternalSource>(
        stack->sim, query.source_channels(), workloads[i].generator,
        options.seed * 104729 + i * 17));
    const double rate = kTotalRateTps * weights[i] / weight_sum;
    const auto phase = static_cast<SimTime>(rng.Uniform(0.0, 1e9 / rate));
    spe::ExternalSource* source = stack->sources.back().get();
    stack->sim.ScheduleAt(phase, [source, rate, end] { source->Start(rate, end); });
  }
  stack->scraper =
      std::make_unique<tsdb::Scraper>(stack->sim, stack->store, Seconds(1));
  stack->scraper->AddInstance(*stack->instance);
  ScheduleScrape(*stack, Seconds(1), end);

  stack->driver = std::make_unique<core::SimSpeDriver>(*stack->instance,
                                                       stack->store, Seconds(1));
  core::SpeDriver* driver = stack->driver.get();
  core::OsAdapter* os = &stack->os;
  std::unique_ptr<core::SchedulingPolicy> policy =
      std::make_unique<core::HighestRatePolicy>();
  std::unique_ptr<core::Translator> translator =
      std::make_unique<core::CpuSharesTranslator>();
  if (traced) {
    stack->traced_driver =
        std::make_unique<TracedDriver>(*stack->driver, *stack->log);
    driver = stack->traced_driver.get();
    stack->traced_os = std::make_unique<TracedOsAdapter>(
        stack->os, *stack->log, SpanKind::kAdapter);
    os = stack->traced_os.get();
    policy = std::make_unique<TracedPolicy>(std::move(policy), *stack->log);
    translator =
        std::make_unique<TracedTranslator>(std::move(translator), *stack->log);
  }
  stack->executor = std::make_unique<core::SimControlExecutor>(stack->sim);
  stack->metered =
      std::make_unique<MeteredExecutor>(*stack->executor, stack->log.get());
  stack->runner = std::make_unique<core::LachesisRunner>(*stack->metered, *os,
                                                         options.seed + 3);
  core::PolicyBinding binding;
  binding.policy = std::move(policy);
  binding.translator = std::move(translator);
  binding.period = Seconds(1);
  binding.drivers = {driver};
  stack->runner->AddQuery(std::move(binding));
  stack->runner->Start(end);
  *setup_seconds = static_cast<double>(SteadyNs() - start) / 1e9;
  return stack;
}

struct Snapshot {
  std::int64_t wall_ns = 0;
  std::int64_t process_cpu = 0;
  std::int64_t tick_cpu = 0;
  std::uint64_t ticks = 0;
  std::uint64_t scrapes = 0;
  std::uint64_t events = 0;
  std::uint64_t ingested = 0;
  std::uint64_t queued = 0;
  std::uint64_t obs_recorded = 0;
  core::DeltaStats ops;
  CpuTimes cpu;
};

Snapshot Take(const SimStack& stack) {
  Snapshot s;
  s.cpu = ReadCpuTimes();
  s.wall_ns = SteadyNs();
  s.process_cpu = ProcessCpuNs();
  s.tick_cpu = stack.metered->callback_cpu_ns();
  s.ticks = stack.metered->callbacks();
  s.scrapes = stack.scrapes;
  s.events = stack.sim.dispatched();
  for (const spe::DeployedQuery* q : stack.queries) {
    s.ingested += q->TotalIngested();
    for (const spe::DeployedOp& op : q->ops) s.queued += op.op->input().size();
  }
  s.obs_recorded = stack.runner->recorder().total_recorded();
  s.ops = stack.runner->delta_totals();
  return s;
}

struct PassResult {
  std::map<std::string, double> e2e;
  std::map<std::string, double> layer;
  std::map<std::string, double> info;
  std::vector<std::string> problems;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t ops_applied = 0;  // in the window; simulated, must repeat
};

PassResult RunPass(const RunOptions& options, int slices, bool traced) {
  const SimDuration window = Seconds(kSimSecondsPerSecond) * slices;
  const SimTime end = kWarmup + window;
  Calibration calibration;
  std::vector<double> setups;
  std::unique_ptr<SimStack> stack;
  std::int64_t kernel_ns = calibration.KernelNs();
  for (int i = 0; i < kSetups; ++i) {
    stack.reset();
    double seconds = 0;
    stack = BuildStack(options, traced, end, &seconds);
    const std::int64_t next_ns = calibration.KernelNs();
    setups.push_back(seconds * Calibration::Factor(kernel_ns, next_ns));
    kernel_ns = next_ns;
  }
  PassResult result;
  result.info["setups"] = kSetups;

  stack->sim.RunUntil(kWarmup);
  for (spe::DeployedQuery* q : stack->queries) q->ResetMeasurements();
  // The window runs in slices of kSimSecondsPerSecond simulated seconds;
  // host-cost figures are medians over the slices, each at nominal host
  // speed (see Calibration), as are the set-up times above. Each slice is
  // measured from its own first snapshot, taken after the kernel run that
  // precedes it.
  std::vector<double> speed;
  std::vector<std::pair<Snapshot, Snapshot>> marks;
  kernel_ns = calibration.KernelNs();
  for (int i = 1; i <= slices; ++i) {
    const Snapshot begin = Take(*stack);
    stack->sim.RunUntil(kWarmup + window * i / slices);
    marks.emplace_back(begin, Take(*stack));
    const std::int64_t next_ns = calibration.KernelNs();
    speed.push_back(Calibration::Factor(kernel_ns, next_ns));
    kernel_ns = next_ns;
  }
  const Snapshot& t0 = marks.front().first;
  const Snapshot& t1 = marks.back().second;
  std::int64_t host_ns = 0;
  for (const auto& [begin, finish] : marks) host_ns += finish.wall_ns - begin.wall_ns;
  // The process's peak RSS without the benchmark's calibration buffer,
  // read before the analysis below allocates.
  const double peak_rss_mb = PeakRssMb() - calibration.mib();

  const double sim_s = ToSeconds(window);
  const double ingested = static_cast<double>(t1.ingested - t0.ingested);
  std::vector<double> e2e_ms;
  std::uint64_t egress_tuples = 0;
  for (spe::DeployedQuery* q : stack->queries) {
    for (spe::EgressMeasurements* egress : q->Egresses()) {
      egress_tuples += egress->tuples;
      for (const double ns : egress->e2e_latency_samples) e2e_ms.push_back(ns / 1e6);
    }
  }
  // The per-egress reservoir keeps every sample below its cap; past it the
  // percentiles would rest on a subsample.
  if (e2e_ms.size() != egress_tuples) {
    result.problems.push_back("latency reservoir overflowed: " +
                              std::to_string(e2e_ms.size()) + " of " +
                              std::to_string(egress_tuples) + " samples");
  }
  if (e2e_ms.empty()) result.problems.push_back("no latency samples in the window");

  // Output check: every emitted tuple was ingested or is still queued in
  // its source channel.
  std::uint64_t emitted = 0;
  for (const auto& source : stack->sources) emitted += source->emitted();
  std::uint64_t accounted = 0;
  for (const spe::DeployedQuery* q : stack->queries) {
    accounted += q->TotalIngested();
    for (const spe::TupleQueue* channel : q->source_channels()) {
      accounted += channel->size();
    }
  }
  const std::uint64_t lost = emitted > accounted ? emitted - accounted
                                                 : accounted - emitted;
  if (lost > 0) {
    result.problems.push_back("emitted " + std::to_string(emitted) +
                              " != ingested + queued " +
                              std::to_string(accounted));
  }
  const core::DeltaStats& ops = stack->runner->delta_totals();
  const std::uint64_t op_failed = ops.errors + ops.suppressed;
  if (op_failed > 0) {
    result.problems.push_back(std::to_string(op_failed) +
                              " control operations failed or were withheld");
  }
  result.attempted = emitted + ops.applied + ops.skipped + op_failed;
  result.failed = lost + op_failed;
  result.ops_applied = t1.ops.applied - t0.ops.applied;

  const double growth =
      static_cast<double>(t1.queued) - static_cast<double>(t0.queued);
  result.info["emitted"] = static_cast<double>(emitted);
  result.info["ops_applied_window"] = static_cast<double>(result.ops_applied);
  result.info["ops_errors"] = static_cast<double>(ops.errors);
  result.info["ops_suppressed"] = static_cast<double>(ops.suppressed);
  result.info["latency_samples"] = static_cast<double>(e2e_ms.size());
  result.info["backlog_growth"] = growth;
  result.info["backlog_flag"] =
      growth > 0 && static_cast<double>(t1.queued) > 0.1 * kTotalRateTps ? 1 : 0;
  result.info["sim_window_s"] = sim_s;
  result.info["host_window_s"] = static_cast<double>(host_ns) / 1e9;
  const double steal = StealShare(t0.cpu, t1.cpu);
  result.info["host_steal_share"] = steal;

  const double slice_s = sim_s / slices;
  std::vector<double> cpu_us_per_tuple, cpu_per_sim_s, control_share;
  std::vector<double> raw_cpu_per_sim_s, raw_control_share;
  for (std::size_t i = 0; i < marks.size(); ++i) {
    const auto& [begin, finish] = marks[i];
    const double cpu = static_cast<double>(finish.process_cpu - begin.process_cpu);
    const double tick = static_cast<double>(finish.tick_cpu - begin.tick_cpu);
    const double tuples = static_cast<double>(finish.ingested - begin.ingested);
    const double factor = speed[i];
    if (tuples > 0) cpu_us_per_tuple.push_back(cpu / 1e3 / tuples * factor);
    cpu_per_sim_s.push_back(cpu / 1e9 / slice_s * factor);
    control_share.push_back(tick / 1e9 / slice_s * factor);
    raw_cpu_per_sim_s.push_back(cpu / 1e9 / slice_s);
    raw_control_share.push_back(tick / 1e9 / slice_s);
  }
  result.info["host_speed_factor"] = Median(speed);
  result.info["raw_cpu_s_per_sim_s"] = Median(raw_cpu_per_sim_s);
  result.info["raw_control_cpu_share"] = Median(raw_control_share);
  auto& e2e = result.e2e;
  e2e["throughput_tps"] = ingested / sim_s;
  e2e["latency_p50_ms"] = Quantile(e2e_ms, 0.50);
  e2e["latency_p90_ms"] = Quantile(e2e_ms, 0.90);
  e2e["latency_p99_ms"] = Quantile(e2e_ms, 0.99);
  e2e["cpu_us_per_tuple"] = Median(cpu_us_per_tuple);
  e2e["control_cpu_share"] = Median(control_share);
  e2e["cpu_s_per_sim_s"] = Median(cpu_per_sim_s);
  e2e["setup_s"] = Median(setups);
  e2e["peak_rss_mb"] = peak_rss_mb;

  auto& layer = result.layer;
  const std::uint64_t ticks = t1.ticks - t0.ticks;
  const std::uint64_t scrapes = t1.scrapes - t0.scrapes;
  const double dticks = static_cast<double>(std::max<std::uint64_t>(ticks, 1));
  layer["spe.latency_p99_ms"] = e2e["latency_p99_ms"];
  layer["spe.latency_samples"] = static_cast<double>(e2e_ms.size());
  layer["spe.backlog_growth"] = growth;
  layer["core.ops_applied_per_tick"] = static_cast<double>(result.ops_applied) / dticks;
  const std::uint64_t skipped = t1.ops.skipped - t0.ops.skipped;
  layer["core.ops_skipped_per_tick"] = static_cast<double>(skipped) / dticks;
  layer["core.elision_ratio"] =
      result.ops_applied + skipped > 0
          ? static_cast<double>(skipped) /
                static_cast<double>(result.ops_applied + skipped)
          : 0.0;
  layer["obs.events_per_tick"] =
      static_cast<double>(t1.obs_recorded - t0.obs_recorded) / dticks;
  layer["obs.dropped"] = static_cast<double>(stack->runner->recorder().dropped());
  layer["tsdb.series"] = static_cast<double>(stack->store.series_count());
  layer["sim.events_per_sim_s"] = static_cast<double>(t1.events - t0.events) / sim_s;
  layer["host.steal_share"] = steal;

  if (traced && ticks > 0) {
    // Tick spans carry request ids t0.ticks+1 .. t1.ticks.
    const std::vector<KindTotals> totals =
        AddTickMetrics(*stack->log, t0.ticks + 1, t1.ticks, layer);
    const auto kind = [&totals](SpanKind k) -> const KindTotals& {
      return totals[static_cast<std::size_t>(k)];
    };
    // The stage spans must account for the tick: work the runner starts
    // doing outside every decorated stage fails the run.
    if (layer["core.unaccounted_share"] > kMaxUnaccountedShare) {
      result.problems.push_back(
          "tick stage spans leave " +
          std::to_string(layer["core.unaccounted_share"]) +
          " of the tick span unaccounted (limit " +
          std::to_string(kMaxUnaccountedShare) + ")");
    }
    std::int64_t scrape_ns = 0;
    for (const Span& s : stack->log->spans()) {
      if (s.kind == SpanKind::kScrape && s.start >= t0.wall_ns &&
          s.end <= t1.wall_ns) {
        scrape_ns += s.end - s.start;
      }
    }
    layer["core.sim_adapter_us"] = PerTickUs(kind(SpanKind::kAdapter).total_ns, ticks);
    layer["tsdb.fetch_us"] = PerTickUs(kind(SpanKind::kFetch).total_ns, ticks);
    layer["tsdb.fetches_per_tick"] =
        static_cast<double>(kind(SpanKind::kFetch).calls) / dticks;
    layer["tsdb.scrape_us"] =
        scrapes > 0 ? static_cast<double>(scrape_ns) / 1e3 /
                          static_cast<double>(scrapes)
                    : 0.0;
    const std::int64_t sim_self_ns =
        host_ns - kind(SpanKind::kTick).total_ns - scrape_ns;
    layer["sim.self_s_per_sim_s"] = static_cast<double>(sim_self_ns) / 1e9 / sim_s;
    const std::uint64_t sim_events = t1.events - t0.events - ticks - scrapes;
    layer["sim.ns_per_event"] =
        sim_events > 0 ? static_cast<double>(sim_self_ns) /
                             static_cast<double>(sim_events)
                       : 0.0;
    if (!stack->log->WriteCsv(options.out_dir + "/spans-" + options.workload + ".csv")) {
      result.problems.push_back("could not write the span file");
    }
  }
  return result;
}

}  // namespace

RunResult RunSimScale(const RunOptions& options) {
  RunResult run;
  // A traced run compares an untraced and a traced pass of at most
  // kTracedSlices slices, which bounds the spans kept in memory.
  const int slices =
      options.trace ? std::min(options.seconds, kTracedSlices) : options.seconds;
  PassResult plain = RunPass(options, slices, /*traced=*/false);
  run.problems = plain.problems;
  run.attempted = plain.attempted;
  run.failed = plain.failed;
  run.info = plain.info;
  if (!options.trace) {
    run.metrics = plain.e2e;
    return run;
  }
  PassResult traced = RunPass(options, slices, /*traced=*/true);
  for (const std::string& p : traced.problems) run.problems.push_back("traced: " + p);
  run.attempted += traced.attempted;
  run.failed += traced.failed;
  // Tracing only observes: the simulated outcome must not move.
  for (const char* name : {"throughput_tps", "latency_p50_ms", "latency_p90_ms",
                           "latency_p99_ms"}) {
    if (plain.e2e[name] != traced.e2e[name]) {
      run.problems.push_back(std::string("tracing changed simulated ") + name);
    }
  }
  if (plain.ops_applied != traced.ops_applied) {
    run.problems.push_back("tracing changed the simulated ops applied");
  }
  run.metrics = traced.layer;
  const double base = plain.e2e["cpu_s_per_sim_s"];
  run.metrics["trace.overhead"] =
      base > 0 ? traced.e2e["cpu_s_per_sim_s"] / base - 1.0 : 0.0;
  return run;
}

}  // namespace perfbench
