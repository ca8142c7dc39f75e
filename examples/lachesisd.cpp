// lachesisd: the standalone middleware daemon for real hosts.
//
// Reads a config file describing one or more unmodified engine processes
// (pids, operator thread-name patterns, the graphite-plaintext metrics file
// they export to) and a policy/translator choice, then runs the SAME
// LachesisRunner loop the simulator uses -- on the native control executor
// (monotonic clock) with the Linux OS adapter (nice / cgroups) behind the
// schedule-delta layer, so unchanged schedules cost zero syscalls and a
// vanished thread never aborts a tick.
//
// Usage:
//   lachesisd <config-file> [--dry-run] [--iterations N] [--trace FILE]
// --dry-run logs the schedule instead of touching the OS (no privileges
// needed); see src/osctl/daemon_config.h for the config format and
// docs/OPERATIONS.md for the full operator guide (signals, observability,
// tuning).
//
// Observability: SIGUSR1 dumps a Chrome-trace JSON of the provenance ring
// to the configured trace file (config `trace_file` or --trace); the same
// dump also happens at exit and, when `trace_every_ticks` > 0, every N
// ticks (the previous dump is rotated to <file>.1). `metrics_textfile`
// exports the self-metrics catalog in Prometheus textfile format.
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <stdexcept>
#include <vector>

#include "core/policies.h"
#include "core/runner.h"
#include "core/translators.h"
#include "obs/self_metrics.h"
#include "obs/trace_export.h"
#include "osctl/cgroupfs.h"
#include "osctl/daemon_config.h"
#include "osctl/linux_os_adapter.h"
#include "osctl/native_driver.h"
#include "osctl/native_executor.h"
#include "osctl/native_runtime_driver.h"
#include "osctl/nice.h"
#include "spe/native_runtime.h"

using namespace lachesis;

namespace {

// SIGUSR1 = "dump the provenance trace now"; the handler only sets a flag,
// the dump happens on the next tick boundary (signal-safe).
volatile std::sig_atomic_t g_trace_requested = 0;
void HandleTraceSignal(int) { g_trace_requested = 1; }

// Adapter that only logs -- for --dry-run and unprivileged smoke tests.
class LoggingOsAdapter final : public core::OsAdapter {
 public:
  void SetNice(const core::ThreadHandle& thread, int nice) override {
    std::printf("  would set nice(%ld) = %d\n", thread.os_tid, nice);
  }
  void SetGroupShares(const std::string& group, std::uint64_t shares) override {
    std::printf("  would set %s cpu.shares = %llu\n", group.c_str(),
                static_cast<unsigned long long>(shares));
  }
  void MoveToGroup(const core::ThreadHandle& thread,
                   const std::string& group) override {
    std::printf("  would move tid %ld into %s\n", thread.os_tid, group.c_str());
  }
  void SetRtPriority(const core::ThreadHandle& thread, int priority) override {
    std::printf("  would set SCHED_FIFO(%ld) = %d\n", thread.os_tid, priority);
  }
  void SetGroupQuota(const std::string& group, SimDuration quota,
                     SimDuration period) override {
    std::printf("  would set %s cpu.max = %lld/%lld us\n", group.c_str(),
                static_cast<long long>(quota / kMicrosecond),
                static_cast<long long>(period / kMicrosecond));
  }
  void SetDeadline(const core::ThreadHandle& thread, SimDuration runtime,
                   SimDuration deadline, SimDuration period) override {
    std::printf("  would set SCHED_DEADLINE(%ld) = %lld/%lld/%lld us\n",
                thread.os_tid, static_cast<long long>(runtime / kMicrosecond),
                static_cast<long long>(deadline / kMicrosecond),
                static_cast<long long>(period / kMicrosecond));
  }
  void SetCpuAffinity(const core::ThreadHandle& thread,
                      core::CpuPreference pref) override {
    const char* name = pref == core::CpuPreference::kPreferBig ? "big"
                       : pref == core::CpuPreference::kPreferLittle
                           ? "little"
                           : "any";
    std::printf("  would bind tid %ld to %s cores\n", thread.os_tid, name);
  }
};

// The configured policy; critical_queries tags those queries' operators
// latency-critical so deadline/RT translators give them hard guarantees.
std::unique_ptr<core::SchedulingPolicy> BuildPolicy(
    const osctl::DaemonConfig& config) {
  std::unique_ptr<core::SchedulingPolicy> policy =
      osctl::MakePolicy(config.policy);
  if (!config.critical_queries.empty()) {
    policy = std::make_unique<core::CriticalChainPolicy>(
        std::move(policy), config.critical_queries);
  }
  return policy;
}

// The configured translator; with a big.LITTLE topology configured, it is
// decorated with big-core placement hints for the highest-priority /
// critical operators.
std::unique_ptr<core::Translator> BuildTranslator(
    const osctl::DaemonConfig& config) {
  std::unique_ptr<core::Translator> translator =
      osctl::MakeTranslator(config.translator, config);
  if (!config.big_cores.empty()) {
    translator =
        std::make_unique<core::CapacityHintTranslator>(std::move(translator));
  }
  return translator;
}

// Capability degradation ladder (best-first): mechanisms the runner falls
// back to when the configured translator's mechanism is persistently
// failing (e.g. no CAP_SYS_NICE for SCHED_FIFO, unwritable cgroup root).
// nice is the last resort everywhere: it needs no privileges for lowering
// priority and no filesystem.
std::vector<std::unique_ptr<core::Translator>> MakeFallbacks(
    const std::string& name) {
  std::vector<std::unique_ptr<core::Translator>> fallbacks;
  if (name == "deadline") {
    // A reservation needs sched_setattr + admission headroom; degrade to an
    // RT boost (same "critical work preempts" intent), then weights.
    fallbacks.push_back(std::make_unique<core::RtBoostTranslator>());
    fallbacks.push_back(std::make_unique<core::CpuSharesTranslator>());
    fallbacks.push_back(std::make_unique<core::NiceTranslator>());
  } else if (name == "rt") {
    fallbacks.push_back(std::make_unique<core::CpuSharesTranslator>());
    fallbacks.push_back(std::make_unique<core::NiceTranslator>());
  } else if (name == "cpu.shares" || name == "quota") {
    fallbacks.push_back(std::make_unique<core::NiceTranslator>());
  }
  return fallbacks;
}

// A [native-query] section describes a linear chain; first operator is the
// ingress, last the egress.
spe::LogicalQuery BuildNativeChain(const osctl::NativeChainConfig& chain) {
  spe::LogicalQuery query;
  query.name = chain.name;
  int prev = -1;
  for (std::size_t i = 0; i < chain.operators.size(); ++i) {
    const osctl::NativeChainOp& opc = chain.operators[i];
    spe::LogicalOperator op;
    op.name = opc.name;
    op.role = i == 0 ? spe::OperatorRole::kIngress
              : i + 1 == chain.operators.size() ? spe::OperatorRole::kEgress
                                                : spe::OperatorRole::kTransform;
    op.cost = Micros(opc.cost_us);
    const int index = query.Add(std::move(op));
    if (prev >= 0) query.Connect(prev, index);
    prev = index;
  }
  return query;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: %s <config-file> [--dry-run] [--iterations N]\n",
                 argv[0]);
    return 2;
  }
  bool dry_run = false;
  long iterations = -1;  // forever
  std::string trace_override;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--dry-run") == 0) {
      dry_run = true;
    } else if (std::strcmp(argv[i], "--iterations") == 0 && i + 1 < argc) {
      iterations = std::strtol(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace_override = argv[++i];
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      return 2;
    }
  }

  try {
    const osctl::DaemonConfig config = osctl::LoadDaemonConfig(argv[1]);
    // External engine processes ([query ...] sections): /proc + graphite.
    std::unique_ptr<osctl::NativeSpeDriver> file_driver;
    if (!config.spe.queries.empty()) {
      file_driver = std::make_unique<osctl::NativeSpeDriver>(config.spe);
    }
    // In-process native executor ([native-query ...] sections): the daemon
    // itself serves traffic, and the control plane schedules its threads.
    std::unique_ptr<spe::NativeRuntime> runtime;
    std::unique_ptr<osctl::NativeRuntimeDriver> exec_driver;
    if (!config.native_queries.empty()) {
      spe::NativeRuntimeOptions rt_options;
      rt_options.name = "native-exec";
      rt_options.pin_cpus = config.native_pin_cores;
      runtime = std::make_unique<spe::NativeRuntime>(rt_options);
      for (const osctl::NativeChainConfig& chain : config.native_queries) {
        spe::NativeDeployOptions deploy;
        deploy.source_rate_tps = chain.rate_tps;
        deploy.queue_capacity = static_cast<std::size_t>(chain.queue_capacity);
        deploy.source_channel_capacity =
            static_cast<std::size_t>(chain.source_channel);
        runtime->AddQuery(BuildNativeChain(chain), deploy);
      }
      runtime->Start();
      exec_driver = std::make_unique<osctl::NativeRuntimeDriver>(*runtime);
      std::printf(
          "lachesisd: native executor serving %zu queries "
          "(%zu operator threads, %zu sources)\n",
          runtime->query_count(), runtime->ops().size(),
          runtime->sources().size());
    }
    auto policy = BuildPolicy(config);
    auto translator = BuildTranslator(config);

    osctl::LinuxNiceController nice;
    osctl::LinuxRtController rt;
    osctl::LinuxDeadlineController deadline;
    osctl::LinuxAffinityController affinity;
    // An empty cgroup_root leaves cgroup mechanisms unavailable: every
    // write fails, so the cgroup breaker opens and the ladder degrades.
    osctl::CgroupController cgroups(config.cgroup_root,
                                    osctl::CgroupController::DetectVersion());
    osctl::LinuxOsAdapter real_os(nice, cgroups, &rt, &deadline, &affinity);
    real_os.SetCoreClasses(config.big_cores, config.little_cores);
    LoggingOsAdapter logging_os;
    core::OsAdapter& os =
        dry_run ? static_cast<core::OsAdapter&>(logging_os) : real_os;

    std::printf("lachesisd: policy=%s translator=%s period=%ldms%s\n",
                config.policy.c_str(), config.translator.c_str(),
                config.period_ms, dry_run ? " (dry run)" : "");

    // The backend-agnostic control plane: the identical runner the
    // simulator exercises, on monotonic time. The driver's Poll refreshes
    // /proc discovery and the metrics file once per due period.
    osctl::NativeControlExecutor executor;
    core::LachesisRunner runner(executor, os,
                                static_cast<std::uint64_t>(::getpid()));

    core::HealthConfig health;
    health.enabled = true;
    health.backoff_base = Millis(config.backoff_base_ms);
    health.backoff_cap = Millis(config.backoff_cap_ms);
    health.breaker_threshold = static_cast<int>(config.breaker_threshold);
    health.probe_interval = Millis(config.breaker_probe_ms);
    health.seed = static_cast<std::uint64_t>(::getpid());
    runner.SetHealthConfig(health);

    runner.recorder().SetRingCapacity(
        static_cast<std::size_t>(config.obs_ring_capacity));
    runner.recorder().set_verbose(config.obs_verbose);
    const std::string trace_path =
        trace_override.empty() ? config.trace_file : trace_override;
    const auto dump_trace = [&runner, &trace_path](const char* reason) {
      if (trace_path.empty()) {
        std::printf("lachesisd: trace requested (%s) but no trace file "
                    "configured (set trace_file or --trace)\n",
                    reason);
        return;
      }
      // Keep one previous dump: <file> -> <file>.1.
      std::rename(trace_path.c_str(), (trace_path + ".1").c_str());
      if (obs::DumpChromeTrace(runner.recorder(), trace_path,
                               core::LachesisRunner::OpClassNameForObs)) {
        std::printf("lachesisd: %s: wrote trace to %s (%llu events, %llu "
                    "evicted)\n",
                    reason, trace_path.c_str(),
                    static_cast<unsigned long long>(
                        runner.recorder().total_recorded()),
                    static_cast<unsigned long long>(
                        runner.recorder().dropped()));
      } else {
        std::fprintf(stderr, "lachesisd: failed to write trace to %s\n",
                     trace_path.c_str());
      }
    };
    const auto write_metrics = [&runner, &config] {
      if (config.metrics_textfile.empty()) return;
      if (!obs::WritePrometheusTextfile(runner.CollectSelfMetrics(),
                                        config.metrics_textfile)) {
        std::fprintf(stderr, "lachesisd: failed to write metrics to %s\n",
                     config.metrics_textfile.c_str());
      }
    };
    std::signal(SIGUSR1, HandleTraceSignal);

    core::PolicyBinding binding;
    binding.policy = std::move(policy);
    binding.translator = std::move(translator);
    if (config.degradation) {
      binding.fallback_translators = MakeFallbacks(config.translator);
    }
    binding.period = Millis(config.period_ms);
    if (file_driver != nullptr) binding.drivers.push_back(file_driver.get());
    if (exec_driver != nullptr) binding.drivers.push_back(exec_driver.get());
    runner.AddQuery(std::move(binding));

    // Crash-safe restart: observe what the kernel already holds (nice
    // values, RT classes, surviving Lachesis cgroups from a previous
    // incarnation) and seed the delta cache from it, so an unchanged
    // schedule costs zero operations on the first tick and orphaned
    // groups are adopted instead of fought.
    if (config.reconcile && !dry_run) {
      if (file_driver != nullptr) file_driver->Poll(executor.Now());
      if (exec_driver != nullptr) exec_driver->Poll(executor.Now());
      const std::size_t seeded = runner.ReconcileWithBackend();
      std::printf("lachesisd: reconciled %zu kernel state entries, adopted "
                  "%zu cgroups\n",
                  seeded, runner.delta().adopted_groups());
    }

    long tick = 0;
    runner.SetTickObserver([&tick, &config, &dump_trace, &write_metrics](
                               const core::RunnerTickInfo& info) {
      std::printf(
          "tick %ld @%.3fs: policies=%d ops applied=%llu skipped=%llu "
          "errors=%llu suppressed=%llu%s%s\n",
          tick++, static_cast<double>(info.now) / 1e9, info.policies_run,
          static_cast<unsigned long long>(info.delta.applied),
          static_cast<unsigned long long>(info.delta.skipped),
          static_cast<unsigned long long>(info.delta.errors),
          static_cast<unsigned long long>(info.delta.suppressed),
          info.open_breakers > 0 ? " [breaker open]" : "",
          info.degraded_bindings > 0 ? " [degraded]" : "");
      if (g_trace_requested != 0) {
        g_trace_requested = 0;
        dump_trace("SIGUSR1");
      }
      if (config.trace_every_ticks > 0 &&
          tick % config.trace_every_ticks == 0) {
        dump_trace("periodic");
      }
      if (tick % config.metrics_every_ticks == 0) write_metrics();
    });

    // Half a period of slack so startup latency cannot push the Nth tick
    // past the deadline.
    const SimTime until =
        iterations < 0 ? std::numeric_limits<SimTime>::max()
                       : executor.Now() +
                             iterations * Millis(config.period_ms) +
                             Millis(config.period_ms) / 2;
    runner.Start(until);
    executor.Run(until);

    if (runtime != nullptr) {
      runtime->Stop(/*drain=*/false);
      for (std::size_t q = 0; q < runtime->query_count(); ++q) {
        std::printf(
            "lachesisd: native query '%s': source=%llu ingested=%llu "
            "emitted=%llu\n",
            runtime->query_name(q).c_str(),
            static_cast<unsigned long long>(runtime->SourceEmitted(q)),
            static_cast<unsigned long long>(runtime->TotalIngested(q)),
            static_cast<unsigned long long>(runtime->TotalEmitted(q)));
      }
    }

    const core::DeltaStats& totals = runner.delta_totals();
    std::printf(
        "lachesisd: %llu schedules, ops applied=%llu skipped=%llu "
        "errors=%llu suppressed=%llu\n",
        static_cast<unsigned long long>(runner.schedules_applied()),
        static_cast<unsigned long long>(totals.applied),
        static_cast<unsigned long long>(totals.skipped),
        static_cast<unsigned long long>(totals.errors),
        static_cast<unsigned long long>(totals.suppressed));
    if (!trace_path.empty()) dump_trace("exit");
    write_metrics();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "lachesisd: %s\n", e.what());
    return 1;
  }
  return 0;
}
