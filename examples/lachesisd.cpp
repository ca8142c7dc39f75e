// lachesisd: the standalone middleware daemon for real hosts.
//
// Reads a config file describing one or more unmodified engine processes
// (pids, operator thread-name patterns, the graphite-plaintext metrics file
// they export to) and a policy/translator choice, then runs the SAME
// LachesisRunner loop the simulator uses -- on the native control executor
// (monotonic clock) with the Linux OS adapter (nice / cgroups) behind the
// schedule-delta layer, so unchanged schedules cost zero syscalls and a
// vanished thread never aborts a tick. osctl::DaemonStack builds all of it
// from the config; this file keeps argv, signals, trace dumps, the metrics
// textfile and the logs.
//
// Usage:
//   lachesisd <config-file> [--dry-run] [--iterations N] [--trace FILE]
// --dry-run logs the schedule instead of touching the OS (no privileges
// needed); --iterations runs N >= 1 periods, then prints totals and exits;
// see src/osctl/daemon_config.h for the config format and
// docs/OPERATIONS.md for the full operator guide (signals, observability,
// tuning).
//
// Observability: SIGUSR1 dumps a Chrome-trace JSON of the provenance ring
// to the configured trace file (config `trace_file` or --trace); the same
// dump also happens at exit and, when `trace_every_ticks` > 0, every N
// ticks (the previous dump is rotated to <file>.1). `metrics_textfile`
// exports the self-metrics catalog in Prometheus textfile format.
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "core/runner.h"
#include "obs/self_metrics.h"
#include "obs/trace_export.h"
#include "osctl/daemon_config.h"
#include "osctl/daemon_stack.h"
#include "osctl/linux_os_adapter.h"
#include "spe/native_runtime.h"

using namespace lachesis;

namespace {

// SIGUSR1 = "dump the provenance trace now"; the handler only sets a flag,
// the dump happens on the next tick boundary (signal-safe).
volatile std::sig_atomic_t g_trace_requested = 0;
void HandleTraceSignal(int) { g_trace_requested = 1; }

// Adapter that only logs -- for --dry-run and unprivileged smoke tests.
// A thread the driver never resolved (os_tid < 0) fails as it does in
// LinuxOsAdapter: the log says that nothing is set, and the op counts as an
// error, not as applied.
class LoggingOsAdapter final : public core::OsAdapter {
 public:
  void SetNice(const core::ThreadHandle& thread, int nice) override {
    if (thread.os_tid < 0) {
      std::printf("  thread not resolved: nice not set\n");
    }
    osctl::RequireResolved(thread, "nice");
    std::printf("  would set nice(%ld) = %d\n", thread.os_tid, nice);
  }
  void SetGroupShares(const std::string& group, std::uint64_t shares) override {
    std::printf("  would set %s cpu.shares = %llu\n", group.c_str(),
                static_cast<unsigned long long>(shares));
  }
  void MoveToGroup(const core::ThreadHandle& thread,
                   const std::string& group) override {
    if (thread.os_tid < 0) {
      std::printf("  thread not resolved: cgroup not set\n");
    }
    osctl::RequireResolved(thread, "cgroup");
    std::printf("  would move tid %ld into %s\n", thread.os_tid, group.c_str());
  }
  void SetRtPriority(const core::ThreadHandle& thread, int priority) override {
    if (thread.os_tid < 0) {
      std::printf("  thread not resolved: SCHED_FIFO not set\n");
    }
    osctl::RequireResolved(thread, "SCHED_FIFO");
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
    if (thread.os_tid < 0) {
      std::printf("  thread not resolved: SCHED_DEADLINE not set\n");
    }
    osctl::RequireResolved(thread, "SCHED_DEADLINE");
    std::printf("  would set SCHED_DEADLINE(%ld) = %lld/%lld/%lld us\n",
                thread.os_tid, static_cast<long long>(runtime / kMicrosecond),
                static_cast<long long>(deadline / kMicrosecond),
                static_cast<long long>(period / kMicrosecond));
  }
  void SetCpuAffinity(const core::ThreadHandle& thread,
                      core::CpuPreference pref) override {
    if (thread.os_tid < 0) {
      std::printf("  thread not resolved: affinity not set\n");
    }
    osctl::RequireResolved(thread, "affinity");
    const char* name = pref == core::CpuPreference::kPreferBig ? "big"
                       : pref == core::CpuPreference::kPreferLittle
                           ? "little"
                           : "any";
    std::printf("  would bind tid %ld to %s cores\n", thread.os_tid, name);
  }
};

// --iterations takes a whole positive count of periods; strtol alone would
// read "abc" as 0, "5x" as 5 and "-3" as "forever".
bool ParseIterations(const char* text, long* out) {
  char* end = nullptr;
  errno = 0;
  *out = std::strtol(text, &end, 10);
  return *text >= '0' && *text <= '9' && *end == '\0' && errno == 0 &&
         *out >= 1;
}

}  // namespace

int main(int argc, char** argv) {
  // Line-buffered even into a file or a pipe: each tick line shows when it
  // happens, and a SIGTERM (default action) throws no buffered lines away.
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  const auto usage = [argv] {
    std::fprintf(stderr,
                 "usage: %s <config-file> [--dry-run] [--iterations N] "
                 "[--trace FILE]\n",
                 argv[0]);
    return 2;
  };
  if (argc < 2) return usage();
  bool dry_run = false;
  long iterations = -1;  // forever
  std::string trace_override;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--dry-run") == 0) {
      dry_run = true;
    } else if (std::strcmp(argv[i], "--iterations") == 0 && i + 1 < argc) {
      if (!ParseIterations(argv[++i], &iterations)) {
        std::fprintf(stderr,
                     "--iterations needs a whole number >= 1, got %s\n",
                     argv[i]);
        return usage();
      }
    } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace_override = argv[++i];
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      return 2;
    }
  }

  try {
    const osctl::DaemonConfig config = osctl::LoadDaemonConfig(argv[1]);
    LoggingOsAdapter logging_os;
    osctl::DaemonStack stack(config, dry_run ? &logging_os : nullptr);
    if (const auto* runtime = stack.runtime()) {
      std::printf(
          "lachesisd: native executor serving %zu queries "
          "(%zu operator threads, %zu sources)\n",
          runtime->query_count(), runtime->ops().size(),
          runtime->sources().size());
    }
    std::printf("lachesisd: policy=%s translator=%s period=%ldms%s\n",
                config.binding.policy.c_str(),
                config.binding.translator.c_str(),
                static_cast<long>(config.binding.period / kMillisecond),
                dry_run ? " (dry run)" : "");

    core::LachesisRunner& runner = stack.runner();
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

    if (config.reconcile && !dry_run) {
      const std::size_t seeded = stack.Reconcile();
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

    stack.Run(iterations);
    stack.Stop();
    for (const osctl::NativeQueryTotals& query : stack.NativeTotals()) {
      std::printf(
          "lachesisd: native query '%s': source=%llu ingested=%llu "
          "emitted=%llu scraped_tps=%.1f\n",
          query.name.c_str(),
          static_cast<unsigned long long>(query.source_emitted),
          static_cast<unsigned long long>(query.ingested),
          static_cast<unsigned long long>(query.emitted), query.scraped_tps);
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
