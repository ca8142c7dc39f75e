// The native stack lachesisd runs, built from one DaemonConfig.
//
// A DaemonStack owns everything between a parsed config and a running
// control loop: the NativeSpeDriver for external engines ([query]
// sections), the in-process NativeRuntime serving [native-query] chains
// and its NativeRuntimeDriver, the OS adapter, the NativeControlExecutor
// and the LachesisRunner with lachesisd's single binding (the configured
// policy and translator, the degradation ladder, the health and recorder
// knobs). Callers choose only the adapter and how long to run; lachesisd
// keeps its argv, signals, trace dumps and logs around one of these.
#ifndef LACHESIS_OSCTL_DAEMON_STACK_H_
#define LACHESIS_OSCTL_DAEMON_STACK_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/os_adapter.h"
#include "core/runner.h"
#include "osctl/daemon_config.h"
#include "osctl/linux_os_adapter.h"
#include "osctl/native_executor.h"

namespace lachesis::spe {
class NativeRuntime;
}

namespace lachesis::osctl {

class NativeRuntimeDriver;

// What one [native-query] served.
struct NativeQueryTotals {
  std::string name;
  std::uint64_t source_emitted = 0;
  std::uint64_t ingested = 0;
  std::uint64_t emitted = 0;
  // Ingress tuples per second since the executor started, read back from
  // the newest sample the driver scraped into its time-series store. It is
  // positive only when the registry -> scrape -> store path carried the
  // traffic.
  double scraped_tps = 0;
};

class DaemonStack {
 public:
  // Builds the stack and starts the native executor. With `os` null the
  // schedule goes through the stack's own LinuxOsAdapter (nice, RT,
  // deadline and affinity controllers, cgroups under config.cgroup_root,
  // the big/little core classes); otherwise through `os`, which must
  // outlive the stack (lachesisd's dry-run logger, a test's recorder).
  explicit DaemonStack(const DaemonConfig& config,
                       core::OsAdapter* os = nullptr);
  ~DaemonStack();

  DaemonStack(const DaemonStack&) = delete;
  DaemonStack& operator=(const DaemonStack&) = delete;

  // Crash-safe restart: polls both drivers, then seeds the delta cache from
  // what the kernel already holds (nice values, RT classes, Lachesis
  // cgroups of a previous incarnation), so an unchanged schedule costs no
  // operation on the first tick and orphaned groups are adopted, not
  // fought. Returns the entries seeded.
  std::size_t Reconcile();

  // Runs the control loop on this thread for `periods` scheduling periods,
  // with half a period of slack so start-up latency cannot push the last
  // tick past the deadline; periods < 0 runs until the executor is
  // stopped. Call once.
  void Run(long periods);

  // Stops the native executor without draining; idempotent.
  void Stop();

  // Each [native-query]'s totals in config order; read them after Stop().
  [[nodiscard]] std::vector<NativeQueryTotals> NativeTotals();

  [[nodiscard]] core::LachesisRunner& runner() { return runner_; }
  // The in-process executor; null without [native-query] sections.
  [[nodiscard]] const spe::NativeRuntime* runtime() const {
    return runtime_.get();
  }

 private:
  SimDuration period_;
  NativeControlExecutor executor_;
  SimTime runtime_started_ = 0;  // executor time of the runtime's Start
  // Destroyed bottom-up: first the runner, which holds the executor, the
  // adapter and the drivers; then the adapter, the drivers, and the
  // runtime whose operators the drivers read.
  std::unique_ptr<spe::NativeRuntime> runtime_;
  std::unique_ptr<NativeSpeDriver> file_driver_;
  std::unique_ptr<NativeRuntimeDriver> exec_driver_;
  LinuxNiceController nice_;
  LinuxRtController rt_;
  LinuxDeadlineController deadline_;
  LinuxAffinityController affinity_;
  // An empty cgroup_root leaves cgroup mechanisms unavailable: every
  // write fails, so the cgroup breaker opens and the ladder degrades.
  CgroupController cgroups_;
  LinuxOsAdapter linux_os_;  // unused when `os` was passed in
  core::LachesisRunner runner_;
};

}  // namespace lachesis::osctl

#endif  // LACHESIS_OSCTL_DAEMON_STACK_H_
