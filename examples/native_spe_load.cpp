// native_spe_load: self-contained load generator / soak harness for the
// native SPE executor under the real kernel's CFS.
//
// Deploys two queries on spe::NativeRuntime -- a light chain that the
// offered rate sustains and a heavy chain with a costly bottleneck
// operator -- then runs the standard LachesisRunner control loop against
// them through osctl::NativeRuntimeDriver: every period the driver scrapes
// the executor's live metric registry and the policy's schedule is applied
// to the executor's real threads (nice by default). This is the soak
// ci/run_native_smoke.sh runs: without privileges it uses a no-op counting
// adapter (scheduling decisions still flow; the kernel is not touched),
// with privileges (--real-os) it drives the LinuxOsAdapter.
//
// Usage:
//   native_spe_load [--seconds S] [--rate TPS] [--heavy-rate TPS]
//                   [--heavy-cost-us C] [--queue-cap N] [--period-ms M]
//                   [--policy P] [--translator T] [--pin CPU[,CPU...]]
//                   [--real-os]
//
// Prints per-query throughput from the runtime's counters plus the
// *scraped* throughput recomputed from the driver's time-series store, and
// exits nonzero when no traffic flowed (self-gating for CI).
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/runner.h"
#include "osctl/cgroupfs.h"
#include "osctl/daemon_config.h"
#include "osctl/linux_os_adapter.h"
#include "osctl/native_executor.h"
#include "osctl/native_runtime_driver.h"
#include "osctl/nice.h"
#include "spe/native_runtime.h"
#include "tsdb/tsdb.h"

using namespace lachesis;

namespace {

// Counts scheduling operations without touching the OS: the unprivileged
// soak still exercises policy -> translator -> delta -> adapter end to end.
class CountingOsAdapter final : public core::OsAdapter {
 public:
  void SetNice(const core::ThreadHandle&, int) override { ++nice_ops; }
  void SetGroupShares(const std::string&, std::uint64_t) override {
    ++group_ops;
  }
  void MoveToGroup(const core::ThreadHandle&, const std::string&) override {
    ++group_ops;
  }
  void SetRtPriority(const core::ThreadHandle&, int) override { ++rt_ops; }
  std::uint64_t nice_ops = 0;
  std::uint64_t group_ops = 0;
  std::uint64_t rt_ops = 0;
};

std::vector<int> ParsePinList(const char* arg) {
  std::vector<int> cpus;
  std::string token;
  for (const char* p = arg;; ++p) {
    if (*p == ',' || *p == '\0') {
      if (!token.empty()) cpus.push_back(std::stoi(token));
      token.clear();
      if (*p == '\0') break;
    } else {
      token.push_back(*p);
    }
  }
  return cpus;
}

}  // namespace

int main(int argc, char** argv) {
  double seconds = 2.0;
  double rate = 1000.0;
  double heavy_rate = 500.0;
  long heavy_cost_us = 200;
  std::size_t queue_cap = 1024;
  long period_ms = 250;
  std::string policy_name = "queue-size";
  std::string translator_name = "nice";
  std::vector<int> pin_cpus;
  bool real_os = false;
  for (int i = 1; i < argc; ++i) {
    const auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--seconds") == 0) {
      seconds = std::stod(next("--seconds"));
    } else if (std::strcmp(argv[i], "--rate") == 0) {
      rate = std::stod(next("--rate"));
    } else if (std::strcmp(argv[i], "--heavy-rate") == 0) {
      heavy_rate = std::stod(next("--heavy-rate"));
    } else if (std::strcmp(argv[i], "--heavy-cost-us") == 0) {
      heavy_cost_us = std::stol(next("--heavy-cost-us"));
    } else if (std::strcmp(argv[i], "--queue-cap") == 0) {
      queue_cap = static_cast<std::size_t>(std::stoul(next("--queue-cap")));
    } else if (std::strcmp(argv[i], "--period-ms") == 0) {
      period_ms = std::stol(next("--period-ms"));
    } else if (std::strcmp(argv[i], "--policy") == 0) {
      policy_name = next("--policy");
    } else if (std::strcmp(argv[i], "--translator") == 0) {
      translator_name = next("--translator");
    } else if (std::strcmp(argv[i], "--pin") == 0) {
      pin_cpus = ParsePinList(next("--pin"));
    } else if (std::strcmp(argv[i], "--real-os") == 0) {
      real_os = true;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      return 2;
    }
  }

  try {
    // Unknown names fail here, before any executor thread starts.
    core::PolicyBinding binding;
    binding.policy = osctl::MakePolicy(policy_name);
    binding.translator =
        osctl::MakeTranslator(translator_name, osctl::DaemonConfig{});

    spe::NativeRuntimeOptions rt_options;
    rt_options.name = "native-load";
    rt_options.pin_cpus = pin_cpus;
    spe::NativeRuntime runtime(rt_options);

    // Light chain: sustained at the offered rate; the filter halves the
    // stream so per-operator rates are structurally distinct.
    spe::LogicalQuery light;
    light.name = "light";
    {
      const int in = light.Add(spe::MakeIngress("l.in", Micros(5)));
      const int filter = light.Add(spe::MakeTransform(
          "l.filter", Micros(20), [] {
            return std::make_unique<spe::FnLogic>(
                [](const spe::Tuple& t, std::vector<spe::Tuple>& out) {
                  if (t.key % 2 == 0) out.push_back(t);
                });
          }));
      const int sink = light.Add(spe::MakeEgress("l.out", Micros(5)));
      light.Connect(in, filter);
      light.Connect(filter, sink);
    }
    spe::NativeDeployOptions light_deploy;
    light_deploy.source_rate_tps = rate;
    light_deploy.queue_capacity = queue_cap;
    runtime.AddQuery(light, light_deploy);

    // Heavy chain: the bottleneck operator saturates first.
    spe::LogicalQuery heavy;
    heavy.name = "heavy";
    {
      const int in = heavy.Add(spe::MakeIngress("h.in", Micros(5)));
      const int work = heavy.Add(
          spe::MakeTransform("h.work", Micros(heavy_cost_us), nullptr));
      const int sink = heavy.Add(spe::MakeEgress("h.out", Micros(5)));
      heavy.Connect(in, work);
      heavy.Connect(work, sink);
    }
    spe::NativeDeployOptions heavy_deploy;
    heavy_deploy.source_rate_tps = heavy_rate;
    heavy_deploy.queue_capacity = queue_cap;
    runtime.AddQuery(heavy, heavy_deploy);

    runtime.Start();
    osctl::NativeRuntimeDriver driver(runtime);

    CountingOsAdapter counting_os;
    osctl::LinuxNiceController nice;
    osctl::LinuxRtController rt;
    osctl::LinuxDeadlineController deadline;
    osctl::LinuxAffinityController affinity;
    osctl::CgroupController cgroups("/tmp/native-spe-load-cgroup",
                                    osctl::CgroupController::DetectVersion());
    osctl::LinuxOsAdapter linux_os(nice, cgroups, &rt, &deadline, &affinity);
    core::OsAdapter& os = real_os ? static_cast<core::OsAdapter&>(linux_os)
                                  : counting_os;

    osctl::NativeControlExecutor executor;
    core::LachesisRunner runner(executor,
                                os, static_cast<std::uint64_t>(::getpid()));
    binding.period = Millis(period_ms);
    binding.drivers = {&driver};
    runner.AddQuery(std::move(binding));

    int ticks = 0;
    runner.SetTickObserver(
        [&ticks](const core::RunnerTickInfo&) { ++ticks; });

    const SimTime until =
        executor.Now() + static_cast<SimTime>(seconds * 1e9);
    runner.Start(until);
    executor.Run(until);
    runtime.Stop(/*drain=*/false);

    // Runtime-counter truth.
    std::uint64_t total_ingested = 0;
    for (std::size_t q = 0; q < runtime.query_count(); ++q) {
      const std::uint64_t ingested = runtime.TotalIngested(q);
      total_ingested += ingested;
      std::printf(
          "native_spe_load: query %s: source=%llu ingested=%llu emitted=%llu "
          "throughput_tps=%.1f\n",
          runtime.query_name(q).c_str(),
          static_cast<unsigned long long>(runtime.SourceEmitted(q)),
          static_cast<unsigned long long>(ingested),
          static_cast<unsigned long long>(runtime.TotalEmitted(q)),
          static_cast<double>(ingested) / seconds);
    }
    // Scraped truth: recompute ingress throughput from the driver's store,
    // proving the metric registry -> scrape -> tsdb pipeline carried the
    // traffic (what the CI soak asserts).
    double scraped_tps = 0;
    for (const core::EntityInfo& e : driver.Entities()) {
      if (!e.is_ingress) continue;
      const auto d = driver.store().Delta(
          tsdb::SeriesName(e.path, spe::RawMetric::kTuplesIn),
          static_cast<SimDuration>(seconds * 1e9));
      if (d) scraped_tps += *d / seconds;
    }
    std::printf("native_spe_load: ticks=%d nice_ops=%llu pin_failures=%d\n",
                ticks, static_cast<unsigned long long>(counting_os.nice_ops),
                runtime.pin_failures());
    std::printf("native_spe_load: scraped_throughput_tps=%.1f\n", scraped_tps);
    if (total_ingested == 0 || scraped_tps <= 0) {
      std::fprintf(stderr, "native_spe_load: FAIL: no traffic flowed\n");
      return 1;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "native_spe_load: %s\n", e.what());
    return 1;
  }
  return 0;
}
