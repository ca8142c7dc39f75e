// Experiment harness (paper §6.1, "Evaluation Setup").
//
// A scenario deploys workloads on simulated machines under one of the
// compared schedulers (default OS, Lachesis with a policy+translator, or a
// UL-SS baseline), runs warmup + measurement windows, and reports the
// paper's §3.2 metrics plus per-policy goal values. Repetitions with
// distinct seeds are aggregated with 95% confidence intervals by the bench
// binaries.
#ifndef LACHESIS_EXP_SCENARIO_H_
#define LACHESIS_EXP_SCENARIO_H_

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/hdr_histogram.h"
#include "common/sim_time.h"
#include "core/policies.h"
#include "core/runner.h"
#include "queries/workload.h"
#include "spe/flavor.h"
#include "ulss/ulss.h"

namespace lachesis::exp {

enum class SchedulerKind {
  kOsDefault,   // plain CFS, all nice 0, root cgroup
  kLachesis,    // the middleware
  kEdgeWise,    // UL-SS baseline (fixed QS)
  kHaren,       // UL-SS baseline (pluggable policies, fresh metrics)
};

enum class PolicyKind {
  kQueueSize,
  kHighestRate,
  kFcfs,
  kRandom,
  kMinMemory,
  kPressureStall,  // §8 future work: PSI-driven
};

enum class TranslatorKind {
  kNice,             // single-priority -> thread nice
  kCpuShares,        // one cgroup per operator
  kQuerySharesNice,  // cgroup per query + nice within (Fig 18)
  kQuota,            // §8: hard CFS-bandwidth budgets per operator group
  kRtNice,           // §8: RT-boost the top operator + nice for the rest
  kDeadline,         // SCHED_DEADLINE reservations for critical ops + nice
};

struct SchedulerSpec {
  SchedulerKind kind = SchedulerKind::kOsDefault;
  PolicyKind policy = PolicyKind::kQueueSize;
  TranslatorKind translator = TranslatorKind::kNice;
  SimDuration period = Seconds(1);  // Lachesis scheduling / Haren refresh
  int ulss_workers = 0;             // 0 -> #cores
  // Queries whose operators are tagged latency-critical (the policy is
  // wrapped in core::CriticalChainPolicy). Feeds the deadline/RT
  // translators' reservation choice; priority-only translators ignore it.
  std::vector<std::string> critical_queries;
  // SCHED_DEADLINE reservation shape for TranslatorKind::kDeadline.
  SimDuration dl_runtime = Millis(4);
  SimDuration dl_period = Millis(10);
};

struct WorkloadSpec {
  queries::Workload workload;
  double rate_tps = 1000;  // offered load of this workload's Data Source
  int parallelism = 1;     // fission multiplier (Fig 17)
  // Runs this workload on its own engine flavor (multi-SPE scenario,
  // Fig 18); defaults to the scenario flavor.
  std::optional<spe::SpeFlavor> flavor_override;
};

struct ScenarioSpec {
  std::string label;
  int cores = 4;  // Odroid big cores; 8 for the server experiment
  int nodes = 1;  // scale-out (Fig 17)
  spe::SpeFlavor flavor = spe::StormFlavor();
  std::vector<WorkloadSpec> workloads;
  SchedulerSpec scheduler;
  SimDuration warmup = Seconds(5);
  SimDuration measure = Seconds(20);
  SimDuration scrape_period = Seconds(1);
  std::uint64_t seed = 1;
  // Flink chaining toggle (paper disables chaining; see Fig 11 footnote).
  bool chaining = false;
  // Per-core relative capacities for heterogeneous (big.LITTLE) nodes, in
  // (0, 1]; empty = symmetric full-capacity cores. Applied to every node.
  std::vector<double> core_capacities;
  // When false, the simulated kernel places work capacity-blind (the
  // control arm of the heterogeneity benches).
  bool capacity_aware = true;
};

struct QueryResult {
  double throughput_tps = 0;      // ingested tuples/s in the window
  double offered_tps = 0;         // source emission rate achieved
  double avg_latency_ms = 0;      // processing latency
  double avg_e2e_latency_ms = 0;  // end-to-end latency
  std::vector<double> latency_samples_ms;  // processing-latency reservoir
};

struct RunResult {
  // Aggregate over all workloads (sum of ingress throughputs, latency
  // averages over all egresses -- §6.1 "Metrics").
  double throughput_tps = 0;
  double avg_latency_ms = 0;
  double avg_e2e_latency_ms = 0;
  // Policy goal values (§6.1 "we also present the values of the goal"):
  double qs_goal = 0;    // time-avg variance of operator input queue sizes
  double fcfs_goal_ms = 0;  // time-avg max head-of-line tuple age
  double cpu_utilization = 0;  // fraction of total core time busy
  std::vector<double> latency_samples_ms;       // pooled reservoir (Fig 13)
  HdrHistogram latency_histogram_ns;            // exact tails (p99/p99.9)
  std::vector<double> queue_size_samples;       // pooled over ops/time (Fig 6/8)
  std::map<std::string, QueryResult> per_query;  // Fig 14/18
  std::uint64_t lachesis_schedules = 0;
  // Delta-layer counters: OS operations the middleware issued vs. elided
  // because the schedule was unchanged since the last period.
  std::uint64_t lachesis_ops_applied = 0;
  std::uint64_t lachesis_ops_skipped = 0;
  std::uint64_t lachesis_ops_errors = 0;
  // Ingested tuples/s per node (index = node), summing the ingress replicas
  // placed there. The aggregate hides per-node regressions at higher
  // fission degrees; Fig 17 reports both.
  std::vector<double> per_node_throughput_tps;
};

// The Lachesis binding `spec` describes: its policy (wrapped in
// core::CriticalChainPolicy when critical_queries is set), its translator
// (the deadline translator reserves dl_runtime every dl_period) and its
// period, over `drivers` and `filter`. Shared with the fleet harness
// (exp/fleet.h); throws std::invalid_argument on unknown kinds.
core::PolicyBinding MakeBinding(
    const SchedulerSpec& spec, std::vector<core::SpeDriver*> drivers,
    std::function<bool(const core::EntityInfo&)> filter = {});

// Runs one scenario once.
RunResult RunScenario(const ScenarioSpec& spec);

// Runs `repetitions` with derived seeds; returns all results.
std::vector<RunResult> RunRepetitions(const ScenarioSpec& spec, int repetitions);

}  // namespace lachesis::exp

#endif  // LACHESIS_EXP_SCENARIO_H_
