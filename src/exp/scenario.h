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

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/sim_time.h"
#include "core/bindings.h"
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

struct SchedulerSpec {
  SchedulerKind kind = SchedulerKind::kOsDefault;
  // Lachesis's policy, translator and period, by core's names. Haren
  // runs binding.policy and refreshes every binding.period. Both UL-SS
  // baselines take only queue-size, fcfs or highest-rate (EdgeWise then
  // runs queue size whatever it names).
  core::BindingSpec binding;
  int ulss_workers = 0;  // 0 -> #cores
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
  // The processing-latency reservoirs of this query's egresses, ms, the
  // one reservoir RunScenario deploys them to keep: every sample up to
  // EgressMeasurements::kMaxSamples tuples per egress, an unbiased sample
  // past it. Fig 13 pools them over a setup's runs, and bench_hetero reads
  // them; the end-to-end latency is kept only as avg_e2e_latency_ms.
  std::vector<double> latency_samples_ms;
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
  std::vector<double> queue_size_samples;       // pooled over ops/time (Fig 6/8)
  std::map<std::string, QueryResult> per_query;  // Fig 13/14/18, bench_hetero
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

// Runs one scenario once.
RunResult RunScenario(const ScenarioSpec& spec);

// Runs `repetitions` with derived seeds; returns all results.
std::vector<RunResult> RunRepetitions(const ScenarioSpec& spec, int repetitions);

}  // namespace lachesis::exp

#endif  // LACHESIS_EXP_SCENARIO_H_
