// Reproduces Fig 14: multi-query scheduling of the 20 SYN queries on the
// Liebre flavor, comparing the OS, the Haren UL-SS (50 ms decisions, fresh
// in-engine metrics) and Lachesis (1 s decisions, scraped metrics), each
// under the QS, FCFS and HR policies. With 100 operators nice's 40 levels
// are insufficient, so Lachesis uses the cpu.shares translator with one
// cgroup per operator (paper §6.4).
//
// Paper shape: Lachesis lands between OS and Haren on most metrics -- QS
// and FCFS keep queues small (up to +12% throughput, 25x lower latency,
// 66x lower e2e vs OS); HR helps less (it optimizes its goal indirectly);
// Haren wins overall thanks to 20x more frequent decisions on fresher
// metrics (examined further in Fig 15).
#include "bench/bench_common.h"
#include "queries/synthetic.h"

int main() {
  using namespace lachesis;
  using namespace lachesis::bench;

  const auto mode = BenchMode::FromEnv();
  const auto factory = [](double total_rate) {
    exp::ScenarioSpec spec;
    spec.cores = 4;
    spec.flavor = spe::LiebreFlavor();
    queries::SyntheticConfig config;
    auto workloads = queries::MakeSynthetic(config);
    for (auto& workload : workloads) {
      exp::WorkloadSpec w;
      w.workload = std::move(workload);
      w.rate_tps = total_rate / config.num_queries;
      spec.workloads.push_back(std::move(w));
    }
    return spec;
  };

  std::vector<Variant> variants;
  variants.push_back({"OS", {}});
  for (const auto& [label, policy] :
       {std::pair{"HAREN-QS", "queue-size"},
        std::pair{"HAREN-FCFS", "fcfs"},
        std::pair{"HAREN-HR", "highest-rate"}}) {
    exp::SchedulerSpec haren;
    haren.kind = exp::SchedulerKind::kHaren;
    haren.binding.policy = policy;
    haren.binding.period = Millis(50);
    variants.push_back({label, haren});
  }
  for (const auto& [label, policy] :
       {std::pair{"LACHESIS-QS", "queue-size"},
        std::pair{"LACHESIS-FCFS", "fcfs"},
        std::pair{"LACHESIS-HR", "highest-rate"}}) {
    exp::SchedulerSpec lachesis;
    lachesis.kind = exp::SchedulerKind::kLachesis;
    lachesis.binding.policy = policy;
    lachesis.binding.translator = "cpu.shares";
    lachesis.binding.period = Seconds(1);
    variants.push_back({label, lachesis});
  }

  const std::vector<double> rates =
      mode.full ? std::vector<double>{3000, 4500, 5500, 6000, 6500, 7000, 7500}
                : std::vector<double>{4500, 6000, 7000};

  const SweepResult sweep = RunAndPrintSweep(
      "Fig 14: 20 SYN queries @ Liebre (aggregate rate)", factory, rates,
      variants, mode);
  PrintMetricTable("Fig 14 | FCFS goal (max head-of-line age, ms)", rates,
                   variants, sweep,
                   [](const exp::RunResult& r) { return r.fcfs_goal_ms; });
  return 0;
}
