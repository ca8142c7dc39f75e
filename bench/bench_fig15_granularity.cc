// Reproduces Fig 15: the effect of scheduling granularity on Haren. When
// Haren is forced to Lachesis' 1-second decision period (HAREN-1000), its
// advantage from fine-grained fresh metrics disappears and it becomes
// comparable to (or worse than) Lachesis (paper §6.4).
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
  {
    exp::SchedulerSpec haren50;
    haren50.kind = exp::SchedulerKind::kHaren;
    haren50.binding.policy = "fcfs";
    haren50.binding.period = Millis(50);
    variants.push_back({"HAREN-50", haren50});
  }
  {
    exp::SchedulerSpec haren1000;
    haren1000.kind = exp::SchedulerKind::kHaren;
    haren1000.binding.policy = "fcfs";
    haren1000.binding.period = Seconds(1);
    variants.push_back({"HAREN-1000", haren1000});
  }
  {
    exp::SchedulerSpec lachesis;
    lachesis.kind = exp::SchedulerKind::kLachesis;
    lachesis.binding.policy = "fcfs";
    lachesis.binding.translator = "cpu.shares";
    lachesis.binding.period = Seconds(1);
    variants.push_back({"LACHESIS", lachesis});
  }

  const std::vector<double> rates =
      mode.full ? std::vector<double>{4000, 5000, 5500, 6000, 6500, 7000}
                : std::vector<double>{5000, 6000, 7000};

  const SweepResult sweep =
      RunAndPrintSweep("Fig 15: Haren scheduling granularity (SYN, FCFS)",
                       factory, rates, variants, mode);
  PrintMetricTable("Fig 15 | FCFS goal (max head-of-line age, ms)", rates,
                   variants, sweep,
                   [](const exp::RunResult& r) { return r.fcfs_goal_ms; });
  return 0;
}
