// Reproduces Fig 16: the effect of blocking operations on SYN (FCFS
// policy). 10% of the operators block with probability 0.1% per tuple for
// up to 200 ms, simulating I/O such as commits to a remote system (paper
// §6.4).
//
// Paper shape: Lachesis relies on the OS scheduler, which transparently
// deschedules blocked threads, so it is unaffected; Haren's worker threads
// stall while an operator blocks, costing up to 43% throughput, 4.5x higher
// latency and orders-of-magnitude higher e2e latency.
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
    config.blocking_op_fraction = 0.10;
    config.block_probability = 0.001;
    config.block_max = Millis(200);
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
  {
    exp::SchedulerSpec haren;
    haren.kind = exp::SchedulerKind::kHaren;
    haren.binding.policy = "fcfs";
    haren.binding.period = Millis(50);
    variants.push_back({"HAREN", haren});
  }
  {
    exp::SchedulerSpec lachesis;
    lachesis.kind = exp::SchedulerKind::kLachesis;
    lachesis.binding.policy = "fcfs";
    lachesis.binding.translator = "cpu.shares";
    variants.push_back({"LACHESIS", lachesis});
  }

  const std::vector<double> rates =
      mode.full ? std::vector<double>{3000, 4000, 5000, 5500, 6000, 6500}
                : std::vector<double>{4000, 5500, 6500};

  const SweepResult sweep = RunAndPrintSweep(
      "Fig 16: SYN with 10% blocking operators (FCFS)", factory, rates,
      variants, mode);
  PrintMetricTable("Fig 16 | FCFS goal (max head-of-line age, ms)", rates,
                   variants, sweep,
                   [](const exp::RunResult& r) { return r.fcfs_goal_ms; });
  return 0;
}
