// Reproduces Fig 7 and Fig 8: the STATS query on the Storm flavor, OS vs
// EdgeWise vs Lachesis-QS (paper §6.2).
//
// Paper shape: STATS' high selectivity (~15 egress tuples per ingress
// tuple) makes small rate steps big load jumps; Lachesis gains are smaller
// than for ETL (+3% throughput, graceful degradation past saturation)
// because a SINGLE bottleneck operator dominates -- visible in Fig 8 as one
// queue-size outlier no scheduler can fix (it needs fission, not
// scheduling).
#include "bench/bench_common.h"
#include "queries/stats.h"

int main() {
  using namespace lachesis;
  using namespace lachesis::bench;

  const auto mode = BenchMode::FromEnv();
  const auto factory = [](double rate) {
    exp::ScenarioSpec spec;
    spec.cores = 4;
    spec.flavor = spe::StormFlavor();
    exp::WorkloadSpec w;
    w.workload = queries::MakeStats();
    w.rate_tps = rate;
    spec.workloads.push_back(std::move(w));
    return spec;
  };

  std::vector<Variant> variants;
  variants.push_back({"OS", {}});
  {
    exp::SchedulerSpec edgewise;
    edgewise.kind = exp::SchedulerKind::kEdgeWise;
    variants.push_back({"EDGEWISE", edgewise});
  }
  {
    exp::SchedulerSpec lachesis;
    lachesis.kind = exp::SchedulerKind::kLachesis;
    lachesis.binding.policy = "queue-size";
    lachesis.binding.translator = "nice";
    variants.push_back({"LACHESIS-QS", lachesis});
  }

  const std::vector<double> rates =
      mode.full ? std::vector<double>{200, 260, 300, 320, 340, 360, 380, 420}
                : std::vector<double>{250, 320, 360, 420};

  const SweepResult sweep = RunAndPrintSweep("Fig 7: STATS @ Storm", factory,
                                             rates, variants, mode);

  std::printf("\n== Fig 8: STATS input queue size distributions ==\n");
  std::printf("(the p99.9/max columns show the single bottleneck outlier)\n");
  for (std::size_t v = 0; v < variants.size(); ++v) {
    for (std::size_t r = 0; r < rates.size(); ++r) {
      std::vector<double> pooled;
      for (const exp::RunResult& run : sweep.runs[v][r]) {
        pooled.insert(pooled.end(), run.queue_size_samples.begin(),
                      run.queue_size_samples.end());
      }
      std::printf(
          "%-12s rate=%-5.0f  p50=%8.1f  p90=%8.1f  p99.9=%9.1f  max=%9.1f\n",
          variants[v].name.c_str(), rates[r], exp::Percentile(pooled, 0.5),
          exp::Percentile(pooled, 0.9), exp::Percentile(pooled, 0.999),
          exp::Percentile(pooled, 1.0));
    }
  }
  return 0;
}
