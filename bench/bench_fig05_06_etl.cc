// Reproduces Fig 5 and Fig 6: the ETL query on the Storm flavor (Odroid
// class), comparing default OS scheduling, the EdgeWise UL-SS, and Lachesis
// with QS over nice (paper §6.2).
//
// Paper shape: Lachesis keeps up to the highest rate (+18% over OS, +8%
// over EdgeWise on the authors' hardware), with much lower latency just
// before saturation, and keeps queue sizes small and homogeneous (Fig 6)
// while OS lets some queues grow early.
#include "bench/bench_common.h"
#include "queries/etl.h"

int main() {
  using namespace lachesis;
  using namespace lachesis::bench;

  const auto mode = BenchMode::FromEnv();
  const auto factory = [](double rate) {
    exp::ScenarioSpec spec;
    spec.cores = 4;
    spec.flavor = spe::StormFlavor();
    exp::WorkloadSpec w;
    w.workload = queries::MakeEtl();
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
      mode.full
          ? std::vector<double>{800, 1000, 1200, 1300, 1400, 1500, 1625, 1750}
          : std::vector<double>{1000, 1300, 1500, 1700};

  const SweepResult sweep = RunAndPrintSweep("Fig 5: ETL @ Storm", factory,
                                             rates, variants, mode);

  // Fig 6: distribution of operator input queue sizes per rate/scheduler.
  std::printf("\n== Fig 6: ETL input queue size distributions ==\n");
  for (std::size_t v = 0; v < variants.size(); ++v) {
    for (std::size_t r = 0; r < rates.size(); ++r) {
      std::vector<double> pooled;
      for (const exp::RunResult& run : sweep.runs[v][r]) {
        pooled.insert(pooled.end(), run.queue_size_samples.begin(),
                      run.queue_size_samples.end());
      }
      std::printf("%-12s rate=%-6.0f  p50=%8.1f  p90=%8.1f  p99=%8.1f  max=%8.1f\n",
                  variants[v].name.c_str(), rates[r],
                  exp::Percentile(pooled, 0.5), exp::Percentile(pooled, 0.9),
                  exp::Percentile(pooled, 0.99), exp::Percentile(pooled, 1.0));
    }
  }
  return 0;
}
