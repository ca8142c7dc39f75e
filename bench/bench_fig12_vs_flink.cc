// Reproduces Fig 12: VoipStream on the Flink flavor, OS vs RANDOM vs
// Lachesis-QS (paper §6.3).
//
// Paper shape: VS in Flink saturates earlier than in Storm (heavier
// per-hop exchange cost on small devices); Flink's backpressure keeps
// queue-size variance small, so QS has less room -- Lachesis still improves
// the scheduling goal and attains tens-of-percent lower latency.
#include "bench/bench_common.h"
#include "queries/voip_stream.h"

int main() {
  using namespace lachesis;
  using namespace lachesis::bench;

  const auto mode = BenchMode::FromEnv();
  const auto factory = [](double rate) {
    exp::ScenarioSpec spec;
    spec.cores = 4;
    spec.flavor = spe::FlinkFlavor();
    spec.chaining = false;
    exp::WorkloadSpec w;
    w.workload = queries::MakeVoipStream();
    w.rate_tps = rate;
    spec.workloads.push_back(std::move(w));
    return spec;
  };

  std::vector<Variant> variants;
  variants.push_back({"OS", {}});
  {
    exp::SchedulerSpec random;
    random.kind = exp::SchedulerKind::kLachesis;
    random.binding.policy = "random";
    variants.push_back({"RANDOM", random});
  }
  {
    exp::SchedulerSpec lachesis;
    lachesis.kind = exp::SchedulerKind::kLachesis;
    lachesis.binding.policy = "queue-size";
    lachesis.binding.translator = "nice";
    variants.push_back({"LACHESIS-QS", lachesis});
  }

  const std::vector<double> rates =
      mode.full ? std::vector<double>{800, 1200, 1600, 2000, 2400, 2800, 3000}
                : std::vector<double>{1000, 1750, 2500, 3000};

  RunAndPrintSweep("Fig 12: VS @ Flink (chaining off)", factory, rates,
                   variants, mode);
  return 0;
}
