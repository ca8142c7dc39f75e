// Reproduces Fig 11: Linear Road on the Flink flavor, OS vs RANDOM vs
// Lachesis-QS (paper §6.3).
//
// Paper shape: Flink's bounded exchanges backpressure producers, so queues
// never explode; Lachesis gains are smaller than in Storm -- slightly
// higher throughput, single-digit-x latency improvements. Chaining is
// disabled to match Storm's physical DAG (paper footnote 6).
#include "bench/bench_common.h"
#include "queries/linear_road.h"

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
    w.workload = queries::MakeLinearRoad();
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
      mode.full
          ? std::vector<double>{2000, 3000, 4000, 4500, 5000, 5500, 6000}
          : std::vector<double>{2500, 4000, 5000, 6000};

  RunAndPrintSweep("Fig 11: LR @ Flink (chaining off)", factory, rates,
                   variants, mode);
  return 0;
}
