// Reproduces Fig 9: Linear Road on the Storm flavor (Odroid-class node),
// comparing default OS scheduling, Lachesis with the RANDOM control policy,
// and Lachesis with QS over the nice translator (paper §6.3).
//
// Paper shape: Lachesis-QS sustains ~30% higher throughput than OS (6500 vs
// 5000 t/s on the authors' hardware) with orders-of-magnitude lower latency
// near OS' saturation point; RANDOM behaves like (or worse than) OS.
#include "bench/bench_common.h"
#include "queries/linear_road.h"

int main() {
  using namespace lachesis;
  using namespace lachesis::bench;

  const auto mode = BenchMode::FromEnv();
  const auto factory = [](double rate) {
    exp::ScenarioSpec spec;
    spec.cores = 4;
    spec.flavor = spe::StormFlavor();
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
    random.binding.translator = "nice";
    variants.push_back({"RANDOM", random});
  }
  {
    exp::SchedulerSpec lachesis;
    lachesis.kind = exp::SchedulerKind::kLachesis;
    lachesis.binding.policy = "queue-size";
    lachesis.binding.translator = "nice";
    variants.push_back({"LACHESIS-QS", lachesis});
  }

  const std::vector<double> rates = mode.full
      ? std::vector<double>{2000, 3000, 4000, 4500, 5000, 5500, 6000, 6500, 7000}
      : std::vector<double>{3000, 4500, 5500, 6500, 7500};

  RunAndPrintSweep("Fig 9: LR @ Storm", factory, rates, variants, mode);
  return 0;
}
