// Reproduces Fig 1 (the introduction teaser): throughput and average latency
// of the Linear Road query on an edge-class node, default OS scheduling vs
// custom scheduling (Lachesis-QS), as the input rate grows.
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
  variants.push_back({"OS (default)", {}});
  exp::SchedulerSpec lachesis;
  lachesis.kind = exp::SchedulerKind::kLachesis;
  lachesis.binding.policy = "queue-size";
  lachesis.binding.translator = "nice";
  variants.push_back({"Custom (Lachesis)", lachesis});

  const std::vector<double> rates =
      mode.full ? std::vector<double>{2000, 3500, 5000, 5500, 6000, 6500, 7000}
                : std::vector<double>{3000, 5000, 6000, 7000};

  RunAndPrintSweep("Fig 1: custom scheduling teaser (LR)", factory, rates,
                   variants, mode);
  return 0;
}
