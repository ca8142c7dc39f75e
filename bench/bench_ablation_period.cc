// Ablation: Lachesis' scheduling period. The paper fixes 1 s (Graphite's
// resolution bounds it from below); this sweep shows what faster or slower
// decision loops would buy, connecting Fig 15's granularity discussion to
// Lachesis itself. Metric staleness follows the scrape period (1 s), so
// sub-second periods recompute on stale data.
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
  for (const auto& [label, period] :
       {std::pair{"L-100ms", Millis(100)}, std::pair{"L-250ms", Millis(250)},
        std::pair{"L-1s", Seconds(1)}, std::pair{"L-2s", Seconds(2)},
        std::pair{"L-5s", Seconds(5)}}) {
    exp::SchedulerSpec s;
    s.kind = exp::SchedulerKind::kLachesis;
    s.binding.policy = "queue-size";
    s.binding.translator = "nice";
    s.binding.period = period;
    variants.push_back({label, s});
  }

  const std::vector<double> rates = mode.full
                                        ? std::vector<double>{5000, 6000, 6500, 7000}
                                        : std::vector<double>{6000, 7000};

  RunAndPrintSweep("Ablation: Lachesis scheduling period (LR @ Storm)",
                   factory, rates, variants, mode);
  return 0;
}
