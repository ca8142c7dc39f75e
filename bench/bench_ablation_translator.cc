// Ablation: translator choice for the same policy (paper §5.3 argues
// translators are orthogonal to policies). Runs QS on LR under the nice
// translator, the cpu.shares translator (one cgroup per operator), and the
// combined scheme, on one query where all three are applicable.
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
  for (const auto& [label, translator] :
       {std::pair{"QS+nice", "nice"},
        std::pair{"QS+cpu.shares", "cpu.shares"},
        std::pair{"QS+both", "cpu.shares+nice"}}) {
    exp::SchedulerSpec s;
    s.kind = exp::SchedulerKind::kLachesis;
    s.binding.policy = "queue-size";
    s.binding.translator = translator;
    variants.push_back({label, s});
  }

  const std::vector<double> rates =
      mode.full ? std::vector<double>{5000, 5500, 6000, 6500, 7000}
                : std::vector<double>{5500, 6500};

  RunAndPrintSweep("Ablation: translator choice (QS on LR @ Storm)", factory,
                   rates, variants, mode);
  return 0;
}
