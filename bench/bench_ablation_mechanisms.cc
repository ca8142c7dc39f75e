// Ablation: the §8 future-work OS mechanisms next to the paper's two. Runs
// LR on the Storm flavor under the same QS policy enforced through nice,
// cpu.shares, hard CFS quotas, and the RT-boost scheme, plus the PSI-driven
// policy over nice -- all against default OS scheduling.
//
// Expected shape: nice and cpu.shares perform similarly (both weight-based
// and work-conserving); quotas lose some work conservation (idle budget is
// wasted near the crossover); the RT boost helps the bottleneck but risks
// starving the fair class when misassigned; PSI tracks the bottleneck from
// fresh kernel data without any SPE metrics at all.
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
  const auto lachesis_variant = [](const char* label, const char* policy,
                                   const char* translator) {
    exp::SchedulerSpec s;
    s.kind = exp::SchedulerKind::kLachesis;
    s.binding.policy = policy;
    s.binding.translator = translator;
    return Variant{label, s};
  };
  variants.push_back(lachesis_variant("QS+nice", "queue-size", "nice"));
  variants.push_back(lachesis_variant("QS+shares", "queue-size", "cpu.shares"));
  variants.push_back(lachesis_variant("QS+quota", "queue-size", "quota"));
  variants.push_back(lachesis_variant("QS+rt", "queue-size", "rt"));
  variants.push_back(lachesis_variant("PSI+nice", "pressure-stall", "nice"));

  const std::vector<double> rates =
      mode.full ? std::vector<double>{4000, 5000, 5500, 6000, 6500, 7000}
                : std::vector<double>{5000, 6000, 7000};

  RunAndPrintSweep("Ablation: OS mechanisms (QS/PSI on LR @ Storm)", factory,
                   rates, variants, mode);
  return 0;
}
