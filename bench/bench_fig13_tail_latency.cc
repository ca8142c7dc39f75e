// Reproduces Fig 13: letter-value ("boxen") summaries of the full latency
// distributions for LR/VS on the Storm and Flink flavors, OS vs Lachesis-QS,
// at the high end of each query's rate range (paper §6.3.1).
//
// Paper shape: Lachesis improves not only the mean but the tails -- for LR
// and VS on Storm the 99th/99.9th percentiles drop by one to two orders of
// magnitude; on Flink improvements are small (LR ~2x; VS can be slightly
// worse in the extreme upper percentiles).
#include "bench/bench_common.h"
#include "queries/linear_road.h"
#include "queries/voip_stream.h"

int main() {
  using namespace lachesis;
  using namespace lachesis::bench;

  const auto mode = BenchMode::FromEnv();

  struct Setup {
    std::string name;
    spe::SpeFlavor flavor;
    queries::Workload (*make)(std::uint64_t);
    double rate;
  };
  const std::vector<Setup> setups = {
      {"LR @ Storm", spe::StormFlavor(), queries::MakeLinearRoad, 6500},
      {"VS @ Storm", spe::StormFlavor(), queries::MakeVoipStream, 2750},
      {"LR @ Flink", spe::FlinkFlavor(), queries::MakeLinearRoad, 5000},
      {"VS @ Flink", spe::FlinkFlavor(), queries::MakeVoipStream, 2500},
  };

  std::vector<Variant> variants;
  variants.push_back({"OS", {}});
  exp::SchedulerSpec lachesis;
  lachesis.kind = exp::SchedulerKind::kLachesis;
  lachesis.binding.policy = "queue-size";
  lachesis.binding.translator = "nice";
  variants.push_back({"LACHESIS-QS", lachesis});

  std::printf("Fig 13: latency distributions (letter values, ms)\n");
  for (const Setup& setup : setups) {
    for (const Variant& variant : variants) {
      exp::ScenarioSpec spec;
      spec.cores = 4;
      spec.flavor = setup.flavor;
      exp::WorkloadSpec w;
      w.workload = setup.make(101);
      w.rate_tps = setup.rate;
      spec.workloads.push_back(std::move(w));
      spec.scheduler = variant.scheduler;
      spec.warmup = mode.warmup;
      spec.measure = mode.measure;

      std::vector<double> pooled;
      for (const exp::RunResult& run :
           exp::RunRepetitions(spec, mode.repetitions)) {
        for (const auto& [query, result] : run.per_query) {
          pooled.insert(pooled.end(), result.latency_samples_ms.begin(),
                        result.latency_samples_ms.end());
        }
      }
      exp::PrintLetterValues(setup.name + " / " + variant.name,
                             std::move(pooled));
    }
  }
  return 0;
}
