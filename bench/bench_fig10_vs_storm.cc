// Reproduces Fig 10: VoipStream on the Storm flavor, OS vs RANDOM vs
// Lachesis-QS (paper §6.3).
//
// Paper shape: the largest single-query win -- Lachesis sustains up to +75%
// throughput over OS (3500 vs 2000 t/s on the authors' hardware) and up to
// 1130x lower latency once OS has saturated but Lachesis has not.
#include "bench/bench_common.h"
#include "queries/voip_stream.h"

int main() {
  using namespace lachesis;
  using namespace lachesis::bench;

  const auto mode = BenchMode::FromEnv();
  const auto factory = [](double rate) {
    exp::ScenarioSpec spec;
    spec.cores = 4;
    spec.flavor = spe::StormFlavor();
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
      mode.full
          ? std::vector<double>{1000, 1500, 2000, 2250, 2500, 2750, 3000, 3500}
          : std::vector<double>{1500, 2250, 2750, 3250};

  RunAndPrintSweep("Fig 10: VS @ Storm", factory, rates, variants, mode);
  return 0;
}
