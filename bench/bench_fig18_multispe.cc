// Reproduces Fig 18: multi-SPE, multi-query scheduling on a higher-end
// server (8 hardware threads): 23 queries total -- VS and LR on the Storm
// flavor, LR on the Flink flavor, and the 20 SYN queries on the Liebre
// flavor -- all scheduled by ONE Lachesis instance (goal G5, the paper's
// headline capability no UL-SS supports).
//
// Lachesis enforces a multi-dimensional schedule: each query is confined to
// its own cgroup with equal cpu.shares, while QS priorities are applied
// WITHIN each query via nice. Inputs arrive at a percentage of each query's
// empirically determined maximum sustainable rate in this setup.
//
// Paper shape: every query performs significantly better with Lachesis; the
// highlights are up to +40% throughput (Liebre-SYN) and two to three
// orders of magnitude lower latency (Storm-VS) at 100% load.
#include <map>

#include "bench/bench_common.h"
#include "queries/linear_road.h"
#include "queries/synthetic.h"
#include "queries/voip_stream.h"

int main() {
  using namespace lachesis;
  using namespace lachesis::bench;

  const auto mode = BenchMode::FromEnv();

  // Empirical per-query max rates in the shared 8-thread setup.
  constexpr double kVsStormMax = 1500;
  constexpr double kLrStormMax = 3200;
  constexpr double kLrFlinkMax = 2400;
  constexpr double kSynMaxPerQuery = 190;

  const auto factory = [&](double percent) {
    exp::ScenarioSpec spec;
    spec.cores = 8;
    spec.flavor = spe::StormFlavor();
    const double f = percent / 100.0;
    {
      exp::WorkloadSpec w;
      w.workload = queries::MakeVoipStream();
      w.workload.query.name = "storm-vs";
      w.rate_tps = kVsStormMax * f;
      spec.workloads.push_back(std::move(w));
    }
    {
      exp::WorkloadSpec w;
      w.workload = queries::MakeLinearRoad();
      w.workload.query.name = "storm-lr";
      w.rate_tps = kLrStormMax * f;
      spec.workloads.push_back(std::move(w));
    }
    {
      exp::WorkloadSpec w;
      w.workload = queries::MakeLinearRoad(203);
      w.workload.query.name = "flink-lr";
      w.rate_tps = kLrFlinkMax * f;
      w.flavor_override = spe::FlinkFlavor();
      spec.workloads.push_back(std::move(w));
    }
    queries::SyntheticConfig config;
    auto syn = queries::MakeSynthetic(config);
    for (auto& workload : syn) {
      exp::WorkloadSpec w;
      w.workload = std::move(workload);
      w.rate_tps = kSynMaxPerQuery * f;
      w.flavor_override = spe::LiebreFlavor();
      spec.workloads.push_back(std::move(w));
    }
    return spec;
  };

  std::vector<Variant> variants;
  variants.push_back({"OS", {}});
  exp::SchedulerSpec lachesis;
  lachesis.kind = exp::SchedulerKind::kLachesis;
  lachesis.binding.policy = "queue-size";
  lachesis.binding.translator = "cpu.shares+nice";
  variants.push_back({"LACHESIS", lachesis});

  const std::vector<double> percents =
      mode.full ? std::vector<double>{40, 60, 80, 90, 100}
                : std::vector<double>{60, 80, 100};

  const SweepResult sweep = RunSweep(factory, percents, variants, mode);

  // Per-SPE/query-group report (the four panels of Fig 18).
  struct Group {
    std::string label;
    std::string prefix;
  };
  const std::vector<Group> groups = {{"Storm - VS", "storm-vs"},
                                     {"Storm - LR", "storm-lr"},
                                     {"Flink - LR", "flink-lr"},
                                     {"Liebre - SYN", "syn"}};
  for (const Group& group : groups) {
    const auto group_metric =
        [&group](const exp::RunResult& run,
                 const std::function<double(const exp::QueryResult&)>& f,
                 bool average) {
          double total = 0;
          int count = 0;
          for (const auto& [name, qr] : run.per_query) {
            if (name.rfind(group.prefix, 0) != 0) continue;
            total += f(qr);
            ++count;
          }
          return average && count > 0 ? total / count : total;
        };
    PrintMetricTable(
        "Fig 18 | " + group.label + " | Throughput (t/s)", percents, variants,
        sweep, [&](const exp::RunResult& run) {
          return group_metric(
              run, [](const exp::QueryResult& q) { return q.throughput_tps; },
              false);
        });
    PrintMetricTable(
        "Fig 18 | " + group.label + " | Avg latency (ms)", percents, variants,
        sweep, [&](const exp::RunResult& run) {
          return group_metric(
              run, [](const exp::QueryResult& q) { return q.avg_latency_ms; },
              true);
        });
    PrintMetricTable(
        "Fig 18 | " + group.label + " | Avg e2e latency (ms)", percents,
        variants, sweep, [&](const exp::RunResult& run) {
          return group_metric(
              run,
              [](const exp::QueryResult& q) { return q.avg_e2e_latency_ms; },
              true);
        });
  }
  return 0;
}
