// Reproduces Fig 17: scale-out study of LR on the Storm and Flink flavors.
// The fission degree of every operator grows 1 -> 2 -> 4 with the operators
// spread over an equal number of nodes; each node runs an INDEPENDENT
// Lachesis instance with no global coordination (paper §6.5).
//
// Paper shape: the single-node trends carry over -- per-node-isolated
// Lachesis-QS instances still deliver up to ~31% more throughput and
// order-of-magnitude lower latency than the OS near saturation.
#include <algorithm>

#include "bench/bench_common.h"
#include "queries/linear_road.h"

int main() {
  using namespace lachesis;
  using namespace lachesis::bench;

  const auto mode = BenchMode::FromEnv();

  for (const bool flink : {false, true}) {
    const spe::SpeFlavor flavor = flink ? spe::FlinkFlavor() : spe::StormFlavor();
    for (const int nodes : {1, 2, 4}) {
      const auto factory = [&](double rate) {
        exp::ScenarioSpec spec;
        spec.cores = 4;
        spec.nodes = nodes;
        spec.flavor = flavor;
        exp::WorkloadSpec w;
        w.workload = queries::MakeLinearRoad();
        w.rate_tps = rate;
        w.parallelism = nodes;  // fission degree = #nodes
        spec.workloads.push_back(std::move(w));
        return spec;
      };

      std::vector<Variant> variants;
      variants.push_back({"OS", {}});
      exp::SchedulerSpec lachesis;
      lachesis.kind = exp::SchedulerKind::kLachesis;
      lachesis.binding.policy = "queue-size";
      lachesis.binding.translator = "nice";
      variants.push_back({"LACHESIS-QS", lachesis});

      // Offered rates scale with the deployment size (cross-node hops add
      // serialization overhead, so per-node capacity is lower than
      // single-node, as in the paper).
      std::vector<double> rates;
      const std::vector<double> base =
          mode.full ? std::vector<double>{2000, 3500, 5000, 5500, 6000, 7000}
                    : std::vector<double>{3000, 5000, 6500};
      for (const double r : base) rates.push_back(r * nodes);

      char title[128];
      std::snprintf(title, sizeof(title), "Fig 17: LR @ %s, %d node(s), fission %d",
                    flavor.name.c_str(), nodes, nodes);
      const SweepResult sweep =
          RunAndPrintSweep(title, factory, rates, variants, mode);

      // Per-node view: the aggregate above hides a node that regresses
      // while its peers compensate (possible at higher fission degrees, and
      // exactly what per-node-isolated instances must not do). Report the
      // slowest and fastest node alongside the aggregate.
      if (nodes > 1) {
        const auto node_min = [](const RunResult& r) {
          double v = r.per_node_throughput_tps.empty()
                         ? 0.0
                         : r.per_node_throughput_tps.front();
          for (const double t : r.per_node_throughput_tps) v = std::min(v, t);
          return v;
        };
        const auto node_max = [](const RunResult& r) {
          double v = 0.0;
          for (const double t : r.per_node_throughput_tps) v = std::max(v, t);
          return v;
        };
        PrintMetricTable(std::string(title) + " | Min per-node throughput (t/s)",
                         rates, variants, sweep, node_min);
        PrintMetricTable(std::string(title) + " | Max per-node throughput (t/s)",
                         rates, variants, sweep, node_max);
      }
    }
  }
  return 0;
}
