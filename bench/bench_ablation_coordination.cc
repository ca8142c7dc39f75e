// Ablation: global coordination for distributed Lachesis instances (paper
// §8 future work (2)). The paper's scale-out experiment (Fig 17) runs one
// isolated Lachesis per node; here the same 4-node LR deployment is also
// scheduled by a single COORDINATED instance whose policy normalizes
// priorities across all nodes' operators at once.
//
// Because the nice translator's min-max normalization is per schedule,
// isolation changes which operator lands where in the nice range when load
// skews across nodes. With LR's balanced fission the difference is small --
// the paper's observation that "even isolated scheduler instances without
// global knowledge can bring significant performance benefits" -- but the
// coordinated variant removes the residual variance.
#include <cstdio>
#include <memory>
#include <vector>

#include "common/stats.h"
#include "core/os_adapter.h"
#include "core/policies.h"
#include "core/runner.h"
#include "core/sim_executor.h"
#include "core/sim_driver.h"
#include "exp/report.h"
#include "queries/linear_road.h"
#include "sim/machine.h"
#include "sim/simulator.h"
#include "spe/runtime.h"
#include "spe/source.h"
#include "tsdb/scraper.h"

namespace {

using namespace lachesis;

struct Outcome {
  double throughput;
  double latency_ms;
};

Outcome Run(bool coordinated, double rate, SimTime duration,
            std::uint64_t seed) {
  sim::Simulator sim;
  std::vector<std::unique_ptr<sim::Machine>> nodes;
  std::vector<sim::Machine*> machines;
  for (int n = 0; n < 4; ++n) {
    nodes.push_back(std::make_unique<sim::Machine>(sim, 4, sim::CfsParams{},
                                                   "node" + std::to_string(n)));
    machines.push_back(nodes.back().get());
  }
  spe::SpeInstance storm(spe::StormFlavor(), machines, "storm");
  queries::Workload lr = queries::MakeLinearRoad();
  spe::DeployOptions options;
  options.parallelism = 4;
  options.seed = seed;
  spe::DeployedQuery& query = storm.Deploy(lr.query, options);
  spe::ExternalSource source(sim, query.source_channels(), lr.generator, seed);
  source.Start(rate, duration);

  tsdb::TimeSeriesStore store;
  tsdb::Scraper scraper(sim, store, Seconds(1));
  scraper.AddInstance(storm);
  scraper.Start(duration);

  core::SimOsAdapter os;
  core::SimControlExecutor executor(sim);
  core::LachesisRunner runner(executor, os, seed);
  core::SimSpeDriver driver(storm, store);
  if (coordinated) {
    // One binding over everything: priorities normalized globally.
    core::PolicyBinding binding;
    binding.policy = std::make_unique<core::QueueSizePolicy>();
    binding.translator = std::make_unique<core::NiceTranslator>();
    binding.period = Seconds(1);
    binding.drivers = {&driver};
    runner.AddQuery(std::move(binding));
  } else {
    // One isolated binding per node (the paper's §6.5 deployment).
    for (sim::Machine* node : machines) {
      core::PolicyBinding binding;
      binding.policy = std::make_unique<core::QueueSizePolicy>();
      binding.translator = std::make_unique<core::NiceTranslator>();
      binding.period = Seconds(1);
      binding.drivers = {&driver};
      binding.filter = [node](const core::EntityInfo& e) {
        return e.thread.machine == node;
      };
      runner.AddQuery(std::move(binding));
    }
  }
  runner.Start(duration);
  sim.RunUntil(duration);

  Outcome outcome;
  outcome.throughput =
      static_cast<double>(query.TotalIngested()) / ToSeconds(duration);
  RunningStat latency;
  for (auto* egress : query.Egresses()) latency.Merge(egress->latency);
  outcome.latency_ms = latency.mean() / 1e6;
  return outcome;
}

}  // namespace

int main() {
  const auto mode = lachesis::exp::BenchMode::FromEnv();
  const SimTime duration = mode.warmup + mode.measure;
  const std::vector<double> rates =
      mode.full ? std::vector<double>{16000, 20000, 24000, 26000, 28000}
                : std::vector<double>{20000, 26000};

  std::printf("Ablation: isolated vs coordinated Lachesis (LR, 4 nodes)\n");
  std::printf("%-10s  %-26s  %-26s\n", "rate", "ISOLATED tp / lat(ms)",
              "COORDINATED tp / lat(ms)");
  for (const double rate : rates) {
    std::vector<double> iso_tp, iso_lat, coord_tp, coord_lat;
    for (int r = 0; r < mode.repetitions; ++r) {
      const Outcome iso = Run(false, rate, duration, 100 + r);
      const Outcome coord = Run(true, rate, duration, 100 + r);
      iso_tp.push_back(iso.throughput);
      iso_lat.push_back(iso.latency_ms);
      coord_tp.push_back(coord.throughput);
      coord_lat.push_back(coord.latency_ms);
    }
    using lachesis::ConfidenceInterval95;
    using lachesis::exp::FormatCi;
    std::printf("%-10.0f  %10s / %-12s  %10s / %-12s\n", rate,
                FormatCi(ConfidenceInterval95(iso_tp)).c_str(),
                FormatCi(ConfidenceInterval95(iso_lat)).c_str(),
                FormatCi(ConfidenceInterval95(coord_tp)).c_str(),
                FormatCi(ConfidenceInterval95(coord_lat)).c_str());
  }
  return 0;
}
