// Quickstart: deploy one query on a simulated edge node, attach Lachesis
// with the Queue-Size policy over the nice translator, and watch it beat
// default OS scheduling at a rate past the OS saturation point.
//
// Build & run:
//   cmake -B build && cmake --build build
//   ./build/examples/quickstart
//
// Pass a path as argv[1] to also dump the Lachesis run's decision
// provenance as Chrome-trace JSON (load it in ui.perfetto.dev); sim runs
// use virtual timestamps, so the trace is deterministic.
#include <cstdio>

#include "core/os_adapter.h"
#include "core/policies.h"
#include "core/runner.h"
#include "core/sim_executor.h"
#include "core/sim_driver.h"
#include "obs/trace_export.h"
#include "queries/linear_road.h"
#include "sim/machine.h"
#include "sim/simulator.h"
#include "spe/runtime.h"
#include "spe/source.h"
#include "tsdb/scraper.h"

using namespace lachesis;

namespace {

// Runs Linear Road at `rate` tuples/s for `duration`, optionally under
// Lachesis, and prints throughput and latency.
void Run(bool with_lachesis, double rate, SimTime duration,
         const char* trace_path = nullptr) {
  sim::Simulator sim;
  sim::Machine odroid(sim, /*num_cores=*/4);

  // 1. An SPE instance (Storm-flavored) and a deployed query.
  spe::SpeInstance storm(spe::StormFlavor(), {&odroid}, "storm");
  queries::Workload lr = queries::MakeLinearRoad();
  spe::DeployedQuery& query = storm.Deploy(lr.query, {});

  // 2. A Kafka-like data source feeding the ingress.
  spe::ExternalSource source(sim, query.source_channels(), lr.generator, 42);
  source.Start(rate, duration);

  // 3. The metric reporting pipeline (the SPE pushes to a Graphite-like
  //    store once per second; Lachesis only ever reads this store).
  tsdb::TimeSeriesStore metrics;
  tsdb::Scraper scraper(sim, metrics, Seconds(1));
  scraper.AddInstance(storm);
  scraper.Start(duration);

  // 4. Lachesis: driver + policy + translator, decisions every second.
  core::SimOsAdapter os;
  core::SimControlExecutor executor(sim);
  core::LachesisRunner lachesis(executor, os);
  core::SimSpeDriver driver(storm, metrics);
  if (with_lachesis) {
    core::PolicyBinding binding;
    binding.policy = std::make_unique<core::QueueSizePolicy>();
    binding.translator = std::make_unique<core::NiceTranslator>();
    binding.period = Seconds(1);
    binding.drivers = {&driver};
    lachesis.AddQuery(std::move(binding));
    lachesis.Start(duration);
  }

  sim.RunUntil(duration);

  if (with_lachesis && trace_path != nullptr &&
      obs::DumpChromeTrace(lachesis.recorder(), trace_path,
                           core::LachesisRunner::OpClassNameForObs)) {
    std::printf("wrote decision trace to %s\n", trace_path);
  }

  const double throughput =
      static_cast<double>(query.TotalIngested()) / ToSeconds(duration);
  RunningStat latency;
  for (auto* egress : query.Egresses()) latency.Merge(egress->latency);
  std::printf("%-12s  throughput %7.0f t/s   avg latency %10.2f ms\n",
              with_lachesis ? "LACHESIS-QS" : "OS default", throughput,
              latency.mean() / 1e6);
}

}  // namespace

int main(int argc, char** argv) {
  std::printf("Linear Road @ 6800 t/s on a 4-core edge node, 30 s:\n");
  Run(/*with_lachesis=*/false, 6800, Seconds(30));
  Run(/*with_lachesis=*/true, 6800, Seconds(30),
      argc > 1 ? argv[1] : nullptr);
  return 0;
}
