// Multi-SPE scheduling (the paper's headline G5 capability, §6.6): one
// Lachesis instance schedules queries running in THREE different engines
// concurrently on a shared server -- per-query cgroups with equal
// cpu.shares plus QS-driven nice within each query.
#include <cstdio>

#include "core/os_adapter.h"
#include "core/policies.h"
#include "core/runner.h"
#include "core/sim_executor.h"
#include "core/sim_driver.h"
#include "queries/linear_road.h"
#include "queries/synthetic.h"
#include "queries/voip_stream.h"
#include "sim/machine.h"
#include "sim/simulator.h"
#include "spe/runtime.h"
#include "spe/source.h"
#include "tsdb/scraper.h"

using namespace lachesis;

int main() {
  const SimTime duration = Seconds(30);
  sim::Simulator sim;
  sim::Machine server(sim, /*num_cores=*/8);

  // Three engines on the same host.
  spe::SpeInstance storm(spe::StormFlavor(), {&server}, "storm");
  spe::SpeInstance flink(spe::FlinkFlavor(), {&server}, "flink");
  spe::SpeInstance liebre(spe::LiebreFlavor(), {&server}, "liebre");

  std::vector<std::unique_ptr<spe::ExternalSource>> sources;
  const auto feed = [&](spe::DeployedQuery& q, const spe::TupleGenerator& gen,
                        double rate) {
    sources.push_back(std::make_unique<spe::ExternalSource>(
        sim, q.source_channels(), gen, 1000 + sources.size()));
    sources.back()->Start(rate, duration);
  };

  queries::Workload vs = queries::MakeVoipStream();
  spe::DeployedQuery& storm_vs = storm.Deploy(vs.query, {});
  feed(storm_vs, vs.generator, 1100);

  queries::Workload lr = queries::MakeLinearRoad();
  spe::DeployedQuery& flink_lr = flink.Deploy(lr.query, {});
  feed(flink_lr, lr.generator, 1800);

  queries::SyntheticConfig config;
  config.num_queries = 4;
  std::vector<spe::DeployedQuery*> syn_queries;
  for (auto& workload : queries::MakeSynthetic(config)) {
    spe::DeployedQuery& q = liebre.Deploy(workload.query, {});
    feed(q, workload.generator, 400);
    syn_queries.push_back(&q);
  }

  // One metric store scraped from all engines; one Lachesis over three
  // drivers.
  tsdb::TimeSeriesStore metrics;
  tsdb::Scraper scraper(sim, metrics, Seconds(1));
  scraper.AddInstance(storm);
  scraper.AddInstance(flink);
  scraper.AddInstance(liebre);
  scraper.Start(duration);

  core::SimOsAdapter os;
  core::SimControlExecutor executor(sim);
  core::LachesisRunner lachesis(executor, os);
  core::SimSpeDriver storm_driver(storm, metrics);
  core::SimSpeDriver flink_driver(flink, metrics);
  core::SimSpeDriver liebre_driver(liebre, metrics);
  core::PolicyBinding binding;
  binding.policy = std::make_unique<core::QueueSizePolicy>();
  binding.translator = std::make_unique<core::QuerySharesPlusNiceTranslator>();
  binding.period = Seconds(1);
  binding.drivers = {&storm_driver, &flink_driver, &liebre_driver};
  lachesis.AddQuery(std::move(binding));
  lachesis.Start(duration);

  sim.RunUntil(duration);

  const auto report = [&](const char* label, spe::DeployedQuery& q) {
    RunningStat latency;
    for (auto* egress : q.Egresses()) latency.Merge(egress->latency);
    std::printf("  %-12s throughput %7.0f t/s   avg latency %8.2f ms\n", label,
                static_cast<double>(q.TotalIngested()) / ToSeconds(duration),
                latency.mean() / 1e6);
  };
  std::printf("One Lachesis scheduling three engines on an 8-core server:\n");
  report("storm/VS", storm_vs);
  report("flink/LR", flink_lr);
  for (std::size_t i = 0; i < syn_queries.size(); ++i) {
    report(("liebre/" + syn_queries[i]->name).c_str(), *syn_queries[i]);
  }
  std::printf("(schedules applied: %llu)\n",
              static_cast<unsigned long long>(lachesis.schedules_applied()));
  return 0;
}
