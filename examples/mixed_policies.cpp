// Goal G3 (paper §3.1): "schedule multiple queries at a time, possibly
// optimizing different goals for each query". Two queries share one node and
// one Lachesis instance, but each gets its own policy, period AND
// translator: the latency-critical Linear Road query is driven by FCFS over
// nice every 500 ms, while a batchy synthetic query is driven by QS over
// cpu.shares every 2 s -- one runner, two bindings, entity filters.
#include <cstdio>

#include "core/os_adapter.h"
#include "core/policies.h"
#include "core/runner.h"
#include "core/sim_executor.h"
#include "core/sim_driver.h"
#include "queries/linear_road.h"
#include "queries/synthetic.h"
#include "sim/machine.h"
#include "sim/simulator.h"
#include "spe/runtime.h"
#include "spe/source.h"
#include "tsdb/scraper.h"

using namespace lachesis;

int main() {
  const SimTime duration = Seconds(30);
  sim::Simulator sim;
  sim::Machine node(sim, 4);
  spe::SpeInstance liebre(spe::LiebreFlavor(), {&node}, "liebre");

  queries::Workload lr = queries::MakeLinearRoad();
  spe::DeployedQuery& lr_query = liebre.Deploy(lr.query, {});
  spe::ExternalSource lr_source(sim, lr_query.source_channels(), lr.generator, 1);
  lr_source.Start(3500, duration);

  queries::SyntheticConfig config;
  config.num_queries = 1;
  auto syn = queries::MakeSynthetic(config);
  spe::DeployedQuery& syn_query = liebre.Deploy(syn[0].query, {});
  spe::ExternalSource syn_source(sim, syn_query.source_channels(),
                                 syn[0].generator, 2);
  syn_source.Start(2500, duration);

  tsdb::TimeSeriesStore metrics;
  tsdb::Scraper scraper(sim, metrics, Seconds(1));
  scraper.AddInstance(liebre);
  scraper.Start(duration);

  core::SimOsAdapter os;
  core::SimControlExecutor executor(sim);
  core::LachesisRunner lachesis(executor, os);
  core::SimSpeDriver driver(liebre, metrics);

  const QueryId lr_id = lr_query.id;
  {
    core::PolicyBinding binding;  // latency goal for LR
    binding.policy = std::make_unique<core::FcfsPolicy>();
    binding.translator = std::make_unique<core::NiceTranslator>();
    binding.period = Millis(500);
    binding.drivers = {&driver};
    binding.filter = [lr_id](const core::EntityInfo& e) {
      return e.query == lr_id;
    };
    lachesis.AddQuery(std::move(binding));
  }
  const QueryId syn_id = syn_query.id;
  {
    core::PolicyBinding binding;  // throughput goal for SYN
    binding.policy = std::make_unique<core::QueueSizePolicy>();
    binding.translator = std::make_unique<core::CpuSharesTranslator>();
    binding.period = Seconds(2);
    binding.drivers = {&driver};
    binding.filter = [syn_id](const core::EntityInfo& e) {
      return e.query == syn_id;
    };
    lachesis.AddQuery(std::move(binding));
  }
  lachesis.Start(duration);
  sim.RunUntil(duration);

  const auto report = [&](const char* label, spe::DeployedQuery& query) {
    RunningStat latency;
    for (auto* egress : query.Egresses()) latency.Merge(egress->latency);
    std::printf("  %-4s throughput %6.0f t/s   avg latency %8.2f ms\n", label,
                static_cast<double>(query.TotalIngested()) / ToSeconds(duration),
                latency.mean() / 1e6);
  };
  std::printf("Two queries, two policies, two translators, one Lachesis:\n");
  report("LR", lr_query);
  report("SYN", syn_query);
  std::printf("(schedules applied: %llu -- FCFS every 500 ms, QS every 2 s)\n",
              static_cast<unsigned long long>(lachesis.schedules_applied()));
  return 0;
}
