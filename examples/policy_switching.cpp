// Runtime policy switching (paper §4): Lachesis can "switch scheduling
// policies at runtime (by enabling one policy and disabling another), with
// the conditions of this switch programmed by the user".
//
// This example runs Linear Road under a SwitchablePolicy that uses QS while
// the system is healthy and switches to FCFS when any operator's
// head-of-line tuple grows older than a threshold (i.e. when bounding the
// maximum latency becomes more urgent than balancing queues).
#include <cstdio>

#include "core/os_adapter.h"
#include "core/policies.h"
#include "core/runner.h"
#include "core/sim_executor.h"
#include "core/sim_driver.h"
#include "queries/linear_road.h"
#include "sim/machine.h"
#include "sim/simulator.h"
#include "spe/runtime.h"
#include "spe/source.h"
#include "tsdb/scraper.h"

using namespace lachesis;

int main() {
  const SimTime duration = Seconds(40);
  sim::Simulator sim;
  sim::Machine node(sim, 4);
  // Liebre flavor: exposes head-of-line tuple age, which FCFS needs.
  spe::SpeInstance liebre(spe::LiebreFlavor(), {&node}, "liebre");
  queries::Workload lr = queries::MakeLinearRoad();
  spe::DeployedQuery& query = liebre.Deploy(lr.query, {});

  // Ramp the offered load: healthy at first, overloaded after a second
  // source doubles the rate at t=20s.
  spe::ExternalSource gentle(sim, query.source_channels(), lr.generator, 1);
  gentle.Start(4000, duration);
  spe::ExternalSource burst(sim, query.source_channels(), lr.generator, 2);
  sim.ScheduleAt(Seconds(20), [&burst, duration] { burst.Start(4000, duration); });

  tsdb::TimeSeriesStore metrics;
  tsdb::Scraper scraper(sim, metrics, Seconds(1));
  scraper.AddInstance(liebre);
  scraper.Start(duration);

  core::SimOsAdapter os;
  core::SimControlExecutor executor(sim);
  core::LachesisRunner lachesis(executor, os);
  core::SimSpeDriver driver(liebre, metrics);

  // User-programmed switch condition: any head-of-line tuple older than
  // 250 ms selects FCFS (candidate 1); otherwise QS (candidate 0).
  std::vector<std::unique_ptr<core::SchedulingPolicy>> candidates;
  candidates.push_back(std::make_unique<core::QueueSizePolicy>());
  candidates.push_back(std::make_unique<core::FcfsPolicy>());
  auto switchable = std::make_unique<core::SwitchablePolicy>(
      std::move(candidates), [](const core::PolicyContext& ctx) -> std::size_t {
        double max_age = 0;
        ctx.ForEachEntity([&](core::SpeDriver& d, const core::EntityInfo& e) {
          max_age = std::max(
              max_age, ctx.provider->Value(d, core::MetricId::kHeadTupleAge,
                                           e.id));
        });
        return max_age > static_cast<double>(Millis(250)) ? 1 : 0;
      });
  core::SwitchablePolicy* policy = switchable.get();

  core::PolicyBinding binding;
  binding.policy = std::move(switchable);
  binding.translator = std::make_unique<core::NiceTranslator>();
  binding.period = Seconds(1);
  binding.drivers = {&driver};
  lachesis.AddQuery(std::move(binding));
  lachesis.Start(duration);

  // Report the active policy once per simulated second.
  std::printf("t(s)  active policy\n");
  for (SimTime t = Seconds(2); t <= duration; t += Seconds(2)) {
    sim.ScheduleAt(t, [t, policy] {
      std::printf("%4lld  %s\n", static_cast<long long>(t / kSecond),
                  policy->active() == 0 ? "queue-size" : "fcfs");
    });
  }
  sim.RunUntil(duration);

  RunningStat latency;
  for (auto* egress : query.Egresses()) latency.Merge(egress->latency);
  std::printf(
      "\nThe switch to FCFS happens when the 20s burst doubles the load.\n"
      "throughput %.0f t/s, avg latency %.2f ms\n",
      static_cast<double>(query.TotalIngested()) / ToSeconds(duration),
      latency.mean() / 1e6);
  return 0;
}
