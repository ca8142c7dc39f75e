// Branch prioritization: the paper's Fig 2 scenario. The Linear Road query
// has two branches -- variable tolls (deliver congestion tolls to vehicles
// promptly) and accident alerts. A user-defined HIGH-LEVEL policy assigns
// static priorities to LOGICAL operators ("branch 1 over branch 2"); the
// transformation rule (Algorithm 2) maps them onto whatever physical DAG
// the engine deployed (here with fission of the toll branch), and the nice
// translator enforces them.
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

namespace {

struct BranchLatencies {
  double toll_ms = 0;
  double alert_ms = 0;
};

BranchLatencies Run(bool prioritize_tolls) {
  const SimTime duration = Seconds(30);
  sim::Simulator sim;
  sim::Machine node(sim, 4);
  spe::SpeInstance storm(spe::StormFlavor(), {&node}, "storm");

  queries::Workload lr = queries::MakeLinearRoad();
  spe::DeployOptions options;
  spe::DeployedQuery& query = storm.Deploy(lr.query, options);

  spe::ExternalSource source(sim, query.source_channels(), lr.generator, 42);
  source.Start(6500, duration);

  tsdb::TimeSeriesStore metrics;
  tsdb::Scraper scraper(sim, metrics, Seconds(1));
  scraper.AddInstance(storm);
  scraper.Start(duration);

  core::SimOsAdapter os;
  core::SimControlExecutor executor(sim);
  core::LachesisRunner lachesis(executor, os);
  core::SimSpeDriver driver(storm, metrics);
  if (prioritize_tolls) {
    // Branch 1 (seg_stats -> congestion -> var_toll -> toll sink) above
    // branch 2 (accident -> alert sink); shared prefix in between.
    using Ops = queries::LinearRoadOps;
    std::map<int, double> priorities{
        {Ops::kIngress, 5},   {Ops::kParse, 5},      {Ops::kDispatch, 5},
        {Ops::kSegStats, 10}, {Ops::kCongestion, 10}, {Ops::kVarToll, 10},
        {Ops::kTollEgress, 10}, {Ops::kAccident, 1},  {Ops::kAlertEgress, 1}};
    core::PolicyBinding binding;
    binding.policy = std::make_unique<core::LogicalPriorityPolicy>(
        std::map<std::string, std::map<int, double>>{{"lr", priorities}});
    binding.translator = std::make_unique<core::NiceTranslator>();
    binding.period = Seconds(1);
    binding.drivers = {&driver};
    lachesis.AddQuery(std::move(binding));
    lachesis.Start(duration);
  }

  sim.RunUntil(duration);

  BranchLatencies result;
  for (const spe::DeployedOp& op : query.ops) {
    if (op.op->config().role != spe::OperatorRole::kEgress) continue;
    const double mean_ms = op.op->egress()->latency.mean() / 1e6;
    if (op.op->config().name.find("toll_sink") != std::string::npos) {
      result.toll_ms = mean_ms;
    } else {
      result.alert_ms = mean_ms;
    }
  }
  return result;
}

}  // namespace

int main() {
  std::printf("LR branch latencies under load (6500 t/s, 4 cores):\n");
  const BranchLatencies fair = Run(false);
  std::printf("  OS default   : tolls %9.2f ms | alerts %9.2f ms\n",
              fair.toll_ms, fair.alert_ms);
  const BranchLatencies custom = Run(true);
  std::printf("  branch policy: tolls %9.2f ms | alerts %9.2f ms\n",
              custom.toll_ms, custom.alert_ms);
  std::printf(
      "\nWith the high-level policy, toll notifications (branch 1) are served"
      "\nahead of accident alerts (branch 2), without touching the query.\n");
  return 0;
}
