// Reproduces Table 1: the summary of configurations and performance
// highlights. For each experiment row it runs the configuration at the
// rate where the baseline has saturated but Lachesis has not, and reports
// Lachesis' improvement over the row's baseline (throughput gain and
// latency reduction factor).
//
// Paper highlights (for shape comparison): +8%/-133x vs EdgeWise (ETL),
// +75%/-1130x vs OS (VS @ Storm), +43%/-331x vs Haren (SYN w/ blocking),
// +31%/-12x vs OS (LR scale-out), +60%/-498x vs OS (multi-SPE).
#include "bench/bench_common.h"
#include "queries/etl.h"
#include "queries/linear_road.h"
#include "queries/synthetic.h"
#include "queries/voip_stream.h"

namespace {

using namespace lachesis;
using namespace lachesis::bench;

struct RowResult {
  double throughput_gain_pct;
  double latency_factor;
  double e2e_factor;
};

RowResult Compare(const exp::ScenarioSpec& base_spec,
                  const exp::SchedulerSpec& baseline,
                  const exp::SchedulerSpec& lachesis, const BenchMode& mode) {
  exp::ScenarioSpec spec = base_spec;
  spec.warmup = mode.warmup;
  spec.measure = mode.measure;
  spec.scheduler = baseline;
  const auto base_runs = exp::RunRepetitions(spec, mode.repetitions);
  spec.scheduler = lachesis;
  const auto lach_runs = exp::RunRepetitions(spec, mode.repetitions);

  const auto mean = [](const std::vector<exp::RunResult>& runs,
                       const std::function<double(const exp::RunResult&)>& f) {
    return exp::Aggregate(runs, f).mean;
  };
  RowResult row;
  const double base_tp =
      mean(base_runs, [](const exp::RunResult& r) { return r.throughput_tps; });
  const double lach_tp =
      mean(lach_runs, [](const exp::RunResult& r) { return r.throughput_tps; });
  row.throughput_gain_pct = base_tp > 0 ? 100.0 * (lach_tp / base_tp - 1) : 0;
  const double base_lat =
      mean(base_runs, [](const exp::RunResult& r) { return r.avg_latency_ms; });
  const double lach_lat =
      mean(lach_runs, [](const exp::RunResult& r) { return r.avg_latency_ms; });
  row.latency_factor = lach_lat > 0 ? base_lat / lach_lat : 0;
  const double base_e2e = mean(
      base_runs, [](const exp::RunResult& r) { return r.avg_e2e_latency_ms; });
  const double lach_e2e = mean(
      lach_runs, [](const exp::RunResult& r) { return r.avg_e2e_latency_ms; });
  row.e2e_factor = lach_e2e > 0 ? base_e2e / lach_e2e : 0;
  return row;
}

exp::SchedulerSpec LachesisSpec(const char* policy, const char* translator) {
  exp::SchedulerSpec s;
  s.kind = exp::SchedulerKind::kLachesis;
  s.binding.policy = policy;
  s.binding.translator = translator;
  return s;
}

}  // namespace

int main() {
  const auto mode = BenchMode::FromEnv();
  std::vector<std::vector<std::string>> rows;
  const auto add_row = [&rows](const std::string& name,
                               const std::string& baseline, RowResult r) {
    char tp[32], lat[32], e2e[32];
    std::snprintf(tp, sizeof(tp), "%+.0f%%", r.throughput_gain_pct);
    std::snprintf(lat, sizeof(lat), "%.1fx", r.latency_factor);
    std::snprintf(e2e, sizeof(e2e), "%.1fx", r.e2e_factor);
    rows.push_back({name, baseline, tp, lat, e2e});
    std::fflush(stdout);
  };

  // Row 1: Single-query ETL vs EdgeWise (paper: +8% tp, 133x lower e2e).
  {
    exp::ScenarioSpec spec;
    spec.cores = 4;
    spec.flavor = spe::StormFlavor();
    exp::WorkloadSpec w;
    w.workload = queries::MakeEtl();
    w.rate_tps = 1625;
    spec.workloads.push_back(std::move(w));
    exp::SchedulerSpec edgewise;
    edgewise.kind = exp::SchedulerKind::kEdgeWise;
    add_row("Single-Query ETL (6.2)", "EdgeWise",
            Compare(spec, edgewise,
                    LachesisSpec("queue-size", "nice"),
                    mode));
  }

  // Row 2: Single-query VS @ Storm vs OS (paper: +75% tp, 1130x latency).
  {
    exp::ScenarioSpec spec;
    spec.cores = 4;
    spec.flavor = spe::StormFlavor();
    exp::WorkloadSpec w;
    w.workload = queries::MakeVoipStream();
    w.rate_tps = 3000;
    spec.workloads.push_back(std::move(w));
    add_row("Single-Query VS (6.3)", "OS",
            Compare(spec, exp::SchedulerSpec{},
                    LachesisSpec("queue-size", "nice"),
                    mode));
  }

  // Row 3: Multi-query SYN with blocking vs Haren (paper: +43% tp, 331x e2e).
  {
    exp::ScenarioSpec spec;
    spec.cores = 4;
    spec.flavor = spe::LiebreFlavor();
    queries::SyntheticConfig config;
    config.blocking_op_fraction = 0.10;
    auto workloads = queries::MakeSynthetic(config);
    for (auto& workload : workloads) {
      exp::WorkloadSpec w;
      w.workload = std::move(workload);
      w.rate_tps = 6400.0 / config.num_queries;
      spec.workloads.push_back(std::move(w));
    }
    exp::SchedulerSpec haren;
    haren.kind = exp::SchedulerKind::kHaren;
    haren.binding.policy = "fcfs";
    haren.binding.period = Millis(50);
    add_row("Multi-Query SYN + blocking (6.4)", "Haren",
            Compare(spec, haren,
                    LachesisSpec("fcfs", "cpu.shares"),
                    mode));
  }

  // Row 4: Scale-out LR (4 nodes) vs OS (paper: +31% tp, 12x e2e).
  {
    exp::ScenarioSpec spec;
    spec.cores = 4;
    spec.nodes = 4;
    spec.flavor = spe::StormFlavor();
    exp::WorkloadSpec w;
    w.workload = queries::MakeLinearRoad();
    w.rate_tps = 27000;
    w.parallelism = 4;
    spec.workloads.push_back(std::move(w));
    add_row("Scale-Out LR, 4 nodes (6.5)", "OS",
            Compare(spec, exp::SchedulerSpec{},
                    LachesisSpec("queue-size", "nice"),
                    mode));
  }

  // Row 5: Multi-SPE server (paper: +60% tp, 498x latency).
  {
    exp::ScenarioSpec spec;
    spec.cores = 8;
    spec.flavor = spe::StormFlavor();
    {
      exp::WorkloadSpec w;
      w.workload = queries::MakeVoipStream();
      w.workload.query.name = "storm-vs";
      w.rate_tps = 1500;
      spec.workloads.push_back(std::move(w));
    }
    {
      exp::WorkloadSpec w;
      w.workload = queries::MakeLinearRoad();
      w.workload.query.name = "flink-lr";
      w.rate_tps = 2400;
      w.flavor_override = spe::FlinkFlavor();
      spec.workloads.push_back(std::move(w));
    }
    queries::SyntheticConfig config;
    auto syn = queries::MakeSynthetic(config);
    for (auto& workload : syn) {
      exp::WorkloadSpec w;
      w.workload = std::move(workload);
      w.rate_tps = 190;
      w.flavor_override = spe::LiebreFlavor();
      spec.workloads.push_back(std::move(w));
    }
    add_row("Multi-SPE server (6.6)", "OS",
            Compare(spec, exp::SchedulerSpec{},
                    LachesisSpec("queue-size", "cpu.shares+nice"),
                    mode));
  }

  lachesis::exp::PrintTable(
      "Table 1: Lachesis highlights vs each experiment's baseline",
      {"Experiment", "Baseline", "Throughput", "Latency", "E2E latency"},
      rows);
  return 0;
}
