// Heterogeneity + SCHED_DEADLINE bench (ROADMAP item 5; BENCH_hetero.json).
//
// Three parts:
//  1. Placement: the same synthetic workload on a big.LITTLE node (2 big +
//     2 little @ 0.25) with capacity-aware kernel placement vs the
//     capacity-blind control arm. Aware placement keeps long-running work
//     on big cores (wakeup order + misfit migration), which shows up as
//     higher sustained throughput and lower latency near saturation.
//  2. Mixed criticality: one latency-critical query next to noisy-neighbor
//     queries at overload. Compares OS default, Lachesis QS+nice, and
//     Lachesis QS+deadline with the critical query's operators reserved via
//     SCHED_DEADLINE. The deadline variant must hold the critical chain's
//     latency SLO; the best-effort variants miss it under this load.
//  3. Admission overhead: host ns/op of Machine::SetDeadline for admit,
//     clear, and rejected (over-committed) reservations -- the control
//     plane pays this on every reconciliation tick.
#include <algorithm>
#include <chrono>
#include <functional>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "bench/bench_json.h"
#include "queries/synthetic.h"
#include "sim/machine.h"
#include "sim/simulator.h"

namespace {

using namespace lachesis;
using namespace lachesis::bench;

constexpr double kSloMs = 10.0;  // critical-chain avg processing latency SLO

void CiField(JsonWriter& json, const char* key, const MeanCi& ci) {
  json.BeginObject(key)
      .Field("mean", ci.mean)
      .Field("ci95", ci.half_width)
      .Field("n", ci.n)
      .EndObject();
}

// Pools one query's latency samples across repetitions.
std::vector<double> PooledQueryLatency(const std::vector<exp::RunResult>& runs,
                                       const std::string& query) {
  std::vector<double> pooled;
  for (const exp::RunResult& r : runs) {
    const auto it = r.per_query.find(query);
    if (it == r.per_query.end()) continue;
    pooled.insert(pooled.end(), it->second.latency_samples_ms.begin(),
                  it->second.latency_samples_ms.end());
  }
  return pooled;
}

double HostNsPerOp(const std::function<void()>& op, int iterations) {
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < iterations; ++i) op();
  const auto end = std::chrono::steady_clock::now();
  return static_cast<double>(
             std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
                 .count()) /
         iterations;
}

}  // namespace

int main() {
  const BenchMode mode = BenchMode::FromEnv();

  // --- shared workload: small synthetic multi-query mix ----------------------
  // Short pipelines of fat operators. Two sizing constraints: a transform
  // must outgrow a little core at the bench rates (rate x cost > 0.25) while
  // the machine still has headroom, and a single burst must exceed
  // the effective sched_latency (18ms at 4 cores) of wall time on a little
  // core (work > 4.5ms) so the misfit rules engage -- the regime where
  // placement quality, not raw capacity, decides throughput.
  queries::SyntheticConfig syn;
  syn.num_queries = 4;
  syn.ops_per_query = 3;  // ingress + one fat transform + egress
  syn.min_cost = Micros(5000);
  syn.max_cost = Micros(7000);
  syn.min_selectivity = 0.9;
  syn.max_selectivity = 1.1;
  syn.seed = 407;
  const std::vector<queries::Workload> workloads = queries::MakeSynthetic(syn);

  const auto base_spec = [&](double rate) {
    exp::ScenarioSpec spec;
    spec.cores = 4;
    // Interleaved little/big, as on real ARM boards where CPU0 is a
    // little core: index-order (blind) placement prefers a little core.
    spec.core_capacities = {0.25, 1.0, 0.25, 1.0};
    spec.warmup = mode.warmup;
    spec.measure = mode.measure;
    for (const queries::Workload& w : workloads) {
      exp::WorkloadSpec ws;
      ws.workload = w;
      ws.rate_tps = rate;
      spec.workloads.push_back(std::move(ws));
    }
    return spec;
  };

  // --- part 1: capacity-aware vs capacity-blind placement --------------------
  // Near the blind configuration's saturation point so placement quality is
  // the binding constraint.
  const double kPlacementRate = 80;
  exp::ScenarioSpec aware_spec = base_spec(kPlacementRate);
  aware_spec.label = "hetero-aware";
  exp::ScenarioSpec blind_spec = aware_spec;
  blind_spec.label = "hetero-blind";
  blind_spec.capacity_aware = false;

  std::printf("hetero placement: interleaved 2 big + 2 little(0.25), %d syn queries @ %.0f tps each\n",
              syn.num_queries, kPlacementRate);
  const std::vector<exp::RunResult> aware_runs =
      exp::RunRepetitions(aware_spec, mode.repetitions);
  const std::vector<exp::RunResult> blind_runs =
      exp::RunRepetitions(blind_spec, mode.repetitions);

  const auto tput = [](const exp::RunResult& r) { return r.throughput_tps; };
  const auto latency = [](const exp::RunResult& r) { return r.avg_latency_ms; };
  const MeanCi aware_tps = exp::Aggregate(aware_runs, tput);
  const MeanCi blind_tps = exp::Aggregate(blind_runs, tput);
  const MeanCi aware_lat = exp::Aggregate(aware_runs, latency);
  const MeanCi blind_lat = exp::Aggregate(blind_runs, latency);
  // Ingress throughput tracks the offered rate as long as the (cheap)
  // ingress operators keep up, so the discriminating metric is latency: a
  // transform stranded on a little core queues without bound.
  const double speedup =
      blind_tps.mean > 0 ? aware_tps.mean / blind_tps.mean : 0.0;
  const double latency_ratio =
      aware_lat.mean > 0 ? blind_lat.mean / aware_lat.mean : 0.0;
  const MeanCi aware_util = exp::Aggregate(
      aware_runs, [](const exp::RunResult& r) { return r.cpu_utilization; });
  const MeanCi blind_util = exp::Aggregate(
      blind_runs, [](const exp::RunResult& r) { return r.cpu_utilization; });
  std::printf("  util: aware %.3f blind %.3f\n", aware_util.mean,
              blind_util.mean);
  std::printf("  aware: %8.1f tps  %8.2f ms   blind: %8.1f tps  %8.2f ms   blind/aware latency %.2fx\n",
              aware_tps.mean, aware_lat.mean, blind_tps.mean, blind_lat.mean,
              latency_ratio);

  // --- part 2: mixed-criticality noisy neighbor ------------------------------
  // The first query is latency-critical at a modest rate; the rest are
  // noisy neighbors pushed into overload.
  const std::string critical_query = workloads[0].query.name;
  const auto mixed_spec = [&](exp::SchedulerSpec scheduler) {
    exp::ScenarioSpec spec = base_spec(/*rate=*/150);  // noisy: past saturation
    spec.label = "hetero-mixed";
    spec.workloads[0].rate_tps = 100;  // more than a little core / fair share
    spec.scheduler = std::move(scheduler);
    return spec;
  };

  exp::SchedulerSpec os_default;
  exp::SchedulerSpec qs_nice;
  qs_nice.kind = exp::SchedulerKind::kLachesis;
  qs_nice.binding.policy = "queue-size";
  qs_nice.binding.translator = "nice";
  exp::SchedulerSpec qs_deadline = qs_nice;
  qs_deadline.binding.translator = "deadline";
  qs_deadline.binding.critical_queries = {critical_query};
  qs_deadline.binding.dl_runtime = Millis(7);
  qs_deadline.binding.dl_period = Millis(10);

  struct MixedVariant {
    std::string name;
    exp::SchedulerSpec scheduler;
    MeanCi critical_avg_ms;
    double critical_p99_ms = 0;
    MeanCi total_tps;
    bool meets_slo = false;
  };
  std::vector<MixedVariant> mixed;
  mixed.push_back({"OS", os_default, {}, 0, {}, false});
  mixed.push_back({"QS+nice", qs_nice, {}, 0, {}, false});
  mixed.push_back({"QS+deadline", qs_deadline, {}, 0, {}, false});

  std::printf("hetero mixed-criticality: %s critical @100 tps, %d noisy @150 tps, SLO %.1f ms\n",
              critical_query.c_str(), syn.num_queries - 1, kSloMs);
  for (MixedVariant& v : mixed) {
    const std::vector<exp::RunResult> runs =
        exp::RunRepetitions(mixed_spec(v.scheduler), mode.repetitions);
    v.critical_avg_ms = exp::Aggregate(runs, [&](const exp::RunResult& r) {
      const auto it = r.per_query.find(critical_query);
      return it == r.per_query.end() ? 0.0 : it->second.avg_latency_ms;
    });
    v.critical_p99_ms =
        exp::Percentile(PooledQueryLatency(runs, critical_query), 0.99);
    v.total_tps = exp::Aggregate(runs, tput);
    v.meets_slo = v.critical_avg_ms.mean > 0 && v.critical_avg_ms.mean < kSloMs;
    std::printf("  %-12s critical avg %8.2f ms  p99 %8.2f ms  total %8.1f tps  SLO %s\n",
                v.name.c_str(), v.critical_avg_ms.mean, v.critical_p99_ms,
                v.total_tps.mean, v.meets_slo ? "MET" : "missed");
  }

  // --- part 3: admission-control overhead ------------------------------------
  // Host cost of the simulator's SetDeadline admission check: the control
  // plane pays it per reservation per reconciliation, so it must stay cheap
  // even with many existing reservations.
  sim::Simulator sim;
  sim::CfsParams hetero_params;
  hetero_params.core_capacities = {1.0, 1.0, 0.25, 0.25};
  sim::Machine machine(sim, 4, hetero_params, "admission");
  struct IdleBody final : sim::ThreadBody {
    sim::Action Next(sim::Machine&) override {
      return sim::Action::Sleep(Seconds(1));
    }
  };
  std::vector<ThreadId> tids;
  for (int i = 0; i < 64; ++i) {
    tids.push_back(machine.CreateThread("t" + std::to_string(i),
                                        std::make_unique<IdleBody>(),
                                        machine.root_cgroup()));
  }
  // Park a background utilization so admission always scans existing
  // reservations: 32 threads x 0.05 = 1.6 of the 2.375 bound.
  for (int i = 0; i < 32; ++i) {
    (void)machine.SetDeadline(tids[static_cast<std::size_t>(i)],
                              {Micros(500), Millis(10), Millis(10)});
  }
  const int iters = mode.full ? 200000 : 50000;
  int flip = 0;
  const double admit_clear_ns = HostNsPerOp(
      [&] {
        const ThreadId tid = tids[32 + (flip++ % 32)];
        (void)machine.SetDeadline(tid, {Micros(100), Millis(10), Millis(10)});
        (void)machine.SetDeadline(tid, {});
      },
      iters) / 2.0;  // one admit + one clear per iteration
  // Over-commit attempts: ~0.77 of the bound remains, ask for 0.9.
  const double reject_ns = HostNsPerOp(
      [&] {
        (void)machine.SetDeadline(tids[63], {Millis(9), Millis(10), Millis(10)});
      },
      iters);
  std::printf("hetero admission: admit+clear %.0f ns/op, reject %.0f ns/op (32 live reservations)\n",
              admit_clear_ns, reject_ns);

  // --- BENCH json -------------------------------------------------------------
  JsonWriter json;
  json.BeginObject()
      .Field("bench", "hetero")
      .Field("mode", mode.full ? "full" : "quick")
      .Field("repetitions", mode.repetitions)
      .BeginObject("placement")
      .Field("rate_tps", kPlacementRate);
  CiField(json, "aware_tps", aware_tps);
  CiField(json, "blind_tps", blind_tps);
  CiField(json, "aware_latency_ms", aware_lat);
  CiField(json, "blind_latency_ms", blind_lat);
  json.Field("aware_over_blind_speedup", speedup)
      .Field("blind_over_aware_latency", latency_ratio)
      .EndObject()
      .BeginObject("mixed_criticality")
      .Field("critical_query", critical_query)
      .Field("slo_ms", kSloMs)
      .BeginArray("variants");
  for (const MixedVariant& v : mixed) {
    json.BeginObject()
        .Field("name", v.name)
        .Field("critical_avg_ms", v.critical_avg_ms.mean)
        .Field("critical_p99_ms", v.critical_p99_ms)
        .Field("total_tps", v.total_tps.mean)
        .Field("meets_slo", v.meets_slo)
        .EndObject();
  }
  json.EndArray()
      .EndObject()
      .BeginObject("admission")
      .Field("admit_clear_ns_per_op", admit_clear_ns)
      .Field("reject_ns_per_op", reject_ns)
      .Field("live_reservations", 32)
      .EndObject()
      .EndObject();
  json.WriteFile("BENCH_hetero.json");

  // The bench doubles as a regression gate for the two acceptance
  // properties: aware placement must beat blind, and only the deadline
  // variant may hold the SLO.
  int status = 0;
  if (speedup < 0.98 || latency_ratio < 1.5) {
    std::fprintf(stderr,
                 "FAIL: capacity-aware must hold throughput (%.3fx) and beat "
                 "blind latency by 1.5x (got %.2fx)\n",
                 speedup, latency_ratio);
    status = 1;
  }
  const MixedVariant& dl = mixed.back();
  if (!dl.meets_slo) {
    std::fprintf(stderr, "FAIL: deadline variant missed the %.1f ms SLO (%.2f ms)\n",
                 kSloMs, dl.critical_avg_ms.mean);
    status = 1;
  }
  for (const MixedVariant& v : mixed) {
    if (v.name != "QS+deadline" && v.meets_slo) {
      std::fprintf(stderr,
                   "NOTE: best-effort variant %s also met the SLO (%.2f ms); "
                   "the noisy load may be too light to discriminate\n",
                   v.name.c_str(), v.critical_avg_ms.mean);
    }
  }
  return status;
}
