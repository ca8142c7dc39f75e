// Microbenchmark of the fault-tolerance machinery's no-fault overhead: the
// same synthetic control-plane tick loop as bench_runner_tick, run with
// (a) health tracking disabled, (b) health tracking enabled (the default),
// and (c) health enabled plus the fault injectors wrapping the backend and
// driver with an EMPTY fault plan. Nothing ever fails, so the difference is
// pure bookkeeping: AllowAttempt/RecordSuccess per applied op and the
// injector's rule scan per call.
//
// Writes BENCH_fault.json (consumed by CI's perf trajectory listing). The
// robustness budget is <2% tick-loop overhead with health on and no faults;
// the steady (non-churning) workload is the deployment steady state, where
// the delta layer skips repeat values before health is ever consulted.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/synthetic_driver.h"
#include "core/fault.h"
#include "core/policies.h"
#include "core/runner.h"
#include "core/sim_executor.h"
#include "core/translators.h"
#include "sim/simulator.h"

using namespace lachesis;

namespace {

using bench::NullOsAdapter;
using bench::SyntheticDriver;

enum class Mode { kHealthOff, kHealthOn, kHealthOnWrapped };

const char* ModeName(Mode mode) {
  switch (mode) {
    case Mode::kHealthOff:
      return "health_off";
    case Mode::kHealthOn:
      return "health_on";
    case Mode::kHealthOnWrapped:
      return "health_on_wrapped";
  }
  return "?";
}

struct Timing {
  double ns_per_tick = 0;
  double wall_seconds = 0;
};

Timing RunOnce(Mode mode, bool churn, int ticks, int queries = 8,
               int operators = 32, int warmup_ticks = 0) {
  sim::Simulator sim;
  core::SimControlExecutor executor(sim);
  NullOsAdapter os;
  SyntheticDriver driver(queries, operators, churn);

  // Empty plan: the injectors match no rule, every call passes through.
  core::FaultPlan empty_plan;
  core::FaultInjectingOsAdapter wrapped_os(os, executor, empty_plan);
  core::FaultInjectingDriver wrapped_driver(driver, empty_plan);

  core::OsAdapter& backend =
      mode == Mode::kHealthOnWrapped
          ? static_cast<core::OsAdapter&>(wrapped_os)
          : static_cast<core::OsAdapter&>(os);
  core::SpeDriver& spe = mode == Mode::kHealthOnWrapped
                             ? static_cast<core::SpeDriver&>(wrapped_driver)
                             : static_cast<core::SpeDriver&>(driver);

  core::LachesisRunner runner(executor, backend);
  if (mode == Mode::kHealthOff) {
    core::HealthConfig off;
    off.enabled = false;
    runner.SetHealthConfig(off);
  }
  core::PolicyBinding binding;
  binding.policy = std::make_unique<core::QueueSizePolicy>();
  binding.translator = std::make_unique<core::NiceTranslator>();
  binding.period = Seconds(1);
  binding.drivers = {&spe};
  runner.AddQuery(std::move(binding));
  runner.Start(Seconds(warmup_ticks + ticks));

  // Warmup ticks pay the one-time table growth outside the timed window;
  // only the scale sweep uses them (short timed runs at million-target
  // sizes would otherwise be dominated by first-tick growth).
  if (warmup_ticks > 0) sim.RunUntil(Seconds(warmup_ticks));

  const auto start = std::chrono::steady_clock::now();
  sim.RunUntil(Seconds(warmup_ticks + ticks));
  const auto wall = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  Timing t;
  t.ns_per_tick = static_cast<double>(wall) / ticks;
  t.wall_seconds = static_cast<double>(wall) / 1e9;
  return t;
}

double OverheadPct(double base_ns, double with_ns) {
  if (base_ns <= 0) return 0;
  return (with_ns - base_ns) / base_ns * 100.0;
}

}  // namespace

int main(int argc, char** argv) {
  int ticks = 2000;
  int reps = 7;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      ticks = 400;
      reps = 5;
    }
  }

  struct Row {
    Mode mode;
    bool churn;
    int queries = 8;
    int operators = 32;
    int ticks = 0;
    double ns_per_tick = 0;
    double wall_seconds = 0;

    [[nodiscard]] int targets() const { return queries * operators; }
  };
  std::vector<Row> rows;
  for (const bool churn : {false, true}) {
    for (const Mode mode :
         {Mode::kHealthOff, Mode::kHealthOn, Mode::kHealthOnWrapped}) {
      Row row;
      row.mode = mode;
      row.churn = churn;
      row.ticks = ticks;
      rows.push_back(row);
    }
  }
  // Interleave the configurations rep by rep (round-robin) and keep the
  // min, so ambient load on a shared machine hits every configuration
  // evenly instead of biasing whichever ran during a busy window.
  for (int r = 0; r < reps; ++r) {
    for (Row& row : rows) {
      const Timing t = RunOnce(row.mode, row.churn, ticks);
      if (r == 0 || t.ns_per_tick < row.ns_per_tick) {
        row.ns_per_tick = t.ns_per_tick;
        row.wall_seconds = t.wall_seconds;
      }
    }
  }

  // Million-target scale sweep with health tracking on (the default): the
  // health layer's per-op cost must stay O(1) per target as the target
  // count grows, i.e. ns/target flat from 100k to 1M. Single rep, few
  // ticks: at these sizes the loop dwarfs timer noise.
  const bool quick = ticks <= 400;
  const int sweep[][3] = {
      {1000, 100, quick ? 3 : 10},   // 100k targets
      {1000, 300, quick ? 2 : 6},    // 300k targets
      {1000, 1000, quick ? 2 : 4},   // 1M targets
  };
  for (const auto& point : sweep) {
    Row row;
    row.mode = Mode::kHealthOn;
    row.churn = false;
    row.queries = point[0];
    row.operators = point[1];
    row.ticks = point[2];
    const Timing t = RunOnce(row.mode, row.churn, row.ticks, row.queries,
                             row.operators, /*warmup_ticks=*/1);
    row.ns_per_tick = t.ns_per_tick;
    row.wall_seconds = t.wall_seconds;
    rows.push_back(row);
  }

  auto find = [&rows](Mode mode, bool churn) {
    for (const Row& r : rows) {
      if (r.mode == mode && r.churn == churn) return r.ns_per_tick;
    }
    return 0.0;
  };

  const double steady_pct = OverheadPct(find(Mode::kHealthOff, false),
                                        find(Mode::kHealthOn, false));
  const double churn_pct =
      OverheadPct(find(Mode::kHealthOff, true), find(Mode::kHealthOn, true));

  std::printf("%20s %6s %9s %12s %12s\n", "mode", "churn", "targets",
              "ns/tick", "ns/target");
  for (const Row& r : rows) {
    std::printf("%20s %6s %9d %12.0f %12.1f\n", ModeName(r.mode),
                r.churn ? "yes" : "no", r.targets(), r.ns_per_tick,
                r.ns_per_tick / r.targets());
  }
  std::printf("health overhead: steady %+.2f%%, churn %+.2f%% (budget < 2%% "
              "steady)\n",
              steady_pct, churn_pct);

  std::FILE* out = std::fopen("BENCH_fault.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_fault.json\n");
    return 1;
  }
  std::fprintf(out, "{\n  \"bench\": \"fault_overhead\",\n  \"series\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(out,
                 "    {\"mode\": \"%s\", \"churn\": %s, \"targets\": %d, "
                 "\"ticks\": %d, \"ns_per_tick\": %.0f, "
                 "\"wall_seconds\": %.6f}%s\n",
                 ModeName(r.mode), r.churn ? "true" : "false", r.targets(),
                 r.ticks, r.ns_per_tick, r.wall_seconds,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out,
               "  ],\n  \"overhead_pct_steady\": %.2f,\n"
               "  \"overhead_pct_churn\": %.2f,\n  \"budget_pct\": 2.0\n}\n",
               steady_pct, churn_pct);
  std::fclose(out);
  std::printf("wrote BENCH_fault.json\n");
  if (steady_pct >= 2.0) {
    std::fprintf(stderr,
                 "bench_fault_overhead: steady overhead %.2f%% exceeds the "
                 "2%% budget\n",
                 steady_pct);
  }
  return 0;
}
