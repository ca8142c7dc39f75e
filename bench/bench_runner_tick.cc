// Microbenchmark of one full runner tick: metric update -> policy ->
// translator -> (delta layer) -> OS adapter, over N queries x M operators,
// with the delta layer on and off and with stable vs. churning schedules.
// Writes BENCH_runner.json (consumed by CI's perf trajectory listing).
//
// The interesting numbers: ns/tick as the entity count grows, and the
// fraction of OS operations the delta layer elides when consecutive
// schedules agree (the steady state of a real deployment).
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench/synthetic_driver.h"
#include "core/policies.h"
#include "core/runner.h"
#include "core/sim_executor.h"
#include "core/translators.h"
#include "sim/simulator.h"

using namespace lachesis;

namespace {

using bench::NullOsAdapter;
using bench::SyntheticDriver;

struct Sample {
  int queries = 0;
  int operators = 0;
  bool churn = false;
  bool delta = false;
  int ticks = 0;
  double ns_per_tick = 0;
  double wall_seconds = 0;
  std::uint64_t applied = 0;
  std::uint64_t skipped = 0;

  [[nodiscard]] int targets() const { return queries * operators; }
};

Sample RunOnce(int queries, int operators, bool churn, bool delta_enabled,
               int ticks, int warmup_ticks = 0) {
  sim::Simulator sim;
  core::SimControlExecutor executor(sim);
  NullOsAdapter os;
  SyntheticDriver driver(queries, operators, churn);

  core::LachesisRunner runner(executor, os);
  runner.SetDeltaEnabled(delta_enabled);
  core::PolicyBinding binding;
  binding.policy = std::make_unique<core::QueueSizePolicy>();
  binding.translator = std::make_unique<core::NiceTranslator>();
  binding.period = Seconds(1);
  binding.drivers = {&driver};
  runner.AddQuery(std::move(binding));
  runner.Start(Seconds(warmup_ticks + ticks));

  // Warmup ticks run outside the timed window: they pay the one-time table
  // growth (delta cache, interner, health maps), which at million-target
  // scale would otherwise dominate a short timed run.
  if (warmup_ticks > 0) sim.RunUntil(Seconds(warmup_ticks));

  const auto start = std::chrono::steady_clock::now();
  sim.RunUntil(Seconds(warmup_ticks + ticks));
  const auto wall = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - start)
                        .count();

  Sample s;
  s.queries = queries;
  s.operators = operators;
  s.churn = churn;
  s.delta = delta_enabled;
  s.ticks = ticks;
  s.ns_per_tick = static_cast<double>(wall) / ticks;
  s.wall_seconds = static_cast<double>(wall) / 1e9;
  s.applied = runner.delta_totals().applied;
  s.skipped = runner.delta_totals().skipped;
  return s;
}

// Observability cost: the same stable/churning tick loop with the
// provenance recorder disabled, on (the default), and in verbose mode
// (per-elision + per-sample events). Written to BENCH_obs.json; the
// "on vs off" delta is the always-on observability budget (<3%).
struct ObsSample {
  int queries = 0;
  int operators = 0;
  bool churn = false;
  const char* mode = "";
  int ticks = 0;
  double ns_per_tick = 0;
  std::uint64_t events_recorded = 0;
  std::uint64_t events_dropped = 0;
};

ObsSample RunObsOnce(int queries, int operators, bool churn,
                     const char* mode, int ticks) {
  sim::Simulator sim;
  core::SimControlExecutor executor(sim);
  NullOsAdapter os;
  SyntheticDriver driver(queries, operators, churn);

  core::LachesisRunner runner(executor, os);
  if (std::strcmp(mode, "off") == 0) runner.recorder().set_enabled(false);
  if (std::strcmp(mode, "verbose") == 0) runner.recorder().set_verbose(true);
  core::PolicyBinding binding;
  binding.policy = std::make_unique<core::QueueSizePolicy>();
  binding.translator = std::make_unique<core::NiceTranslator>();
  binding.period = Seconds(1);
  binding.drivers = {&driver};
  runner.AddQuery(std::move(binding));
  runner.Start(Seconds(ticks));

  const auto start = std::chrono::steady_clock::now();
  sim.RunUntil(Seconds(ticks));
  const auto wall = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - start)
                        .count();

  ObsSample s;
  s.queries = queries;
  s.operators = operators;
  s.churn = churn;
  s.mode = mode;
  s.ticks = ticks;
  s.ns_per_tick = static_cast<double>(wall) / ticks;
  s.events_recorded = runner.recorder().total_recorded();
  s.events_dropped = runner.recorder().dropped();
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  int ticks = 2000;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) ticks = 200;
  }

  std::vector<Sample> samples;
  const int shapes[][2] = {{1, 8}, {8, 8}, {8, 32}, {32, 32}};
  for (const auto& shape : shapes) {
    for (const bool churn : {false, true}) {
      for (const bool delta : {true, false}) {
        samples.push_back(RunOnce(shape[0], shape[1], churn, delta, ticks));
      }
    }
  }

  // Million-target scale sweep: 100k / 300k / 1M operators, delta on,
  // stable schedule (the steady state the storage layer optimizes for).
  // The pass criterion is per-target tick cost staying flat as the target
  // count grows 10x -- i.e. O(1) amortized work per target per tick.
  // Tick counts shrink with scale so the sweep stays inside a CI budget;
  // ns/tick at these sizes is dominated by the control loop itself, not
  // timer noise.
  const bool quick = ticks <= 200;
  const int sweep[][3] = {
      {1000, 100, quick ? 3 : 10},   // 100k targets
      {1000, 300, quick ? 2 : 6},    // 300k targets
      {1000, 1000, quick ? 2 : 4},   // 1M targets
  };
  for (const auto& point : sweep) {
    samples.push_back(RunOnce(point[0], point[1], /*churn=*/false,
                              /*delta_enabled=*/true, point[2],
                              /*warmup_ticks=*/1));
  }

  std::printf("%8s %6s %9s %6s %6s %8s %12s %12s %10s %10s\n", "queries",
              "ops/q", "targets", "churn", "delta", "ticks", "ns/tick",
              "ns/target", "applied", "skipped");
  for (const Sample& s : samples) {
    std::printf("%8d %6d %9d %6s %6s %8d %12.0f %12.1f %10llu %10llu\n",
                s.queries, s.operators, s.targets(), s.churn ? "yes" : "no",
                s.delta ? "on" : "off", s.ticks, s.ns_per_tick,
                s.ns_per_tick / s.targets(),
                static_cast<unsigned long long>(s.applied),
                static_cast<unsigned long long>(s.skipped));
  }

  std::FILE* out = std::fopen("BENCH_runner.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_runner.json\n");
    return 1;
  }
  std::fprintf(out, "{\n  \"bench\": \"runner\",\n  \"series\": [\n");
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const Sample& s = samples[i];
    std::fprintf(out,
                 "    {\"queries\": %d, \"operators_per_query\": %d, "
                 "\"targets\": %d, "
                 "\"churn\": %s, \"delta\": %s, \"ticks\": %d, "
                 "\"ns_per_tick\": %.0f, \"wall_seconds\": %.6f, "
                 "\"ops_applied\": %llu, "
                 "\"ops_skipped\": %llu}%s\n",
                 s.queries, s.operators, s.targets(),
                 s.churn ? "true" : "false",
                 s.delta ? "true" : "false", s.ticks, s.ns_per_tick,
                 s.wall_seconds,
                 static_cast<unsigned long long>(s.applied),
                 static_cast<unsigned long long>(s.skipped),
                 i + 1 < samples.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote BENCH_runner.json\n");

  // --- observability budget: recorder off / on / verbose -------------------
  std::vector<ObsSample> obs;
  const int obs_shapes[][2] = {{8, 32}, {32, 32}};
  for (const auto& shape : obs_shapes) {
    for (const bool churn : {false, true}) {
      for (const char* mode : {"off", "on", "verbose"}) {
        // Best-of-3: wall-clock ns/tick is noisy at --quick tick counts.
        ObsSample best = RunObsOnce(shape[0], shape[1], churn, mode, ticks);
        for (int rep = 1; rep < 3; ++rep) {
          const ObsSample s =
              RunObsOnce(shape[0], shape[1], churn, mode, ticks);
          if (s.ns_per_tick < best.ns_per_tick) best = s;
        }
        obs.push_back(best);
      }
    }
  }

  std::printf("\n%8s %6s %6s %8s %8s %12s %10s %10s\n", "queries", "ops/q",
              "churn", "obs", "ticks", "ns/tick", "events", "dropped");
  for (const ObsSample& s : obs) {
    std::printf("%8d %6d %6s %8s %8d %12.0f %10llu %10llu\n", s.queries,
                s.operators, s.churn ? "yes" : "no", s.mode, s.ticks,
                s.ns_per_tick,
                static_cast<unsigned long long>(s.events_recorded),
                static_cast<unsigned long long>(s.events_dropped));
  }
  // Per-shape on-vs-off overhead: the always-on observability budget.
  for (std::size_t i = 0; i + 1 < obs.size(); i += 3) {
    const ObsSample& off = obs[i];
    const ObsSample& on = obs[i + 1];
    std::printf("obs overhead %dx%d %s: %+.2f%% (on %.0f ns vs off %.0f ns)\n",
                off.queries, off.operators, off.churn ? "churn" : "stable",
                (on.ns_per_tick / off.ns_per_tick - 1.0) * 100.0,
                on.ns_per_tick, off.ns_per_tick);
  }

  out = std::fopen("BENCH_obs.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_obs.json\n");
    return 1;
  }
  std::fprintf(out, "{\n  \"bench\": \"obs\",\n  \"series\": [\n");
  for (std::size_t i = 0; i < obs.size(); ++i) {
    const ObsSample& s = obs[i];
    std::fprintf(out,
                 "    {\"queries\": %d, \"operators_per_query\": %d, "
                 "\"churn\": %s, \"obs\": \"%s\", \"ticks\": %d, "
                 "\"ns_per_tick\": %.0f, \"events_recorded\": %llu, "
                 "\"events_dropped\": %llu}%s\n",
                 s.queries, s.operators, s.churn ? "true" : "false", s.mode,
                 s.ticks, s.ns_per_tick,
                 static_cast<unsigned long long>(s.events_recorded),
                 static_cast<unsigned long long>(s.events_dropped),
                 i + 1 < obs.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote BENCH_obs.json\n");
  return 0;
}
