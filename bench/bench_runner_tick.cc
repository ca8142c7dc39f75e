// Microbenchmark of one full runner tick: metric update -> policy ->
// translator -> (delta layer) -> OS adapter, over N queries x M synthetic
// operators whose schedule is either stable or reshuffled every tick. Each
// distinct configuration of the loop runs once and feeds every table that
// reports it:
//   BENCH_runner.json  delta layer on vs off, plus a 100k/300k/1M-target
//                      sweep: ns/tick as the entity count grows, and the
//                      share of OS operations the delta layer elides when
//                      consecutive schedules agree (the steady state of a
//                      real deployment);
//   BENCH_obs.json     provenance recorder off / on (the default) /
//                      verbose: the always-on observability budget (<3%);
//   BENCH_fault.json   health tracking off / on (the default) / on with the
//                      fault injectors wrapping backend and driver under an
//                      EMPTY plan: the no-fault robustness budget (<2%
//                      steady). Nothing ever fails, so the difference is
//                      bookkeeping: AllowAttempt/RecordSuccess per applied
//                      op and the injector's rule scan per call.
//
//   LACHESIS_BENCH_MODE=full   2000 ticks x 7 rounds per configuration and
//                              a longer sweep (default: 200 ticks x 5)
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_json.h"
#include "core/driver.h"
#include "core/fault.h"
#include "core/os_adapter.h"
#include "core/policies.h"
#include "core/runner.h"
#include "core/sim_executor.h"
#include "core/translators.h"
#include "exp/report.h"
#include "sim/simulator.h"

using namespace lachesis;

namespace {

// In-memory driver over synthetic entities; queue sizes are scripted so the
// schedule is either constant across ticks or reshuffles every tick.
class SyntheticDriver final : public core::SpeDriver {
 public:
  SyntheticDriver(int queries, int operators_per_query, bool churn)
      : churn_(churn) {
    for (int q = 0; q < queries; ++q) {
      for (int o = 0; o < operators_per_query; ++o) {
        core::EntityInfo e;
        e.id = OperatorId(entities_.size());
        e.path = "spe.q" + std::to_string(q) + ".op" + std::to_string(o);
        e.query = QueryId(q);
        e.query_name = "q" + std::to_string(q);
        e.thread.sim_tid = ThreadId(entities_.size());
        entities_.push_back(e);
      }
    }
  }

  [[nodiscard]] const std::string& name() const override { return name_; }
  void Poll(SimTime) override { ++polls_; }
  std::vector<core::EntityInfo> Entities() override { return entities_; }
  // The entity set never changes; churn moves only the metrics.
  [[nodiscard]] std::uint64_t EntitiesGeneration() const override {
    if (generation_ == 0) generation_ = core::NextEntitiesGeneration();
    return generation_;
  }
  const core::LogicalTopology& Topology(QueryId) override {
    return topology_;
  }
  [[nodiscard]] bool Provides(core::MetricId metric) const override {
    return metric == core::MetricId::kQueueSize;
  }
  double Fetch(core::MetricId, const core::EntityInfo& entity) override {
    // Churn rotates which entity looks busiest, forcing a different
    // schedule (and different nice values) every tick.
    const std::uint64_t id = entity.id.value();
    return churn_ ? static_cast<double>((id + polls_) % entities_.size())
                  : static_cast<double>(id);
  }

 private:
  std::string name_ = "synthetic";
  bool churn_;
  std::uint64_t polls_ = 0;
  mutable std::uint64_t generation_ = 0;
  std::vector<core::EntityInfo> entities_;
  core::LogicalTopology topology_;
};

// Absorbs operations at near-zero cost so the bench measures the control
// plane, not a backend.
class NullOsAdapter final : public core::OsAdapter {
 public:
  void SetNice(const core::ThreadHandle&, int) override {}
  void SetGroupShares(const std::string&, std::uint64_t) override {}
  void MoveToGroup(const core::ThreadHandle&, const std::string&) override {}
};

enum class RecorderMode { kOff, kOn, kVerbose };

const char* RecorderName(RecorderMode mode) {
  switch (mode) {
    case RecorderMode::kOff:
      return "off";
    case RecorderMode::kOn:
      return "on";
    case RecorderMode::kVerbose:
      return "verbose";
  }
  return "?";
}

// One configuration of the tick loop; the defaults are the runner's.
struct TickConfig {
  int queries = 8;
  int operators = 32;
  bool churn = false;
  bool delta = true;
  bool health = true;
  bool injectors = false;  // empty-plan fault injectors around OS and driver
  RecorderMode recorder = RecorderMode::kOn;
  int ticks = 0;
  int warmup_ticks = 0;

  [[nodiscard]] int targets() const { return queries * operators; }
  bool operator==(const TickConfig&) const = default;
};

const char* FaultModeName(const TickConfig& config) {
  if (!config.health) return "health_off";
  return config.injectors ? "health_on_wrapped" : "health_on";
}

struct TickResult {
  double ns_per_tick = 0;
  double wall_seconds = 0;
  std::uint64_t applied = 0;
  std::uint64_t skipped = 0;
  std::uint64_t events_recorded = 0;
  std::uint64_t events_dropped = 0;
};

TickResult RunTicks(const TickConfig& config) {
  sim::Simulator sim;
  core::SimControlExecutor executor(sim);
  NullOsAdapter os;
  SyntheticDriver driver(config.queries, config.operators, config.churn);
  // Empty plan: the injectors match no rule, every call passes through.
  core::FaultPlan empty_plan;
  core::FaultInjectingOsAdapter wrapped_os(os, executor, empty_plan);
  core::FaultInjectingDriver wrapped_driver(driver, empty_plan);
  core::OsAdapter& backend =
      config.injectors ? static_cast<core::OsAdapter&>(wrapped_os) : os;
  core::SpeDriver& spe = config.injectors
                             ? static_cast<core::SpeDriver&>(wrapped_driver)
                             : driver;

  core::LachesisRunner runner(executor, backend);
  runner.SetDeltaEnabled(config.delta);
  if (!config.health) {
    core::HealthConfig off;
    off.enabled = false;
    runner.SetHealthConfig(off);
  }
  if (config.recorder == RecorderMode::kOff) {
    runner.recorder().set_enabled(false);
  }
  if (config.recorder == RecorderMode::kVerbose) {
    runner.recorder().set_verbose(true);
  }
  core::PolicyBinding binding;
  binding.policy = std::make_unique<core::QueueSizePolicy>();
  binding.translator = std::make_unique<core::NiceTranslator>();
  binding.period = Seconds(1);
  binding.drivers = {&spe};
  runner.AddQuery(std::move(binding));
  runner.Start(Seconds(config.warmup_ticks + config.ticks));

  // Warmup ticks run outside the timed window: they pay the one-time table
  // growth (delta cache, interner, health maps), which at million-target
  // scale would otherwise dominate a short timed run.
  if (config.warmup_ticks > 0) sim.RunUntil(Seconds(config.warmup_ticks));

  const auto start = std::chrono::steady_clock::now();
  sim.RunUntil(Seconds(config.warmup_ticks + config.ticks));
  const std::chrono::duration<double> wall =
      std::chrono::steady_clock::now() - start;

  TickResult result;
  result.wall_seconds = wall.count();
  result.ns_per_tick = result.wall_seconds * 1e9 / config.ticks;
  result.applied = runner.delta_totals().applied;
  result.skipped = runner.delta_totals().skipped;
  result.events_recorded = runner.recorder().total_recorded();
  result.events_dropped = runner.recorder().dropped();
  return result;
}

double OverheadPct(double base_ns, double with_ns) {
  if (base_ns <= 0) return 0;
  return (with_ns - base_ns) / base_ns * 100.0;
}

}  // namespace

int main() {
  const bool full = exp::BenchMode::FromEnv().full;
  const int ticks = full ? 2000 : 200;
  const int rounds = full ? 7 : 5;

  // Every table is a list of indices into `configs`; a configuration two
  // tables share (8x32 with every default, say) is run once.
  std::vector<TickConfig> configs;
  const auto add = [&configs](const TickConfig& config) {
    for (std::size_t i = 0; i < configs.size(); ++i) {
      if (configs[i] == config) return i;
    }
    configs.push_back(config);
    return configs.size() - 1;
  };
  const auto shape = [ticks](int queries, int operators, bool churn) {
    TickConfig config;
    config.queries = queries;
    config.operators = operators;
    config.churn = churn;
    config.ticks = ticks;
    return config;
  };

  std::vector<std::size_t> runner_rows;
  const int runner_shapes[][2] = {{1, 8}, {8, 8}, {8, 32}, {32, 32}};
  for (const auto& s : runner_shapes) {
    for (const bool churn : {false, true}) {
      for (const bool delta : {true, false}) {
        TickConfig config = shape(s[0], s[1], churn);
        config.delta = delta;
        runner_rows.push_back(add(config));
      }
    }
  }
  std::vector<std::size_t> obs_rows;
  const int obs_shapes[][2] = {{8, 32}, {32, 32}};
  for (const auto& s : obs_shapes) {
    for (const bool churn : {false, true}) {
      for (const RecorderMode mode :
           {RecorderMode::kOff, RecorderMode::kOn, RecorderMode::kVerbose}) {
        TickConfig config = shape(s[0], s[1], churn);
        config.recorder = mode;
        obs_rows.push_back(add(config));
      }
    }
  }
  std::vector<std::size_t> fault_rows;
  for (const bool churn : {false, true}) {
    TickConfig config = shape(8, 32, churn);
    config.health = false;
    fault_rows.push_back(add(config));
    config.health = true;
    fault_rows.push_back(add(config));
    config.injectors = true;
    fault_rows.push_back(add(config));
  }

  // Interleave the configurations round by round (round-robin) and keep
  // each one's fastest run, so ambient load on a shared machine hits every
  // configuration evenly instead of biasing whichever ran during a busy
  // window.
  std::vector<TickResult> results(configs.size());
  for (int round = 0; round < rounds; ++round) {
    for (std::size_t i = 0; i < configs.size(); ++i) {
      const TickResult result = RunTicks(configs[i]);
      if (round == 0 || result.ns_per_tick < results[i].ns_per_tick) {
        results[i] = result;
      }
    }
  }

  // Million-target scale sweep: 100k / 300k / 1M operators, delta and
  // health on, stable schedule (the steady state the storage layer
  // optimizes for). The pass criterion is per-target tick cost staying flat
  // as the target count grows 10x -- i.e. O(1) amortized work per target
  // per tick. One run per point, with tick counts that shrink with scale
  // so the sweep stays inside a CI budget; ns/tick at these sizes is
  // dominated by the control loop itself, not timer noise.
  const int sweep[][3] = {
      {1000, 100, full ? 10 : 3},   // 100k targets
      {1000, 300, full ? 6 : 2},    // 300k targets
      {1000, 1000, full ? 4 : 2},   // 1M targets
  };
  for (const auto& point : sweep) {
    TickConfig config;
    config.queries = point[0];
    config.operators = point[1];
    config.ticks = point[2];
    config.warmup_ticks = 1;
    runner_rows.push_back(configs.size());
    configs.push_back(config);
    results.push_back(RunTicks(config));
  }

  // --- delta layer on/off and the scale sweep: BENCH_runner.json ----------
  std::printf("%8s %6s %9s %6s %6s %8s %12s %12s %10s %10s\n", "queries",
              "ops/q", "targets", "churn", "delta", "ticks", "ns/tick",
              "ns/target", "applied", "skipped");
  bench::JsonWriter runner_json;
  runner_json.BeginObject().Field("bench", "runner").BeginArray("series");
  for (const std::size_t i : runner_rows) {
    const TickConfig& c = configs[i];
    const TickResult& r = results[i];
    std::printf("%8d %6d %9d %6s %6s %8d %12.0f %12.1f %10llu %10llu\n",
                c.queries, c.operators, c.targets(), c.churn ? "yes" : "no",
                c.delta ? "on" : "off", c.ticks, r.ns_per_tick,
                r.ns_per_tick / c.targets(),
                static_cast<unsigned long long>(r.applied),
                static_cast<unsigned long long>(r.skipped));
    runner_json.BeginObject()
        .Field("queries", c.queries)
        .Field("operators_per_query", c.operators)
        .Field("targets", c.targets())
        .Field("churn", c.churn)
        .Field("delta", c.delta)
        .Field("ticks", c.ticks)
        .Field("ns_per_tick", r.ns_per_tick)
        .Field("wall_seconds", r.wall_seconds)
        .Field("ops_applied", r.applied)
        .Field("ops_skipped", r.skipped)
        .EndObject();
  }
  runner_json.EndArray().EndObject();

  // --- recorder off / on / verbose: BENCH_obs.json -------------------------
  std::printf("\n%8s %6s %6s %8s %8s %12s %10s %10s\n", "queries", "ops/q",
              "churn", "obs", "ticks", "ns/tick", "events", "dropped");
  bench::JsonWriter obs_json;
  obs_json.BeginObject().Field("bench", "obs").BeginArray("series");
  for (const std::size_t i : obs_rows) {
    const TickConfig& c = configs[i];
    const TickResult& r = results[i];
    std::printf("%8d %6d %6s %8s %8d %12.0f %10llu %10llu\n", c.queries,
                c.operators, c.churn ? "yes" : "no", RecorderName(c.recorder),
                c.ticks, r.ns_per_tick,
                static_cast<unsigned long long>(r.events_recorded),
                static_cast<unsigned long long>(r.events_dropped));
    obs_json.BeginObject()
        .Field("queries", c.queries)
        .Field("operators_per_query", c.operators)
        .Field("churn", c.churn)
        .Field("obs", RecorderName(c.recorder))
        .Field("ticks", c.ticks)
        .Field("ns_per_tick", r.ns_per_tick)
        .Field("events_recorded", r.events_recorded)
        .Field("events_dropped", r.events_dropped)
        .EndObject();
  }
  obs_json.EndArray().EndObject();
  // Per-shape on-vs-off overhead: the always-on observability budget.
  for (std::size_t k = 0; k + 2 < obs_rows.size(); k += 3) {
    const TickConfig& c = configs[obs_rows[k]];
    const double off = results[obs_rows[k]].ns_per_tick;
    const double on = results[obs_rows[k + 1]].ns_per_tick;
    std::printf("obs overhead %dx%d %s: %+.2f%% (on %.0f ns vs off %.0f ns)\n",
                c.queries, c.operators, c.churn ? "churn" : "stable",
                OverheadPct(off, on), on, off);
  }

  // --- health off / on / on + injectors: BENCH_fault.json ------------------
  std::printf("\n%20s %6s %9s %12s %12s\n", "mode", "churn", "targets",
              "ns/tick", "ns/target");
  bench::JsonWriter fault_json;
  fault_json.BeginObject()
      .Field("bench", "fault_overhead")
      .BeginArray("series");
  for (const std::size_t i : fault_rows) {
    const TickConfig& c = configs[i];
    const TickResult& r = results[i];
    std::printf("%20s %6s %9d %12.0f %12.1f\n", FaultModeName(c),
                c.churn ? "yes" : "no", c.targets(), r.ns_per_tick,
                r.ns_per_tick / c.targets());
    fault_json.BeginObject()
        .Field("mode", FaultModeName(c))
        .Field("churn", c.churn)
        .Field("targets", c.targets())
        .Field("ticks", c.ticks)
        .Field("ns_per_tick", r.ns_per_tick)
        .Field("wall_seconds", r.wall_seconds)
        .EndObject();
  }
  // fault_rows holds off/on/wrapped for the stable, then the churning loop.
  const double steady_pct = OverheadPct(results[fault_rows[0]].ns_per_tick,
                                        results[fault_rows[1]].ns_per_tick);
  const double churn_pct = OverheadPct(results[fault_rows[3]].ns_per_tick,
                                       results[fault_rows[4]].ns_per_tick);
  fault_json.EndArray()
      .Field("overhead_pct_steady", steady_pct)
      .Field("overhead_pct_churn", churn_pct)
      .Field("budget_pct", 2.0)
      .EndObject();
  std::printf("health overhead: steady %+.2f%%, churn %+.2f%% (budget < 2%% "
              "steady)\n",
              steady_pct, churn_pct);
  if (steady_pct >= 2.0) {
    std::fprintf(stderr,
                 "bench_runner_tick: steady health overhead %.2f%% exceeds "
                 "the 2%% budget\n",
                 steady_pct);
  }

  const bool wrote = runner_json.WriteFile("BENCH_runner.json") &&
                     obs_json.WriteFile("BENCH_obs.json") &&
                     fault_json.WriteFile("BENCH_fault.json");
  return wrote ? 0 : 1;
}
