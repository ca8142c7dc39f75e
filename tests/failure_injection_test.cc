// Failure injection: adversarial metric values and degenerate schedules
// must never crash the middleware or emit out-of-range OS parameters --
// a misbehaving exporter must not take the scheduler down with it.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "core/fault.h"
#include "core/policies.h"
#include "core/runner.h"
#include "core/sim_executor.h"
#include "core/translators.h"
#include "sim/simulator.h"
#include "tests/fake_driver.h"

namespace lachesis::core {
namespace {

using testing::FakeDriver;
using testing::RecordingOsAdapter;

struct InjectionRig {
  FakeDriver driver;
  MetricProvider provider;
  Rng rng{3};

  PolicyContext Context() {
    PolicyContext ctx;
    ctx.provider = &provider;
    ctx.drivers = {&driver};
    ctx.rng = &rng;
    return ctx;
  }
};

void ExpectValidNices(const RecordingOsAdapter& os) {
  for (const auto& [tid, nice] : os.nices) {
    EXPECT_GE(nice, -20);
    EXPECT_LE(nice, 19);
  }
}

TEST(FailureInjectionTest, NanMetricValuesProduceValidNices) {
  InjectionRig rig;
  const EntityInfo a = rig.driver.AddEntity(QueryId(0), {0});
  const EntityInfo b = rig.driver.AddEntity(QueryId(0), {1});
  rig.driver.Provide(MetricId::kQueueSize);
  rig.driver.SetValue(MetricId::kQueueSize, a.id,
                      std::numeric_limits<double>::quiet_NaN());
  rig.driver.SetValue(MetricId::kQueueSize, b.id, 10);
  rig.provider.Register(MetricId::kQueueSize);
  rig.provider.Update({&rig.driver}, Seconds(1));

  QueueSizePolicy policy;
  const Schedule schedule = policy.ComputeSchedule(rig.Context());
  RecordingOsAdapter os;
  NiceTranslator translator;
  translator.Apply(schedule, os);
  ExpectValidNices(os);
}

TEST(FailureInjectionTest, InfiniteAndNegativeValues) {
  InjectionRig rig;
  const EntityInfo a = rig.driver.AddEntity(QueryId(0), {0});
  const EntityInfo b = rig.driver.AddEntity(QueryId(0), {1});
  const EntityInfo c = rig.driver.AddEntity(QueryId(0), {2});
  rig.driver.Provide(MetricId::kQueueSize);
  rig.driver.SetValue(MetricId::kQueueSize, a.id,
                      std::numeric_limits<double>::infinity());
  rig.driver.SetValue(MetricId::kQueueSize, b.id, -1e12);
  rig.driver.SetValue(MetricId::kQueueSize, c.id, 42);
  rig.provider.Register(MetricId::kQueueSize);
  rig.provider.Update({&rig.driver}, Seconds(1));

  QueueSizePolicy policy;
  RecordingOsAdapter os;
  NiceTranslator nice;
  nice.Apply(policy.ComputeSchedule(rig.Context()), os);
  ExpectValidNices(os);

  CpuSharesTranslator shares;
  shares.Apply(policy.ComputeSchedule(rig.Context()), os);
  for (const auto& [gid, value] : os.group_shares) {
    EXPECT_GE(value, 2u);
    EXPECT_LE(value, 262144u);
  }
}

TEST(FailureInjectionTest, ZeroCostOperatorsInHighestRate) {
  // Cost 0 would divide by zero in path rates; the HR metric must fall back
  // to hints and stay finite.
  InjectionRig rig;
  LogicalTopology topo;
  topo.names = {"a", "sink"};
  topo.base_costs = {0, 0};  // no hints either
  topo.edges = {{0, 1}};
  rig.driver.SetTopology(QueryId(0), topo);
  const EntityInfo a = rig.driver.AddEntity(QueryId(0), {0});
  const EntityInfo s = rig.driver.AddEntity(QueryId(0), {1});
  rig.driver.Provide(MetricId::kCost);
  rig.driver.Provide(MetricId::kSelectivity);
  rig.driver.SetValue(MetricId::kCost, a.id, 0);
  rig.driver.SetValue(MetricId::kCost, s.id, 0);
  rig.driver.SetValue(MetricId::kSelectivity, a.id, 0);
  rig.driver.SetValue(MetricId::kSelectivity, s.id, 0);
  rig.provider.Register(MetricId::kHighestRate);
  rig.provider.Update({&rig.driver}, Seconds(1));
  const double hr = rig.provider.Value(rig.driver, MetricId::kHighestRate, a.id);
  EXPECT_TRUE(std::isfinite(hr));
  EXPECT_GT(hr, 0);
}

TEST(FailureInjectionTest, EmptyEntitySetIsHarmless) {
  InjectionRig rig;  // no entities at all
  rig.provider.Register(MetricId::kQueueSize);
  rig.provider.Update({&rig.driver}, Seconds(1));
  QueueSizePolicy policy;
  const Schedule schedule = policy.ComputeSchedule(rig.Context());
  EXPECT_TRUE(schedule.entries.empty());
  RecordingOsAdapter os;
  NiceTranslator nice;
  nice.Apply(schedule, os);
  CpuSharesTranslator shares;
  shares.Apply(schedule, os);
  QuerySharesPlusNiceTranslator combined;
  combined.Apply(schedule, os);
  EXPECT_EQ(os.nice_calls, 0);
}

TEST(FailureInjectionTest, RunnerSurvivesEntitiesAppearingMidFlight) {
  // Entities appear between periods (query deployed later): the runner must
  // pick them up without stale-cache issues.
  sim::Simulator sim;
  RecordingOsAdapter os;
  FakeDriver driver;
  driver.Provide(MetricId::kQueueSize);

  SimControlExecutor executor(sim);
  LachesisRunner runner(executor, os);
  PolicyBinding binding;
  binding.policy = std::make_unique<QueueSizePolicy>();
  binding.translator = std::make_unique<NiceTranslator>();
  binding.period = Seconds(1);
  binding.drivers = {&driver};
  runner.AddQuery(std::move(binding));
  runner.Start(Seconds(5));
  sim.RunUntil(Seconds(2));
  EXPECT_TRUE(os.nices.empty());  // nothing to schedule yet

  const EntityInfo late = driver.AddEntity(QueryId(0), {0});
  driver.SetValue(MetricId::kQueueSize, late.id, 9);
  sim.RunUntil(Seconds(5));
  EXPECT_TRUE(os.nices.count(late.thread.sim_tid.value()));
}

TEST(FailureInjectionTest, AllZeroPrioritiesStillSchedulable) {
  InjectionRig rig;
  for (int i = 0; i < 5; ++i) rig.driver.AddEntity(QueryId(0), {i});
  rig.driver.Provide(MetricId::kQueueSize);  // all values default to 0
  rig.provider.Register(MetricId::kQueueSize);
  rig.provider.Update({&rig.driver}, Seconds(1));
  QueueSizePolicy policy;
  RecordingOsAdapter os;
  NiceTranslator nice;
  nice.Apply(policy.ComputeSchedule(rig.Context()), os);
  ExpectValidNices(os);
  EXPECT_EQ(os.nices.size(), 5u);
}

// ---------------------------------------------------------------------------
// Seeded chaos soak: a full control plane driven for 10,000 ticks through
// the deterministic fault injectors (EPERM storms, transient contention,
// vanishing targets, slow calls, NaN/stale metrics, disappearing entities).
// Invariants: never crashes, every forwarded OS parameter stays in range on
// EVERY call, the tick cadence is unaffected by faults, and within five
// ticks of the last fault window closing the backend state is byte-equal to
// a fault-free twin run.

// Validates each forwarded OS parameter before recording it, so range
// violations are caught at the offending call, not just in the final state.
class RangeCheckingOsAdapter final : public OsAdapter {
 public:
  explicit RangeCheckingOsAdapter(OsAdapter& next) : next_(&next) {}
  void SetNice(const ThreadHandle& thread, int nice) override {
    EXPECT_GE(nice, -20);
    EXPECT_LE(nice, 19);
    next_->SetNice(thread, nice);
  }
  void SetGroupShares(const std::string& group, std::uint64_t shares) override {
    EXPECT_GT(shares, 0u);
    next_->SetGroupShares(group, shares);
  }
  void MoveToGroup(const ThreadHandle& thread,
                   const std::string& group) override {
    next_->MoveToGroup(thread, group);
  }
  void SetRtPriority(const ThreadHandle& thread, int rt_priority) override {
    next_->SetRtPriority(thread, rt_priority);
  }
  void SetGroupQuota(const std::string& group, SimDuration quota,
                     SimDuration period) override {
    next_->SetGroupQuota(group, quota, period);
  }

 private:
  OsAdapter* next_;
};

// One complete simulated control plane (drivers, entities, recorder). The
// chaos run and its fault-free twin are two instances fed the identical
// deterministic workload; only the chaos run gets fault wrappers.
struct SoakHarness {
  sim::Simulator sim;
  SimControlExecutor executor{sim};
  RecordingOsAdapter recorder;
  RangeCheckingOsAdapter checker{recorder};
  FakeDriver driver;
  std::vector<EntityInfo> entities;
  std::uint64_t ticks = 0;
  int max_open_breakers = 0;

  SoakHarness() {
    for (int q = 0; q < 2; ++q) {
      for (int op = 0; op < 2; ++op) {
        entities.push_back(driver.AddEntity(QueryId(q), {op}));
      }
    }
    driver.Provide(MetricId::kQueueSize);
    Wiggle(0);
  }

  // Deterministic time-varying workload: schedules change every tick, so
  // the delta layer keeps issuing real operations for faults to hit.
  void Wiggle(std::uint64_t tick) {
    for (std::size_t i = 0; i < entities.size(); ++i) {
      driver.SetValue(MetricId::kQueueSize, entities[i].id,
                      static_cast<double>((tick * 7 + i * 13) % 50));
    }
  }

  void Attach(LachesisRunner& runner, SpeDriver& spe) {
    PolicyBinding nice;
    nice.policy = std::make_unique<QueueSizePolicy>();
    nice.translator = std::make_unique<NiceTranslator>();
    nice.period = Millis(100);
    nice.drivers = {&spe};
    runner.AddQuery(std::move(nice));

    PolicyBinding shares;
    shares.policy = std::make_unique<QueueSizePolicy>();
    shares.translator = std::make_unique<CpuSharesTranslator>();
    shares.period = Millis(100);
    shares.drivers = {&spe};
    runner.AddQuery(std::move(shares));
  }

  void Observe(LachesisRunner& runner) {
    runner.SetTickObserver([this](const RunnerTickInfo& info) {
      ++ticks;
      max_open_breakers = std::max(max_open_breakers, info.open_breakers);
      Wiggle(ticks);
    });
  }
};

HealthConfig SoakHealth() {
  HealthConfig h;
  h.enabled = true;
  h.backoff_base = Millis(200);
  h.breaker_threshold = 5;
  h.probe_interval = Millis(300);
  h.seed = 42;
  return h;
}

OsFaultRule OsRule(std::optional<OpClass> op, FaultKind kind, SimTime from,
                   SimTime until, double probability) {
  OsFaultRule r;
  r.op = op;
  r.kind = kind;
  r.from = from;
  r.until = until;
  r.probability = probability;
  return r;
}

DriverFaultRule DrvRule(DriverFaultRule::Kind kind, SimTime from,
                        SimTime until, double probability,
                        std::optional<MetricId> metric = std::nullopt) {
  DriverFaultRule r;
  r.kind = kind;
  r.from = from;
  r.until = until;
  r.probability = probability;
  r.metric = metric;
  return r;
}

TEST(FailureInjectionTest, SeededChaosSoakHoldsInvariantsAndReconverges) {
  FaultPlan plan;
  plan.seed = 0xC0FFEE;
  // EPERM storm on nice ops: the breaker must open, probe, and recover.
  plan.os_rules.push_back(OsRule(OpClass::kSetNice, FaultKind::kEperm,
                                 Seconds(100), Seconds(101), 1.0));
  // Transient contention on cgroup writes (below breaker threshold).
  plan.os_rules.push_back(OsRule(OpClass::kSetGroupShares, FaultKind::kEbusy,
                                 Seconds(300), Millis(300500), 1.0));
  // Cgroup targets vanishing mid-write.
  plan.os_rules.push_back(OsRule(OpClass::kSetGroupShares, FaultKind::kVanish,
                                 Seconds(500), Millis(500400), 0.5));
  // Slow calls: latency is charged, the cadence must not slip.
  OsFaultRule slow = OsRule(std::nullopt, FaultKind::kSlowCall, Seconds(600),
                            Seconds(601), 1.0);
  slow.slow_latency = Millis(3);
  plan.os_rules.push_back(slow);
  // Driver-side garbage: NaN metrics, a frozen exporter, vanishing entities.
  plan.driver_rules.push_back(DrvRule(DriverFaultRule::Kind::kNanMetric,
                                      Seconds(700), Seconds(702), 0.5,
                                      MetricId::kQueueSize));
  plan.driver_rules.push_back(DrvRule(DriverFaultRule::Kind::kStaleMetric,
                                      Seconds(750), Seconds(751), 1.0));
  plan.driver_rules.push_back(DrvRule(DriverFaultRule::Kind::kVanishEntity,
                                      Seconds(800), Seconds(801), 0.5));
  // Final EPERM burst right before quiet: reconvergence is measured from
  // the close of this window.
  plan.os_rules.push_back(OsRule(OpClass::kSetNice, FaultKind::kEperm,
                                 Seconds(898), Millis(898500), 1.0));
  const SimTime quiet = Millis(898500);
  ASSERT_TRUE(plan.QuietAfter(quiet));
  ASSERT_FALSE(plan.QuietAfter(Seconds(898)));

  SoakHarness chaos;
  FaultInjectingOsAdapter os_faults(chaos.checker, chaos.executor, plan);
  FaultInjectingDriver driver_faults(chaos.driver, plan);
  LachesisRunner runner(chaos.executor, os_faults, /*seed=*/7);
  runner.SetHealthConfig(SoakHealth());
  chaos.Attach(runner, driver_faults);
  chaos.Observe(runner);
  runner.Start(Seconds(1000));

  SoakHarness twin;
  LachesisRunner twin_runner(twin.executor, twin.checker, /*seed=*/7);
  twin_runner.SetHealthConfig(SoakHealth());
  twin.Attach(twin_runner, twin.driver);
  twin.Observe(twin_runner);
  twin_runner.Start(Seconds(1000));

  // Five ticks past the last fault window, the chaos run's backend state
  // must be byte-equal to the fault-free twin's.
  const SimTime check_at = quiet + 5 * Millis(100);
  chaos.sim.RunUntil(check_at);
  twin.sim.RunUntil(check_at);
  EXPECT_EQ(chaos.recorder.nices, twin.recorder.nices);
  EXPECT_EQ(chaos.recorder.group_shares, twin.recorder.group_shares);
  EXPECT_EQ(chaos.recorder.thread_group, twin.recorder.thread_group);

  chaos.sim.RunUntil(Seconds(1000));
  twin.sim.RunUntil(Seconds(1000));

  // Cadence: faults never stretched or dropped a tick.
  EXPECT_EQ(chaos.ticks, 10000u);
  EXPECT_EQ(twin.ticks, 10000u);

  // The plan actually bit: every fault family fired at least once, and the
  // nice-class breaker opened during the storms.
  EXPECT_GT(os_faults.injected(FaultKind::kEperm), 0u);
  EXPECT_GT(os_faults.injected(FaultKind::kEbusy), 0u);
  EXPECT_GT(os_faults.injected(FaultKind::kVanish), 0u);
  EXPECT_GT(os_faults.injected(FaultKind::kSlowCall), 0u);
  EXPECT_GT(os_faults.injected_latency(), 0);
  EXPECT_GT(driver_faults.nan_injected(), 0u);
  EXPECT_GT(driver_faults.stale_served(), 0u);
  EXPECT_GT(driver_faults.entities_vanished(), 0u);
  EXPECT_GE(chaos.max_open_breakers, 1);
  EXPECT_EQ(twin.max_open_breakers, 0);
  EXPECT_GT(runner.delta_totals().suppressed, 0u);

  // Final states agree byte-for-byte as well.
  EXPECT_EQ(chaos.recorder.nices, twin.recorder.nices);
  EXPECT_EQ(chaos.recorder.group_shares, twin.recorder.group_shares);
  EXPECT_EQ(chaos.recorder.thread_group, twin.recorder.thread_group);

  // Determinism: an identical replay injects the identical fault counts.
  SoakHarness replay;
  FaultInjectingOsAdapter replay_os(replay.checker, replay.executor, plan);
  FaultInjectingDriver replay_driver(replay.driver, plan);
  LachesisRunner replay_runner(replay.executor, replay_os, /*seed=*/7);
  replay_runner.SetHealthConfig(SoakHealth());
  replay.Attach(replay_runner, replay_driver);
  replay.Observe(replay_runner);
  replay_runner.Start(Seconds(1000));
  replay.sim.RunUntil(Seconds(1000));
  for (int k = 0; k < kFaultKindCount; ++k) {
    EXPECT_EQ(replay_os.injected(static_cast<FaultKind>(k)),
              os_faults.injected(static_cast<FaultKind>(k)));
  }
  EXPECT_EQ(replay.recorder.nices, chaos.recorder.nices);
  EXPECT_EQ(replay.recorder.group_shares, chaos.recorder.group_shares);
}

}  // namespace
}  // namespace lachesis::core
