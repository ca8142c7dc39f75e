// Fault-tolerance machinery: deterministic fault injection, the
// backoff/circuit-breaker state machine, the runner's capability
// degradation ladder, and crash-safe restart reconciliation.
#include "core/fault.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/op_health.h"
#include "core/policies.h"
#include "core/runner.h"
#include "core/schedule_delta.h"
#include "core/sim_executor.h"
#include "core/translators.h"
#include "sim/simulator.h"
#include "tests/fake_driver.h"

namespace lachesis::core {
namespace {

using testing::FakeDriver;
using testing::RecordingOsAdapter;

ThreadHandle Thread(std::uint64_t tid) {
  ThreadHandle t;
  t.sim_tid = ThreadId(tid);
  return t;
}

HealthConfig FastHealth() {
  HealthConfig config;
  config.enabled = true;
  config.backoff_base = Millis(500);
  config.breaker_threshold = 3;
  config.probe_interval = Seconds(2);
  config.jitter_frac = 0.0;  // exact delays for assertions
  return config;
}

// ---------------------------------------------------------------------------
// FaultChance / fault plan

TEST(FaultChanceTest, DeterministicAndEdgeCases) {
  EXPECT_EQ(FaultChance(1, 42, 0.5), FaultChance(1, 42, 0.5));
  EXPECT_TRUE(FaultChance(1, 42, 1.0));
  EXPECT_FALSE(FaultChance(1, 42, 0.0));
  int hits = 0;
  for (std::uint64_t salt = 0; salt < 10000; ++salt) {
    if (FaultChance(7, salt, 0.3)) ++hits;
  }
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(FaultPlanTest, QuietAfterFindsTheLastWindow) {
  FaultPlan plan;
  OsFaultRule rule;
  rule.from = Seconds(10);
  rule.until = Seconds(20);
  plan.os_rules.push_back(rule);
  DriverFaultRule driver_rule;
  driver_rule.kind = DriverFaultRule::Kind::kNanMetric;
  driver_rule.from = Seconds(5);
  driver_rule.until = Seconds(30);
  plan.driver_rules.push_back(driver_rule);
  EXPECT_FALSE(plan.QuietAfter(Seconds(15)));
  EXPECT_FALSE(plan.QuietAfter(Seconds(25)));
  EXPECT_TRUE(plan.QuietAfter(Seconds(30)));
}

// ---------------------------------------------------------------------------
// FaultInjectingOsAdapter

class ManualClock final : public Clock {
 public:
  [[nodiscard]] SimTime Now() const override { return now; }
  SimTime now = 0;
};

TEST(FaultInjectingOsAdapterTest, InjectsWithSeverityInsideWindowOnly) {
  RecordingOsAdapter real;
  ManualClock clock;
  FaultPlan plan;
  OsFaultRule rule;
  rule.op = OpClass::kSetNice;
  rule.kind = FaultKind::kEperm;
  rule.from = Seconds(10);
  rule.until = Seconds(20);
  plan.os_rules.push_back(rule);
  FaultInjectingOsAdapter os(real, clock, plan);

  clock.now = Seconds(5);  // before the window: passes through
  os.SetNice(Thread(0), 5);
  EXPECT_EQ(real.nices.at(0), 5);

  clock.now = Seconds(15);  // inside: every SetNice faults with EPERM
  try {
    os.SetNice(Thread(0), -3);
    FAIL() << "expected injected EPERM";
  } catch (const OsOperationError& e) {
    EXPECT_EQ(e.severity(), ErrorSeverity::kPermanent);
    EXPECT_EQ(e.err(), EPERM);
  }
  EXPECT_EQ(real.nices.at(0), 5);  // the real backend was not reached
  // Other op classes are unaffected by a kSetNice rule.
  os.SetGroupShares("g", 1024);
  EXPECT_EQ(real.group_shares.at("g"), 1024u);

  clock.now = Seconds(20);  // window is half-open: [from, until)
  os.SetNice(Thread(0), -3);
  EXPECT_EQ(real.nices.at(0), -3);
  EXPECT_EQ(os.injected(FaultKind::kEperm), 1u);
}

TEST(FaultInjectingOsAdapterTest, SlowCallsAreChargedNotDropped) {
  RecordingOsAdapter real;
  ManualClock clock;
  FaultPlan plan;
  OsFaultRule rule;
  rule.kind = FaultKind::kSlowCall;
  rule.slow_latency = Millis(7);
  plan.os_rules.push_back(rule);
  FaultInjectingOsAdapter os(real, clock, plan);
  os.SetNice(Thread(0), 1);
  os.SetGroupShares("g", 512);
  EXPECT_EQ(real.nices.at(0), 1);
  EXPECT_EQ(real.group_shares.at("g"), 512u);
  EXPECT_EQ(os.injected_latency(), 2 * Millis(7));
}

TEST(FaultInjectingOsAdapterTest, TargetSubstrFiltersInjection) {
  RecordingOsAdapter real;
  ManualClock clock;
  FaultPlan plan;
  OsFaultRule rule;
  rule.op = OpClass::kSetGroupShares;
  rule.kind = FaultKind::kEbusy;
  rule.target_substr = "bad";
  plan.os_rules.push_back(rule);
  FaultInjectingOsAdapter os(real, clock, plan);
  os.SetGroupShares("good-group", 100);
  EXPECT_THROW(os.SetGroupShares("bad-group", 100), OsOperationError);
  EXPECT_EQ(real.group_shares.count("good-group"), 1u);
  EXPECT_EQ(real.group_shares.count("bad-group"), 0u);
}

TEST(FaultInjectingOsAdapterTest, EmptyPlanForwardsEveryOpClass) {
  RecordingOsAdapter real;
  ManualClock clock;
  FaultInjectingOsAdapter os(real, clock, FaultPlan{});
  os.SetNice(Thread(1), 3);
  os.SetGroupShares("g", 512);
  os.MoveToGroup(Thread(1), "g");
  os.SetRtPriority(Thread(1), 10);
  os.SetGroupQuota("g", Millis(20), Millis(100));
  os.SetDeadline(Thread(1), Millis(4), Millis(10), Millis(10));
  os.SetCpuAffinity(Thread(1), CpuPreference::kPreferBig);
  EXPECT_EQ(real.nices.at(1), 3);
  EXPECT_EQ(real.group_shares.at("g"), 512u);
  EXPECT_EQ(real.thread_group.at(1), "g");
  EXPECT_EQ(real.rt_priorities.at(1), 10);
  EXPECT_EQ(real.group_quota.at("g"),
            std::make_pair(Millis(20), Millis(100)));
  EXPECT_EQ(real.deadline_calls, 1);
  EXPECT_EQ(real.deadlines.at(1).runtime, Millis(4));
  EXPECT_EQ(real.affinity_calls, 1);
  EXPECT_EQ(real.affinity.at(1), CpuPreference::kPreferBig);
  EXPECT_EQ(os.total_injected(), 0u);
}

TEST(FaultInjectingOsAdapterTest, DeadlineRuleInjectsPermanentError) {
  RecordingOsAdapter real;
  ManualClock clock;
  FaultPlan plan;
  OsFaultRule rule;
  rule.op = OpClass::kSetDeadline;
  rule.kind = FaultKind::kEperm;
  plan.os_rules.push_back(rule);
  FaultInjectingOsAdapter os(real, clock, plan);
  try {
    os.SetDeadline(Thread(1), Millis(4), Millis(10), Millis(10));
    FAIL() << "expected injected EPERM";
  } catch (const OsOperationError& e) {
    EXPECT_EQ(e.severity(), ErrorSeverity::kPermanent);
    EXPECT_EQ(e.err(), EPERM);
  }
  EXPECT_EQ(real.deadline_calls, 0);  // the real backend was not reached
  os.SetCpuAffinity(Thread(1), CpuPreference::kPreferLittle);
  EXPECT_EQ(real.affinity_calls, 1);  // other classes pass through
  EXPECT_EQ(os.injected(FaultKind::kEperm), 1u);
}

// ---------------------------------------------------------------------------
// FaultInjectingDriver

TEST(FaultInjectingDriverTest, VanishNanAndStaleMetrics) {
  FakeDriver inner;
  const EntityInfo a = inner.AddEntity(QueryId(0), {0});
  inner.Provide(MetricId::kQueueSize);
  inner.SetValue(MetricId::kQueueSize, a.id, 17.0);

  FaultPlan plan;
  DriverFaultRule nan_rule;
  nan_rule.kind = DriverFaultRule::Kind::kNanMetric;
  nan_rule.from = Seconds(10);
  nan_rule.until = Seconds(20);
  plan.driver_rules.push_back(nan_rule);
  DriverFaultRule stale_rule;
  stale_rule.kind = DriverFaultRule::Kind::kStaleMetric;
  stale_rule.from = Seconds(30);
  stale_rule.until = Seconds(40);
  plan.driver_rules.push_back(stale_rule);
  DriverFaultRule vanish_rule;
  vanish_rule.kind = DriverFaultRule::Kind::kVanishEntity;
  vanish_rule.from = Seconds(50);
  vanish_rule.until = Seconds(60);
  plan.driver_rules.push_back(vanish_rule);

  FaultInjectingDriver driver(inner, plan);
  driver.Poll(Seconds(5));
  EXPECT_EQ(driver.Entities().size(), 1u);
  EXPECT_EQ(driver.Fetch(MetricId::kQueueSize, a), 17.0);

  driver.Poll(Seconds(15));
  EXPECT_TRUE(std::isnan(driver.Fetch(MetricId::kQueueSize, a)));
  EXPECT_GE(driver.nan_injected(), 1u);

  inner.SetValue(MetricId::kQueueSize, a.id, 99.0);
  driver.Poll(Seconds(35));
  // Stale: the last genuine value (17) is served, not the fresh 99.
  EXPECT_EQ(driver.Fetch(MetricId::kQueueSize, a), 17.0);
  EXPECT_GE(driver.stale_served(), 1u);

  driver.Poll(Seconds(55));
  EXPECT_TRUE(driver.Entities().empty());
  EXPECT_GE(driver.entities_vanished(), 1u);

  driver.Poll(Seconds(65));  // all windows closed: back to normal
  EXPECT_EQ(driver.Entities().size(), 1u);
  EXPECT_EQ(driver.Fetch(MetricId::kQueueSize, a), 99.0);
}

TEST(FaultInjectingDriverTest, GenerationIsZeroWhileThePlanCanVanishEntities) {
  FakeDriver inner;
  inner.AddEntity(QueryId(0), {0});
  inner.TrackGenerations();
  ASSERT_NE(inner.EntitiesGeneration(), 0u);

  FaultPlan plan;
  DriverFaultRule nan_rule;
  nan_rule.kind = DriverFaultRule::Kind::kNanMetric;
  plan.driver_rules.push_back(nan_rule);
  // Metric faults leave the entity set alone: the inner generation holds.
  FaultInjectingDriver metric_faults(inner, plan);
  EXPECT_EQ(metric_faults.EntitiesGeneration(), inner.EntitiesGeneration());

  // A vanish rule makes every snapshot a draw, inside its window or not.
  DriverFaultRule vanish_rule;
  vanish_rule.kind = DriverFaultRule::Kind::kVanishEntity;
  vanish_rule.from = Seconds(50);
  vanish_rule.until = Seconds(60);
  plan.driver_rules.push_back(vanish_rule);
  FaultInjectingDriver vanishing(inner, plan);
  vanishing.Poll(Seconds(5));
  EXPECT_EQ(vanishing.EntitiesGeneration(), 0u);
  vanishing.Poll(Seconds(55));
  EXPECT_EQ(vanishing.EntitiesGeneration(), 0u);
}

// ---------------------------------------------------------------------------
// OpHealthTracker

TEST(OpHealthTest, ValidateRejectsBadConfigs) {
  HealthConfig bad = FastHealth();
  bad.backoff_base = 0;
  EXPECT_THROW(bad.Validate(), std::invalid_argument);
  bad = FastHealth();
  bad.backoff_cap = Millis(100);  // < base
  EXPECT_THROW(bad.Validate(), std::invalid_argument);
  bad = FastHealth();
  bad.jitter_frac = 1.5;
  EXPECT_THROW(bad.Validate(), std::invalid_argument);
  bad = FastHealth();
  bad.breaker_threshold = 0;
  EXPECT_THROW(bad.Validate(), std::invalid_argument);
  bad = FastHealth();
  bad.probe_interval = 0;
  EXPECT_THROW(bad.Validate(), std::invalid_argument);
  EXPECT_NO_THROW(FastHealth().Validate());
}

TEST(OpHealthTest, BackoffDoublesAndIsDeterministic) {
  OpHealthTracker a(FastHealth());
  OpHealthTracker b(FastHealth());
  const auto ta = a.InternTarget("t:0/0");
  const auto tb = b.InternTarget("t:0/0");
  SimTime prev_delay = 0;
  SimTime now = 0;
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(a.AllowAttempt(OpClass::kSetNice, ta, now));
    a.RecordFailure(OpClass::kSetNice, ta, now, ErrorSeverity::kVanished);
    b.RecordFailure(OpClass::kSetNice, tb, now, ErrorSeverity::kVanished);
    const SimTime delay = a.target_next_retry(OpClass::kSetNice, "t:0/0") - now;
    EXPECT_EQ(delay, b.target_next_retry(OpClass::kSetNice, "t:0/0") - now);
    if (prev_delay > 0) {
      EXPECT_EQ(delay, 2 * prev_delay);
    }
    EXPECT_FALSE(a.AllowAttempt(OpClass::kSetNice, ta, now));
    now = a.target_next_retry(OpClass::kSetNice, "t:0/0");
    prev_delay = delay;
  }
}

TEST(OpHealthTest, PermanentFailuresDeepenBackoffTwiceAsFast) {
  OpHealthTracker tracker(FastHealth());
  tracker.RecordFailure(OpClass::kSetNice, tracker.InternTarget("x"), 0,
                        ErrorSeverity::kPermanent);
  EXPECT_EQ(tracker.target_failures(OpClass::kSetNice, "x"), 2);
  tracker.RecordFailure(OpClass::kSetNice, tracker.InternTarget("y"), 0,
                        ErrorSeverity::kTransient);
  EXPECT_EQ(tracker.target_failures(OpClass::kSetNice, "y"), 1);
  EXPECT_GT(tracker.target_next_retry(OpClass::kSetNice, "x"),
            tracker.target_next_retry(OpClass::kSetNice, "y"));
}

TEST(OpHealthTest, BreakerOpensProbesAndCloses) {
  OpHealthTracker tracker(FastHealth());  // threshold 3, probe 2s
  // Distinct targets so per-target backoff does not mask the class gate.
  std::vector<OpHealthTracker::TargetId> t;
  for (int i = 0; i < 3; ++i) {
    t.push_back(tracker.InternTarget("t" + std::to_string(i)));
  }
  const auto fresh = tracker.InternTarget("fresh");
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(tracker.AllowAttempt(OpClass::kSetGroupShares, t[i], 0));
    tracker.RecordFailure(OpClass::kSetGroupShares, t[i], 0,
                          ErrorSeverity::kTransient);
  }
  EXPECT_EQ(tracker.class_state(OpClass::kSetGroupShares), BreakerState::kOpen);
  EXPECT_EQ(tracker.open_breakers(), 1);
  EXPECT_EQ(tracker.breaker_opens(OpClass::kSetGroupShares), 1u);
  // Open: everything suppressed before the probe time, even new targets.
  EXPECT_FALSE(tracker.AllowAttempt(OpClass::kSetGroupShares, fresh, Seconds(1)));
  EXPECT_FALSE(tracker.ProbeDue(OpClass::kSetGroupShares, Seconds(1)));

  // Probe due: exactly one attempt is let through (the probe).
  EXPECT_TRUE(tracker.ProbeDue(OpClass::kSetGroupShares, Seconds(2)));
  EXPECT_TRUE(tracker.AllowAttempt(OpClass::kSetGroupShares, t[0], Seconds(2)));
  EXPECT_EQ(tracker.class_state(OpClass::kSetGroupShares),
            BreakerState::kHalfOpen);
  EXPECT_FALSE(tracker.AllowAttempt(OpClass::kSetGroupShares, t[1], Seconds(2)));

  // Failed probe: reopens with a doubled interval.
  tracker.RecordFailure(OpClass::kSetGroupShares, t[0], Seconds(2),
                        ErrorSeverity::kTransient);
  EXPECT_EQ(tracker.class_state(OpClass::kSetGroupShares), BreakerState::kOpen);
  EXPECT_FALSE(tracker.ProbeDue(OpClass::kSetGroupShares, Seconds(4)));
  EXPECT_TRUE(tracker.ProbeDue(OpClass::kSetGroupShares, Seconds(6)));

  // Successful probe: closes AND clears the class's per-target backoff.
  ASSERT_TRUE(tracker.AllowAttempt(OpClass::kSetGroupShares, t[1], Seconds(6)));
  tracker.RecordSuccess(OpClass::kSetGroupShares, t[1], Seconds(6));
  EXPECT_EQ(tracker.class_state(OpClass::kSetGroupShares),
            BreakerState::kClosed);
  EXPECT_EQ(tracker.open_breakers(), 0);
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(tracker.AllowAttempt(OpClass::kSetGroupShares, t[i], Seconds(6)));
  }
}

TEST(OpHealthTest, VanishedErrorsNeverOpenTheBreaker) {
  OpHealthTracker tracker(FastHealth());
  for (int i = 0; i < 20; ++i) {
    tracker.RecordFailure(OpClass::kSetNice,
                          tracker.InternTarget("t" + std::to_string(i)), 0,
                          ErrorSeverity::kVanished);
  }
  EXPECT_EQ(tracker.class_state(OpClass::kSetNice), BreakerState::kClosed);
}

TEST(OpHealthTest, VanishedTargetsNeverDecideAProbe) {
  OpHealthTracker tracker(FastHealth());  // threshold 3, probe 2s
  std::vector<OpHealthTracker::TargetId> t;
  for (int i = 0; i < 3; ++i) {
    t.push_back(tracker.InternTarget("t" + std::to_string(i)));
    tracker.RecordFailure(OpClass::kSetNice, t[i], 0,
                          ErrorSeverity::kTransient);
  }
  const auto gone = tracker.InternTarget("gone");
  ASSERT_EQ(tracker.class_state(OpClass::kSetNice), BreakerState::kOpen);

  // A probe that fails as vanished is inconclusive: the breaker reopens
  // with the probe still due, and the vanished target, now backing off, is
  // not handed it again.
  ASSERT_TRUE(tracker.AllowAttempt(OpClass::kSetNice, gone, Seconds(2)));
  tracker.RecordFailure(OpClass::kSetNice, gone, Seconds(2),
                        ErrorSeverity::kVanished);
  EXPECT_EQ(tracker.class_state(OpClass::kSetNice), BreakerState::kOpen);
  EXPECT_TRUE(tracker.ProbeDue(OpClass::kSetNice, Seconds(2)));
  EXPECT_FALSE(tracker.AllowAttempt(OpClass::kSetNice, gone, Seconds(2)));
  EXPECT_EQ(tracker.class_state(OpClass::kSetNice), BreakerState::kOpen);

  // The next op probes; its failure is the first that doubles the interval
  // (2 s -> 4 s), as if the vanished probe had never happened.
  ASSERT_TRUE(tracker.AllowAttempt(OpClass::kSetNice, t[0], Seconds(2)));
  tracker.RecordFailure(OpClass::kSetNice, t[0], Seconds(2),
                        ErrorSeverity::kTransient);
  EXPECT_FALSE(tracker.ProbeDue(OpClass::kSetNice, Millis(5999)));
  EXPECT_TRUE(tracker.ProbeDue(OpClass::kSetNice, Seconds(6)));
}

TEST(OpHealthTest, ForgetTargetDropsStateAcrossClasses) {
  OpHealthTracker tracker(FastHealth());
  const auto target = tracker.InternTarget("t:1/0");
  tracker.RecordFailure(OpClass::kSetNice, target, 0,
                        ErrorSeverity::kTransient);
  tracker.RecordFailure(OpClass::kMoveToGroup, target, 0,
                        ErrorSeverity::kTransient);
  EXPECT_EQ(tracker.tracked_targets(), 2u);
  EXPECT_EQ(tracker.FindTarget("t:1/0"), target);
  tracker.ForgetTarget(target);
  EXPECT_EQ(tracker.tracked_targets(), 0u);
  EXPECT_TRUE(tracker.AllowAttempt(OpClass::kSetNice, target, 0));
  EXPECT_EQ(tracker.FindTarget("t:2/0"), OpHealthTracker::kNoTarget);
}

// ---------------------------------------------------------------------------
// Delta layer + health integration

// Backend where chosen op classes fail until told otherwise.
class BreakableOsAdapter final : public OsAdapter {
 public:
  void SetNice(const ThreadHandle& thread, int nice) override {
    ++nice_calls;
    if (nice_broken) {
      throw OsOperationError("EPERM", ErrorSeverity::kPermanent, EPERM);
    }
    nices[thread.sim_tid.value()] = nice;
  }
  void SetGroupShares(const std::string& group, std::uint64_t shares) override {
    ++shares_calls;
    if (shares_broken) {
      throw OsOperationError("EPERM", ErrorSeverity::kPermanent, EPERM);
    }
    group_shares[group] = shares;
  }
  void MoveToGroup(const ThreadHandle& thread,
                   const std::string& group) override {
    ++move_calls;
    if (shares_broken) {
      throw OsOperationError("EPERM", ErrorSeverity::kPermanent, EPERM);
    }
    thread_group[thread.sim_tid.value()] = group;
  }
  void SetRtPriority(const ThreadHandle& thread, int rt_priority) override {
    ++rt_calls;
    if (rt_broken) {
      throw OsOperationError("EPERM", ErrorSeverity::kPermanent, EPERM);
    }
    rt[thread.sim_tid.value()] = rt_priority;
  }

  bool nice_broken = false;
  bool shares_broken = false;
  bool rt_broken = false;
  int nice_calls = 0;
  int shares_calls = 0;
  int move_calls = 0;
  int rt_calls = 0;
  std::map<std::uint64_t, int> nices;
  std::map<std::string, std::uint64_t> group_shares;
  std::map<std::uint64_t, std::string> thread_group;
  std::map<std::uint64_t, int> rt;
};

TEST(DeltaHealthTest, SuppressedAttemptsAreCountedSeparately) {
  BreakableOsAdapter os;
  os.nice_broken = true;
  ScheduleDeltaAdapter delta(os);
  delta.SetHealthConfig(FastHealth());

  delta.BeginTick(0);
  delta.SetNice(Thread(0), 5);  // attempt 1: fails
  EXPECT_EQ(delta.tick_stats().errors, 1u);
  delta.SetNice(Thread(0), 5);  // still backing off: suppressed, no call
  EXPECT_EQ(delta.tick_stats().suppressed, 1u);
  EXPECT_EQ(os.nice_calls, 1);
}

TEST(DeltaHealthTest, PermanentlyFailingOpRetriesAreLogarithmic) {
  // The acceptance bound: a single op that fails forever must cost
  // O(log T) backend calls over T ticks, not O(T). Interleaved successes
  // on another thread keep the class breaker closed, so the bound comes
  // from per-target exponential backoff alone.
  BreakableOsAdapter os;
  ScheduleDeltaAdapter delta(os);
  delta.SetHealthConfig(FastHealth());

  const int kTicks = 10000;  // seconds of sim time
  int failing_attempts = 0;
  for (int t = 0; t < kTicks; ++t) {
    delta.BeginTick(Seconds(t));
    const int before = os.nice_calls;
    os.nice_broken = true;
    delta.SetNice(Thread(7), -5);  // always fails
    failing_attempts += os.nice_calls - before;
    os.nice_broken = false;
    delta.SetNice(Thread(1), t % 7);  // healthy traffic, changes every tick
  }
  // base 500ms doubling (x2 per attempt, permanent = 2 steps) reaches the
  // 3600s ceiling in ~12 attempts; the remaining ~10ks of run adds at most
  // 3 ceiling-spaced retries.
  EXPECT_LE(failing_attempts, 2 * 14 + 4);
  EXPECT_GE(failing_attempts, 3);  // it kept retrying, just not blindly
  EXPECT_EQ(delta.health().class_state(OpClass::kSetNice),
            BreakerState::kClosed);
}

TEST(DeltaHealthTest, DeadClassCostsLogarithmicProbes) {
  BreakableOsAdapter os;
  os.shares_broken = true;
  ScheduleDeltaAdapter delta(os);
  delta.SetHealthConfig(FastHealth());

  const int kTicks = 10000;
  for (int t = 0; t < kTicks; ++t) {
    delta.BeginTick(Seconds(t));
    for (int g = 0; g < 4; ++g) {
      delta.SetGroupShares("g" + std::to_string(g), 1000 + t);
    }
  }
  // 3 failures open the breaker; after that only doubling-spaced probes
  // reach the backend. 40k attempted ops must shrink to a few dozen calls.
  EXPECT_EQ(delta.health().class_state(OpClass::kSetGroupShares),
            BreakerState::kOpen);
  EXPECT_LE(os.shares_calls, 40);
  EXPECT_GT(delta.totals().suppressed, 0u);
}

TEST(DeltaHealthTest, RecoveryAfterBreakerReappliesEverything) {
  BreakableOsAdapter os;
  os.shares_broken = true;
  ScheduleDeltaAdapter delta(os);
  delta.SetHealthConfig(FastHealth());

  SimTime now = 0;
  for (int t = 0; t < 5; ++t) {
    now = Seconds(t);
    delta.BeginTick(now);
    delta.SetGroupShares("a", 100);
    delta.SetGroupShares("b", 200);
  }
  ASSERT_EQ(delta.health().class_state(OpClass::kSetGroupShares),
            BreakerState::kOpen);

  os.shares_broken = false;  // fault clears
  // Next probe-due tick: the probe succeeds, closing the breaker and
  // clearing the class's backoff; the tick after that re-applies in full.
  for (int t = 5; t < 12 && os.group_shares.size() < 2; ++t) {
    delta.BeginTick(Seconds(t));
    delta.SetGroupShares("a", 100);
    delta.SetGroupShares("b", 200);
  }
  EXPECT_EQ(os.group_shares.at("a"), 100u);
  EXPECT_EQ(os.group_shares.at("b"), 200u);
  EXPECT_EQ(delta.health().class_state(OpClass::kSetGroupShares),
            BreakerState::kClosed);
}

// ---------------------------------------------------------------------------
// Capability degradation ladder

struct LadderRig {
  sim::Simulator sim;
  SimControlExecutor executor{sim};
  BreakableOsAdapter os;
  FakeDriver driver;

  LadderRig() {
    for (int i = 0; i < 3; ++i) {
      const EntityInfo e = driver.AddEntity(QueryId(0), {i});
      driver.SetValue(MetricId::kQueueSize, e.id, 10.0 * (i + 1));
    }
    driver.Provide(MetricId::kQueueSize);
  }
};

TEST(DegradationLadderTest, DemotesWhileBrokenAndPromotesBack) {
  LadderRig rig;
  rig.os.rt_broken = true;
  LachesisRunner runner(rig.executor, rig.os, /*seed=*/3);
  HealthConfig health = FastHealth();
  runner.SetHealthConfig(health);

  PolicyBinding binding;
  binding.policy = std::make_unique<QueueSizePolicy>();
  binding.translator = std::make_unique<RtBoostTranslator>();
  binding.fallback_translators.push_back(std::make_unique<NiceTranslator>());
  binding.period = Seconds(1);
  binding.drivers = {&rig.driver};
  const std::size_t index = runner.AddQuery(std::move(binding));

  runner.Start(Seconds(60));
  // Threshold 3: the RT breaker opens within the first ticks (per-target
  // backoff spaces the failing attempts, so the third failure lands around
  // t=6); the binding then demotes to the nice fallback and keeps
  // enforcing the schedule.
  rig.sim.RunUntil(Seconds(10));
  EXPECT_EQ(runner.binding_level(index), 1u);
  EXPECT_EQ(runner.delta().health().class_state(OpClass::kSetRtPriority),
            BreakerState::kOpen);
  EXPECT_FALSE(rig.os.nices.empty());  // fallback is doing the work
  EXPECT_TRUE(rig.os.rt.empty());

  // Capability restored: the next due probe re-tries the RT translator,
  // the probe succeeds, and the binding promotes back to level 0.
  rig.os.rt_broken = false;
  rig.sim.RunUntil(Seconds(60));
  EXPECT_EQ(runner.binding_level(index), 0u);
  EXPECT_EQ(runner.delta().health().class_state(OpClass::kSetRtPriority),
            BreakerState::kClosed);
  EXPECT_FALSE(rig.os.rt.empty());  // SCHED_FIFO boost went through
}

TEST(DegradationLadderTest, NoFallbackMeansPrimaryKeepsRunning) {
  LadderRig rig;
  rig.os.nice_broken = true;
  LachesisRunner runner(rig.executor, rig.os, /*seed=*/3);
  runner.SetHealthConfig(FastHealth());

  PolicyBinding binding;
  binding.policy = std::make_unique<QueueSizePolicy>();
  binding.translator = std::make_unique<NiceTranslator>();
  binding.period = Seconds(1);
  binding.drivers = {&rig.driver};
  const std::size_t index = runner.AddQuery(std::move(binding));
  runner.Start(Seconds(10));
  rig.sim.RunUntil(Seconds(10));
  // Level never moves (there is nowhere to go) and nothing crashes; the
  // breaker simply suppresses the storm.
  EXPECT_EQ(runner.binding_level(index), 0u);
  EXPECT_GT(runner.delta_totals().suppressed, 0u);
}

TEST(DegradationLadderTest, DegradedBindingsSurfaceInTickInfo) {
  LadderRig rig;
  rig.os.rt_broken = true;
  LachesisRunner runner(rig.executor, rig.os, /*seed=*/3);
  runner.SetHealthConfig(FastHealth());

  PolicyBinding binding;
  binding.policy = std::make_unique<QueueSizePolicy>();
  binding.translator = std::make_unique<RtBoostTranslator>();
  binding.fallback_translators.push_back(std::make_unique<NiceTranslator>());
  binding.period = Seconds(1);
  binding.drivers = {&rig.driver};
  runner.AddQuery(std::move(binding));

  int max_open = 0;
  int max_degraded = 0;
  runner.SetTickObserver([&](const RunnerTickInfo& info) {
    max_open = std::max(max_open, info.open_breakers);
    max_degraded = std::max(max_degraded, info.degraded_bindings);
  });
  runner.Start(Seconds(8));
  rig.sim.RunUntil(Seconds(8));
  EXPECT_GE(max_open, 1);
  EXPECT_EQ(max_degraded, 1);
}

// ---------------------------------------------------------------------------
// Restart reconciliation

struct RestartRig {
  sim::Simulator sim;
  SimControlExecutor executor{sim};
  RecordingOsAdapter os;  // plays the kernel: state survives "restarts"
  FakeDriver driver;

  RestartRig() {
    for (int i = 0; i < 4; ++i) {
      const EntityInfo e = driver.AddEntity(QueryId(0), {i});
      driver.SetValue(MetricId::kQueueSize, e.id, 5.0 * (i + 1));
    }
    driver.Provide(MetricId::kQueueSize);
  }

  PolicyBinding Binding() {
    PolicyBinding b;
    b.policy = std::make_unique<QueueSizePolicy>();
    b.translator = std::make_unique<QuerySharesPlusNiceTranslator>();
    b.period = Seconds(1);
    b.drivers = {&driver};
    return b;
  }
};

TEST(RestartReconciliationTest, FirstTickAppliesZeroOpsWhenStateMatches) {
  RestartRig rig;

  // First incarnation: run a few periods so the "kernel" holds the
  // steady-state schedule.
  {
    LachesisRunner runner(rig.executor, rig.os, /*seed=*/11);
    runner.AddQuery(rig.Binding());
    runner.Start(Seconds(3));
    rig.sim.RunUntil(Seconds(3));
    ASSERT_GT(runner.delta_totals().applied, 0u);
  }
  const auto kernel_nices = rig.os.nices;
  const auto kernel_groups = rig.os.group_shares;

  // "Restart": a brand-new runner over the same kernel state. Without
  // reconciliation its first tick would re-apply everything; with it, the
  // delta cache is seeded from the snapshot and the first tick is free.
  LachesisRunner restarted(rig.executor, rig.os, /*seed=*/11);
  restarted.AddQuery(rig.Binding());
  const std::size_t seeded = restarted.ReconcileWithBackend();
  EXPECT_GT(seeded, 0u);
  EXPECT_EQ(restarted.delta().adopted_groups(), kernel_groups.size());

  std::vector<DeltaStats> ticks;
  restarted.SetTickObserver(
      [&ticks](const RunnerTickInfo& info) { ticks.push_back(info.delta); });
  restarted.Start(Seconds(6));
  rig.sim.RunUntil(Seconds(6));

  ASSERT_FALSE(ticks.empty());
  EXPECT_EQ(ticks.front().applied, 0u)
      << "reconciled restart must not re-apply a matching schedule";
  EXPECT_GT(ticks.front().skipped, 0u);
  EXPECT_EQ(rig.os.nices, kernel_nices);
  EXPECT_EQ(rig.os.group_shares, kernel_groups);
}

TEST(RestartReconciliationTest, DivergedKernelStateIsRepaired) {
  RestartRig rig;
  {
    LachesisRunner runner(rig.executor, rig.os, /*seed=*/11);
    runner.AddQuery(rig.Binding());
    runner.Start(Seconds(3));
    rig.sim.RunUntil(Seconds(3));
  }
  // Someone reniced a thread while the daemon was down (-15 is a value the
  // schedule never assigns to the lowest-priority thread).
  const std::uint64_t victim = 0;
  rig.os.nices[victim] = -15;

  LachesisRunner restarted(rig.executor, rig.os, /*seed=*/11);
  restarted.AddQuery(rig.Binding());
  restarted.ReconcileWithBackend();
  std::vector<DeltaStats> ticks;
  restarted.SetTickObserver(
      [&ticks](const RunnerTickInfo& info) { ticks.push_back(info.delta); });
  restarted.Start(Seconds(6));
  rig.sim.RunUntil(Seconds(6));

  // Exactly the diverged entry is re-applied; the rest is recognized.
  ASSERT_FALSE(ticks.empty());
  EXPECT_EQ(ticks.front().applied, 1u);
  EXPECT_NE(rig.os.nices.at(victim), -15);
}

TEST(RestartReconciliationTest, SnapshotlessBackendSeedsNothing) {
  // FlakyOsAdapter-style backends without SnapshotState: reconciliation
  // degrades to a no-op (empty cache, full first apply) instead of failing.
  sim::Simulator sim;
  SimControlExecutor executor(sim);
  BreakableOsAdapter os;  // no SnapshotState override
  FakeDriver driver;
  const EntityInfo e = driver.AddEntity(QueryId(0), {0});
  driver.Provide(MetricId::kQueueSize);
  driver.SetValue(MetricId::kQueueSize, e.id, 5);

  LachesisRunner runner(executor, os);
  PolicyBinding binding;
  binding.policy = std::make_unique<QueueSizePolicy>();
  binding.translator = std::make_unique<NiceTranslator>();
  binding.period = Seconds(1);
  binding.drivers = {&driver};
  runner.AddQuery(std::move(binding));
  EXPECT_EQ(runner.ReconcileWithBackend(), 0u);
  runner.Start(Seconds(2));
  sim.RunUntil(Seconds(2));
  EXPECT_GT(runner.delta_totals().applied, 0u);  // full first apply
}

}  // namespace
}  // namespace lachesis::core
