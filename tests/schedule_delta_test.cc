// Tests of the schedule-delta layer: unchanged operations are elided, the
// counters account for every translator call, backend failures are absorbed
// (never aborting the tick) and retried because failed values are not
// cached.
#include "core/schedule_delta.h"

#include <array>
#include <cerrno>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/runner.h"
#include "core/sim_executor.h"
#include "obs/explain.h"
#include "obs/recorder.h"
#include "osctl/cgroupfs.h"
#include "osctl/linux_os_adapter.h"
#include "osctl/nice.h"
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

// Counts calls and optionally throws for selected targets, mimicking a
// native backend whose thread/cgroup vanished mid-period.
class FlakyOsAdapter final : public OsAdapter {
 public:
  void SetNice(const ThreadHandle& thread, int nice) override {
    ++nice_calls;
    if (thread.sim_tid.value() == failing_tid) {
      throw OsOperationError("thread vanished");
    }
    nices[thread.sim_tid.value()] = nice;
  }
  void SetGroupShares(const std::string& group, std::uint64_t value) override {
    ++shares_calls;
    if (group == failing_group) throw OsOperationError("cgroup vanished");
    shares[group] = value;
  }
  void MoveToGroup(const ThreadHandle& thread,
                   const std::string& group) override {
    ++move_calls;
    thread_group[thread.sim_tid.value()] = group;
  }
  void SetRtPriority(const ThreadHandle& thread, int rt_priority) override {
    ++rt_calls;
    rt[thread.sim_tid.value()] = rt_priority;
  }
  void SetGroupQuota(const std::string& group, SimDuration quota,
                     SimDuration period) override {
    ++quota_calls;
    quotas[group] = {quota, period};
  }
  void SetDeadline(const ThreadHandle& thread, SimDuration runtime,
                   SimDuration deadline, SimDuration period) override {
    ++deadline_calls;
    if (thread.sim_tid.value() == failing_dl_tid) {
      throw OsOperationError("admission control rejected");
    }
    deadlines[thread.sim_tid.value()] = {runtime, deadline, period};
  }
  void SetCpuAffinity(const ThreadHandle& thread, CpuPreference pref) override {
    ++affinity_calls;
    affinity[thread.sim_tid.value()] = pref;
  }

  std::uint64_t failing_tid = ~0ull;
  std::uint64_t failing_dl_tid = ~0ull;
  std::string failing_group;
  int nice_calls = 0;
  int shares_calls = 0;
  int move_calls = 0;
  int rt_calls = 0;
  int quota_calls = 0;
  int deadline_calls = 0;
  int affinity_calls = 0;
  std::map<std::uint64_t, int> nices;
  std::map<std::string, std::uint64_t> shares;
  std::map<std::uint64_t, std::string> thread_group;
  std::map<std::uint64_t, int> rt;
  std::map<std::string, std::pair<SimDuration, SimDuration>> quotas;
  std::map<std::uint64_t, std::array<SimDuration, 3>> deadlines;
  std::map<std::uint64_t, CpuPreference> affinity;
};

TEST(ScheduleDeltaTest, IdenticalOperationsAreSkipped) {
  FlakyOsAdapter os;
  ScheduleDeltaAdapter delta(os);

  delta.SetNice(Thread(0), 5);
  delta.SetNice(Thread(0), 5);
  delta.SetGroupShares("g", 1024);
  delta.SetGroupShares("g", 1024);
  delta.MoveToGroup(Thread(0), "g");
  delta.MoveToGroup(Thread(0), "g");
  delta.SetGroupQuota("g", Millis(50), Millis(100));
  delta.SetGroupQuota("g", Millis(50), Millis(100));

  EXPECT_EQ(os.nice_calls, 1);
  EXPECT_EQ(os.shares_calls, 1);
  EXPECT_EQ(os.move_calls, 1);
  EXPECT_EQ(os.quota_calls, 1);
  EXPECT_EQ(delta.totals().applied, 4u);
  EXPECT_EQ(delta.totals().skipped, 4u);
  EXPECT_EQ(delta.totals().errors, 0u);
}

TEST(ScheduleDeltaTest, ChangedValuesAreForwarded) {
  FlakyOsAdapter os;
  ScheduleDeltaAdapter delta(os);

  delta.SetNice(Thread(0), 5);
  delta.SetNice(Thread(0), -10);
  EXPECT_EQ(os.nice_calls, 2);
  EXPECT_EQ(os.nices.at(0), -10);

  delta.MoveToGroup(Thread(0), "a");
  delta.MoveToGroup(Thread(0), "b");
  EXPECT_EQ(os.thread_group.at(0), "b");
  EXPECT_EQ(os.move_calls, 2);
}

TEST(ScheduleDeltaTest, DistinctThreadsHaveIndependentState) {
  FlakyOsAdapter os;
  ScheduleDeltaAdapter delta(os);
  delta.SetNice(Thread(0), 5);
  delta.SetNice(Thread(1), 5);  // same value, different thread: forwarded
  EXPECT_EQ(os.nice_calls, 2);
}

TEST(ScheduleDeltaTest, FailureIsCountedAndTickContinues) {
  FlakyOsAdapter os;
  os.failing_tid = 1;
  ScheduleDeltaAdapter delta(os);

  delta.BeginTick();
  delta.SetNice(Thread(0), 5);
  delta.SetNice(Thread(1), 5);  // throws inside the backend
  delta.SetNice(Thread(2), 5);  // still applied: the tick goes on

  EXPECT_EQ(delta.tick_stats().applied, 2u);
  EXPECT_EQ(delta.tick_stats().errors, 1u);
  EXPECT_EQ(os.nices.count(0), 1u);
  EXPECT_EQ(os.nices.count(2), 1u);
}

TEST(ScheduleDeltaTest, FailedValueIsRetriedNextTime) {
  FlakyOsAdapter os;
  os.failing_tid = 0;
  ScheduleDeltaAdapter delta(os);

  delta.SetNice(Thread(0), 5);  // fails; must not be cached as applied
  EXPECT_EQ(delta.totals().errors, 1u);

  os.failing_tid = ~0ull;       // "thread came back" (e.g. re-resolved tid)
  delta.SetNice(Thread(0), 5);  // same value, but retried because it failed
  EXPECT_EQ(os.nices.at(0), 5);
  EXPECT_EQ(delta.totals().applied, 1u);
}

// LinuxOsAdapter fails an op on a thread the driver never resolved
// (os_tid < 0), so nothing is cached: the same op on the next tick is tried
// again, never skipped as unchanged. With health on, the failure backs the
// target off without counting toward the class breaker.
TEST(ScheduleDeltaTest, UnresolvedThreadIsNeverAppliedOrSkipped) {
  osctl::FakeNiceController nice;
  osctl::CgroupController cgroups("", osctl::CgroupVersion::kV1);
  osctl::LinuxOsAdapter os(nice, cgroups);
  for (const bool health_on : {false, true}) {
    ScheduleDeltaAdapter delta(os);
    HealthConfig health;
    health.enabled = health_on;
    health.jitter_frac = 0.0;
    health.breaker_threshold = 1;  // a class signal would open it at once
    delta.SetHealthConfig(health);
    const ThreadHandle unresolved;  // os_tid = -1

    for (int tick = 0; tick < 2; ++tick) {
      delta.BeginTick(Seconds(tick));  // past the 500 ms backoff
      delta.SetNice(unresolved, 5);
      delta.MoveToGroup(unresolved, "g");
      EXPECT_EQ(delta.tick_stats().applied, 0u) << health_on << tick;
      EXPECT_EQ(delta.tick_stats().skipped, 0u) << health_on << tick;
      EXPECT_EQ(delta.tick_stats().errors, 2u) << health_on << tick;
    }
    EXPECT_EQ(delta.health().open_breakers(), 0) << health_on;
  }
  EXPECT_TRUE(nice.nices().empty());
}

// Nice backend that refuses every write with EPERM while `deny` is set.
class DenyingNiceController final : public osctl::NiceController {
 public:
  bool SetNice(long tid, int nice) override {
    if (deny) {
      errno = EPERM;
      return false;
    }
    nices[tid] = nice;
    return true;
  }
  std::optional<int> GetNice(long) override { return std::nullopt; }

  bool deny = true;
  std::map<long, int> nices;
};

// The nice breaker opens on permanent errors while an unresolved thread is
// listed first in every tick. Its vanished failures must not take every
// half-open probe: once the backend accepts writes again, a resolved op
// probes, the breaker closes and every resolved thread is set.
TEST(ScheduleDeltaTest, UnresolvedThreadDoesNotHoldTheBreakerOpen) {
  DenyingNiceController nice;
  osctl::CgroupController cgroups("", osctl::CgroupVersion::kV1);
  osctl::LinuxOsAdapter os(nice, cgroups);
  ScheduleDeltaAdapter delta(os);
  HealthConfig health;  // the runner's defaults, jitter included
  health.enabled = true;
  delta.SetHealthConfig(health);
  const ThreadHandle unresolved;  // os_tid = -1
  std::vector<ThreadHandle> resolved(3);
  for (int i = 0; i < 3; ++i) {
    resolved[i].sim_tid = ThreadId(i + 1);
    resolved[i].os_tid = 101 + i;
  }

  constexpr int kDeniedTicks = 20;
  bool opened = false;
  int closed_at = -1;
  for (int tick = 0; tick < 200 && closed_at < 0; ++tick) {
    nice.deny = tick < kDeniedTicks;
    delta.BeginTick(Seconds(tick));
    delta.SetNice(unresolved, 5);
    for (const ThreadHandle& thread : resolved) delta.SetNice(thread, 5);
    const BreakerState state = delta.health().class_state(OpClass::kSetNice);
    opened = opened || state == BreakerState::kOpen;
    if (opened && state == BreakerState::kClosed) closed_at = tick;
  }
  ASSERT_TRUE(opened);
  // The first probe due after the denial ends closes the breaker; the
  // interval has doubled to 16 s by then.
  EXPECT_GE(closed_at, kDeniedTicks);
  EXPECT_LE(closed_at, kDeniedTicks + 16);
  EXPECT_EQ(nice.nices, (std::map<long, int>{{101, 5}, {102, 5}, {103, 5}}));
}

TEST(ScheduleDeltaTest, GroupFailureDoesNotPoisonOtherGroups) {
  FlakyOsAdapter os;
  os.failing_group = "bad";
  ScheduleDeltaAdapter delta(os);

  delta.BeginTick();
  delta.SetGroupShares("good", 2048);
  delta.SetGroupShares("bad", 2048);
  delta.SetGroupQuota("good", Millis(10), Millis(100));
  EXPECT_EQ(delta.tick_stats().errors, 1u);
  EXPECT_EQ(delta.tick_stats().applied, 2u);
  EXPECT_EQ(os.shares.at("good"), 2048u);
}

TEST(ScheduleDeltaTest, PassThroughModeForwardsEverything) {
  FlakyOsAdapter os;
  ScheduleDeltaAdapter delta(os);
  delta.set_enabled(false);
  delta.SetNice(Thread(0), 5);
  delta.SetNice(Thread(0), 5);
  EXPECT_EQ(os.nice_calls, 2);
  EXPECT_EQ(delta.totals().applied, 2u);
  EXPECT_EQ(delta.totals().skipped, 0u);
}

TEST(ScheduleDeltaTest, ResetReappliesInFull) {
  FlakyOsAdapter os;
  ScheduleDeltaAdapter delta(os);
  delta.SetNice(Thread(0), 5);
  delta.Reset();
  delta.SetNice(Thread(0), 5);
  EXPECT_EQ(os.nice_calls, 2);
}

TEST(ScheduleDeltaTest, RtDemotionOfUnboostedThreadIsElided) {
  FlakyOsAdapter os;
  ScheduleDeltaAdapter delta(os);
  // Demoting a thread that was never boosted is a no-op everywhere.
  delta.SetRtPriority(Thread(0), 0);
  EXPECT_EQ(os.rt_calls, 0);
  EXPECT_EQ(delta.rt_boosted_count(), 0u);

  delta.SetRtPriority(Thread(0), 10);
  EXPECT_EQ(delta.rt_boosted_count(), 1u);
  delta.SetRtPriority(Thread(0), 0);
  EXPECT_EQ(os.rt_calls, 2);
  EXPECT_EQ(delta.rt_boosted_count(), 0u);
}

TEST(ScheduleDeltaTest, IdenticalDeadlineTriplesAreSkipped) {
  FlakyOsAdapter os;
  ScheduleDeltaAdapter delta(os);

  delta.SetDeadline(Thread(0), Millis(4), Millis(10), Millis(10));
  delta.SetDeadline(Thread(0), Millis(4), Millis(10), Millis(10));
  EXPECT_EQ(os.deadline_calls, 1);
  EXPECT_EQ(delta.dl_reserved_count(), 1u);

  // Any component change re-forwards.
  delta.SetDeadline(Thread(0), Millis(4), Millis(8), Millis(10));
  EXPECT_EQ(os.deadline_calls, 2);
  EXPECT_EQ((os.deadlines.at(0)),
            (std::array<SimDuration, 3>{Millis(4), Millis(8), Millis(10)}));
  EXPECT_EQ(delta.dl_reserved_count(), 1u);
}

TEST(ScheduleDeltaTest, ClearingNeverReservedThreadIsElided) {
  // Mirrors the RT-demotion elision: the all-zero triple against a thread
  // that never held a reservation must not reach the backend (translator
  // reconciliation issues such clears wholesale every period).
  FlakyOsAdapter os;
  ScheduleDeltaAdapter delta(os);
  delta.SetDeadline(Thread(0), 0, 0, 0);
  EXPECT_EQ(os.deadline_calls, 0);
  EXPECT_EQ(delta.dl_reserved_count(), 0u);

  delta.SetDeadline(Thread(0), Millis(2), Millis(10), Millis(10));
  EXPECT_EQ(delta.dl_reserved_count(), 1u);
  delta.SetDeadline(Thread(0), 0, 0, 0);
  EXPECT_EQ(os.deadline_calls, 2);
  EXPECT_EQ(delta.dl_reserved_count(), 0u);
}

TEST(ScheduleDeltaTest, RejectedReservationIsNotCached) {
  // Admission rejection must behave like any backend failure: counted,
  // absorbed, and retried once the admission picture can have changed.
  FlakyOsAdapter os;
  os.failing_dl_tid = 0;
  ScheduleDeltaAdapter delta(os);

  delta.SetDeadline(Thread(0), Millis(8), Millis(10), Millis(10));
  EXPECT_EQ(delta.totals().errors, 1u);
  EXPECT_EQ(delta.dl_reserved_count(), 0u);

  os.failing_dl_tid = ~0ull;  // another query released its reservation
  delta.SetDeadline(Thread(0), Millis(8), Millis(10), Millis(10));
  EXPECT_EQ(os.deadlines.count(0), 1u);
  EXPECT_EQ(delta.dl_reserved_count(), 1u);
}

TEST(ScheduleDeltaTest, IdenticalAffinityHintsAreSkipped) {
  FlakyOsAdapter os;
  ScheduleDeltaAdapter delta(os);

  // Clearing a never-hinted thread is a no-op everywhere.
  delta.SetCpuAffinity(Thread(0), CpuPreference::kNone);
  EXPECT_EQ(os.affinity_calls, 0);

  delta.SetCpuAffinity(Thread(0), CpuPreference::kPreferBig);
  delta.SetCpuAffinity(Thread(0), CpuPreference::kPreferBig);
  EXPECT_EQ(os.affinity_calls, 1);
  delta.SetCpuAffinity(Thread(0), CpuPreference::kPreferLittle);
  EXPECT_EQ(os.affinity_calls, 2);
  EXPECT_EQ(os.affinity.at(0), CpuPreference::kPreferLittle);
}

TEST(ScheduleDeltaTest, SnapshotSeedElidesMatchingDeadline) {
  // Restart reconciliation: the kernel still holds a reservation from the
  // previous incarnation; re-applying the same triple costs zero backend
  // calls, while a different triple is forwarded.
  FlakyOsAdapter os;
  OsStateSnapshot snapshot;
  OsStateSnapshot::ThreadState state;
  state.thread = Thread(0);
  state.deadline = sim::DeadlineParams{Millis(4), Millis(10), Millis(10)};
  snapshot.threads.push_back(state);

  ScheduleDeltaAdapter delta(os);
  EXPECT_EQ(delta.SeedFromSnapshot(snapshot), 1u);
  EXPECT_EQ(delta.dl_reserved_count(), 1u);

  delta.SetDeadline(Thread(0), Millis(4), Millis(10), Millis(10));
  EXPECT_EQ(os.deadline_calls, 0);  // matched residual state
  delta.SetDeadline(Thread(0), Millis(6), Millis(10), Millis(10));
  EXPECT_EQ(os.deadline_calls, 1);
}

TEST(ScheduleDeltaTest, HealthBackoffStopsBlindPerTickRetry) {
  // Regression for the blind-retry storm: with health tracking on (as the
  // runner configures it), a target that keeps failing is NOT re-attempted
  // every tick -- the delta layer suppresses attempts until the backoff
  // deadline passes.
  FlakyOsAdapter os;
  os.failing_tid = 0;
  ScheduleDeltaAdapter delta(os);
  HealthConfig health;
  health.enabled = true;
  health.backoff_base = Millis(500);
  health.jitter_frac = 0.0;
  health.breaker_threshold = 1000;  // isolate the per-target backoff
  delta.SetHealthConfig(health);

  delta.BeginTick(0);
  delta.SetNice(Thread(0), 5);  // fails
  EXPECT_EQ(os.nice_calls, 1);
  delta.BeginTick(Millis(100));  // next tick, backoff not yet expired
  delta.SetNice(Thread(0), 5);
  EXPECT_EQ(os.nice_calls, 1);  // suppressed: no blind retry
  EXPECT_EQ(delta.tick_stats().suppressed, 1u);
  delta.BeginTick(Millis(600));  // past the 500ms backoff: retried
  delta.SetNice(Thread(0), 5);
  EXPECT_EQ(os.nice_calls, 2);
}

TEST(ScheduleDeltaTest, RetryCountIsBoundedOverManyTicks) {
  // 1000 one-second ticks against a permanently failing thread: the
  // doubling backoff must bound actual backend calls to O(log T).
  FlakyOsAdapter os;
  os.failing_tid = 0;
  ScheduleDeltaAdapter delta(os);
  HealthConfig health;
  health.enabled = true;
  health.backoff_base = Millis(500);
  health.breaker_threshold = 1000;
  delta.SetHealthConfig(health);

  for (int t = 0; t < 1000; ++t) {
    delta.BeginTick(Seconds(t));
    delta.SetNice(Thread(0), 5);
  }
  EXPECT_LE(os.nice_calls, 14);  // ~log2(1000s / 500ms) + slack
  EXPECT_GE(os.nice_calls, 3);
  EXPECT_EQ(delta.totals().errors + delta.totals().suppressed, 1000u);
}

// --- the op path of every class, pinned event by event ---------------------

// Accepts every op and counts it, or throws the scripted failure on the
// next call.
class ScriptedOsAdapter final : public OsAdapter {
 public:
  enum class Fail { kNone, kOsError, kPlain };

  void SetNice(const ThreadHandle&, int) override { Call(); }
  void SetGroupShares(const std::string&, std::uint64_t) override { Call(); }
  void MoveToGroup(const ThreadHandle&, const std::string&) override {
    Call();
  }
  void SetRtPriority(const ThreadHandle&, int) override { Call(); }
  void SetGroupQuota(const std::string&, SimDuration, SimDuration) override {
    Call();
  }
  void SetDeadline(const ThreadHandle&, SimDuration, SimDuration,
                   SimDuration) override {
    Call();
  }
  void SetCpuAffinity(const ThreadHandle&, CpuPreference) override { Call(); }

  Fail next = Fail::kNone;
  int calls = 0;

 private:
  void Call() {
    ++calls;
    switch (std::exchange(next, Fail::kNone)) {
      case Fail::kNone:
        return;
      case Fail::kOsError:
        throw OsOperationError("scripted EPERM", ErrorSeverity::kPermanent,
                               EPERM);
      case Fail::kPlain:
        throw std::runtime_error("scripted plain failure");
    }
  }
};

// The values each step of the pin sequence applies.
enum PinStep { kFirst = 0, kChanged, kClear, kFailing };

ThreadHandle PinThread(int target) {
  ThreadHandle t;
  t.sim_tid = ThreadId(static_cast<std::uint64_t>(target) + 1);
  t.os_tid = 101 + target;
  return t;
}

std::string PinGroup(int target) { return "q" + std::to_string(target + 1); }

struct OpPathCase {
  const char* name;
  // Applies the class's op to target 0, 1 or 2 with the value of `step`.
  // kClear is the class's default state: no rt priority, no reservation,
  // no affinity hint, nice 0, 1024 shares, no quota, the first group.
  std::function<void(ScheduleDeltaAdapter&, int, PinStep)> apply;
  std::vector<std::string> events;
  // Detail of the suppressed retry (FormatEvent does not print it).
  std::string suppressed_detail;
  DeltaStats stats;
  int backend_calls;
};

TEST(ScheduleDeltaTest, EveryOpClassTakesTheSameOpPath) {
  // Per class: first apply, repeat, changed value, clear of a never-set
  // target, an OsOperationError, a plain std::exception, and the retry the
  // backoff suppresses. Pins every recorded event, detail strings included.
  const std::vector<OpPathCase> cases = {
      {"nice",
       [](ScheduleDeltaAdapter& d, int t, PinStep s) {
         constexpr int kValue[] = {5, -3, 0, 7};
         d.SetNice(PinThread(t), kValue[s]);
       },
       {
         "#0 1.000000s SetNice(t:1/101) applied: value=5",
         "#1 1.000000s SetNice(t:1/101) elided: unchanged value=5",
         "#2 1.000000s SetNice(t:1/101) applied: value=-3",
         "#3 1.000000s SetNice(t:2/102) applied: value=0",
         "#4 1.000000s backoff[SetNice] armed for t:1/101: failures=2"
         " retry at 2.000000s",
         "#5 1.000000s SetNice(t:1/101) FAILED: scripted EPERM",
         "#6 1.000000s backoff[SetNice] armed for t:3/103: failures=1"
         " retry at 1.500000s",
         "#7 1.000000s SetNice(t:3/103) FAILED: scripted plain failure",
         "#8 1.000000s SetNice(t:1/101)"
         " suppressed by backoff/breaker (wanted 7)",
       },
       "",
       {3, 1, 2, 1},
       5},
      {"shares",
       [](ScheduleDeltaAdapter& d, int t, PinStep s) {
         constexpr std::uint64_t kValue[] = {2048, 512, 1024, 4096};
         d.SetGroupShares(PinGroup(t), kValue[s]);
       },
       {
         "#0 1.000000s SetGroupShares(g:q1) applied: value=2048",
         "#1 1.000000s SetGroupShares(g:q1) elided: unchanged value=2048",
         "#2 1.000000s SetGroupShares(g:q1) applied: value=512",
         "#3 1.000000s SetGroupShares(g:q2) applied: value=1024",
         "#4 1.000000s backoff[SetGroupShares] armed for g:q1: failures=2"
         " retry at 2.000000s",
         "#5 1.000000s SetGroupShares(g:q1) FAILED: scripted EPERM",
         "#6 1.000000s backoff[SetGroupShares] armed for g:q3: failures=1"
         " retry at 1.500000s",
         "#7 1.000000s SetGroupShares(g:q3) FAILED: scripted plain failure",
         "#8 1.000000s SetGroupShares(g:q1)"
         " suppressed by backoff/breaker (wanted 4096)",
       },
       "",
       {3, 1, 2, 1},
       5},
      {"move",
       [](ScheduleDeltaAdapter& d, int t, PinStep s) {
         const char* const kGroup[] = {"q1", "q2", "q1", "q3"};
         d.MoveToGroup(PinThread(t), kGroup[s]);
       },
       {
         "#0 1.000000s MoveToGroup(t:1/101) applied: value=0 q1",
         "#1 1.000000s MoveToGroup(t:1/101) elided: unchanged value=0",
         "#2 1.000000s MoveToGroup(t:1/101) applied: value=0 q2",
         "#3 1.000000s MoveToGroup(t:2/102) applied: value=0 q1",
         "#4 1.000000s backoff[MoveToGroup] armed for t:1/101: failures=2"
         " retry at 2.000000s",
         "#5 1.000000s MoveToGroup(t:1/101) FAILED: scripted EPERM",
         "#6 1.000000s backoff[MoveToGroup] armed for t:3/103: failures=1"
         " retry at 1.500000s",
         "#7 1.000000s MoveToGroup(t:3/103) FAILED: scripted plain failure",
         "#8 1.000000s MoveToGroup(t:1/101)"
         " suppressed by backoff/breaker (wanted 0)",
       },
       "q3",
       {3, 1, 2, 1},
       5},
      {"rt",
       [](ScheduleDeltaAdapter& d, int t, PinStep s) {
         constexpr int kValue[] = {10, 20, 0, 30};
         d.SetRtPriority(PinThread(t), kValue[s]);
       },
       {
         "#0 1.000000s SetRtPriority(t:1/101) applied: value=10",
         "#1 1.000000s SetRtPriority(t:1/101) elided: unchanged value=10",
         "#2 1.000000s SetRtPriority(t:1/101) applied: value=20",
         "#3 1.000000s SetRtPriority(t:2/102) elided: unchanged value=0",
         "#4 1.000000s backoff[SetRtPriority] armed for t:1/101: failures=2"
         " retry at 2.000000s",
         "#5 1.000000s SetRtPriority(t:1/101) FAILED: scripted EPERM",
         "#6 1.000000s backoff[SetRtPriority] armed for t:3/103: failures=1"
         " retry at 1.500000s",
         "#7 1.000000s SetRtPriority(t:3/103) FAILED: scripted plain failure",
         "#8 1.000000s SetRtPriority(t:1/101)"
         " suppressed by backoff/breaker (wanted 30)",
       },
       "",
       {2, 2, 2, 1},
       4},
      {"quota",
       [](ScheduleDeltaAdapter& d, int t, PinStep s) {
         constexpr std::array<SimDuration, 2> kValue[] = {
             {Millis(50), Millis(100)},
             {Millis(30), Millis(100)},
             {0, Millis(100)},
             {Millis(20), Millis(50)}};
         d.SetGroupQuota(PinGroup(t), kValue[s][0], kValue[s][1]);
       },
       {
         "#0 1.000000s SetGroupQuota(g:q1) applied: value=50000000"
         " period_ns=100000000",
         "#1 1.000000s SetGroupQuota(g:q1) elided: unchanged value=50000000",
         "#2 1.000000s SetGroupQuota(g:q1) applied: value=30000000"
         " period_ns=100000000",
         "#3 1.000000s SetGroupQuota(g:q2) applied: value=0"
         " period_ns=100000000",
         "#4 1.000000s backoff[SetGroupQuota] armed for g:q1: failures=2"
         " retry at 2.000000s",
         "#5 1.000000s SetGroupQuota(g:q1) FAILED: scripted EPERM",
         "#6 1.000000s backoff[SetGroupQuota] armed for g:q3: failures=1"
         " retry at 1.500000s",
         "#7 1.000000s SetGroupQuota(g:q3) FAILED: scripted plain failure",
         "#8 1.000000s SetGroupQuota(g:q1)"
         " suppressed by backoff/breaker (wanted 20000000)",
       },
       "period_ns=50000000",
       {3, 1, 2, 1},
       5},
      {"deadline",
       [](ScheduleDeltaAdapter& d, int t, PinStep s) {
         constexpr std::array<SimDuration, 3> kValue[] = {
             {Millis(4), Millis(10), Millis(10)},
             {Millis(2), Millis(8), Millis(10)},
             {0, 0, 0},
             {Millis(3), Millis(6), Millis(12)}};
         d.SetDeadline(PinThread(t), kValue[s][0], kValue[s][1],
                       kValue[s][2]);
       },
       {
         "#0 1.000000s SetDeadline(t:1/101) applied: value=4000000"
         " deadline_ns=10000000 period_ns=10000000",
         "#1 1.000000s SetDeadline(t:1/101) elided: unchanged value=4000000",
         "#2 1.000000s SetDeadline(t:1/101) applied: value=2000000"
         " deadline_ns=8000000 period_ns=10000000",
         "#3 1.000000s SetDeadline(t:2/102) elided: unchanged value=0",
         "#4 1.000000s backoff[SetDeadline] armed for t:1/101: failures=2"
         " retry at 2.000000s",
         "#5 1.000000s SetDeadline(t:1/101) FAILED: scripted EPERM",
         "#6 1.000000s backoff[SetDeadline] armed for t:3/103: failures=1"
         " retry at 1.500000s",
         "#7 1.000000s SetDeadline(t:3/103) FAILED: scripted plain failure",
         "#8 1.000000s SetDeadline(t:1/101)"
         " suppressed by backoff/breaker (wanted 3000000)",
       },
       "deadline_ns=6000000 period_ns=12000000",
       {2, 2, 2, 1},
       4},
      {"affinity",
       [](ScheduleDeltaAdapter& d, int t, PinStep s) {
         constexpr CpuPreference kValue[] = {
             CpuPreference::kPreferBig, CpuPreference::kPreferLittle,
             CpuPreference::kNone, CpuPreference::kPreferBig};
         d.SetCpuAffinity(PinThread(t), kValue[s]);
       },
       {
         "#0 1.000000s SetAffinity(t:1/101) applied: value=1",
         "#1 1.000000s SetAffinity(t:1/101) elided: unchanged value=1",
         "#2 1.000000s SetAffinity(t:1/101) applied: value=2",
         "#3 1.000000s SetAffinity(t:2/102) elided: unchanged value=0",
         "#4 1.000000s backoff[SetAffinity] armed for t:1/101: failures=2"
         " retry at 2.000000s",
         "#5 1.000000s SetAffinity(t:1/101) FAILED: scripted EPERM",
         "#6 1.000000s backoff[SetAffinity] armed for t:3/103: failures=1"
         " retry at 1.500000s",
         "#7 1.000000s SetAffinity(t:3/103) FAILED: scripted plain failure",
         "#8 1.000000s SetAffinity(t:1/101)"
         " suppressed by backoff/breaker (wanted 1)",
       },
       "",
       {2, 2, 2, 1},
       4},
  };

  for (const OpPathCase& c : cases) {
    SCOPED_TRACE(c.name);
    ScriptedOsAdapter os;
    obs::Recorder recorder;
    recorder.set_verbose(true);
    ScheduleDeltaAdapter delta(os);
    HealthConfig health;
    health.enabled = true;
    health.jitter_frac = 0.0;
    delta.SetHealthConfig(health);
    delta.SetRecorder(&recorder);

    delta.BeginTick(Seconds(1));
    c.apply(delta, 0, kFirst);
    c.apply(delta, 0, kFirst);
    c.apply(delta, 0, kChanged);
    c.apply(delta, 1, kClear);
    os.next = ScriptedOsAdapter::Fail::kOsError;
    c.apply(delta, 0, kFailing);
    os.next = ScriptedOsAdapter::Fail::kPlain;
    c.apply(delta, 2, kFailing);
    c.apply(delta, 0, kFailing);

    const std::vector<obs::Event> recorded = recorder.Snapshot();
    std::vector<std::string> events;
    for (const obs::Event& e : recorded) {
      events.push_back(
          obs::FormatEvent(recorder, e, LachesisRunner::OpClassNameForObs));
    }
    EXPECT_EQ(events, c.events);
    ASSERT_FALSE(recorded.empty());
    EXPECT_EQ(recorder.Name(recorded.back().detail), c.suppressed_detail);
    const DeltaStats& stats = delta.tick_stats();
    EXPECT_EQ(stats.applied, c.stats.applied);
    EXPECT_EQ(stats.skipped, c.stats.skipped);
    EXPECT_EQ(stats.errors, c.stats.errors);
    EXPECT_EQ(stats.suppressed, c.stats.suppressed);
    EXPECT_EQ(delta.totals().applied, stats.applied);
    EXPECT_EQ(os.calls, c.backend_calls);
  }
}

// A policy that always produces the same priorities: after the first tick
// every translator operation is redundant.
class ConstantPolicy final : public SchedulingPolicy {
 public:
  [[nodiscard]] const std::string& name() const override { return name_; }
  [[nodiscard]] std::vector<MetricId> RequiredMetrics() const override {
    return {MetricId::kQueueSize};
  }
  Schedule ComputeSchedule(const PolicyContext& ctx) override {
    Schedule s;
    ctx.ForEachEntity([&](SpeDriver&, const EntityInfo& e) {
      s.entries.push_back({&e, static_cast<double>(e.id.value())});
    });
    return s;
  }

 private:
  std::string name_ = "constant";
};

TEST(ScheduleDeltaTest, UnchangedScheduleIssuesZeroOsOperations) {
  // The issue's acceptance test: a schedule identical to the previous
  // period reaches the OS adapter as zero operations.
  sim::Simulator sim;
  SimControlExecutor executor(sim);
  RecordingOsAdapter os;
  FakeDriver driver;
  const EntityInfo a = driver.AddEntity(QueryId(0), {0});
  const EntityInfo b = driver.AddEntity(QueryId(0), {1});
  driver.Provide(MetricId::kQueueSize);
  driver.SetValue(MetricId::kQueueSize, a.id, 1);
  driver.SetValue(MetricId::kQueueSize, b.id, 2);

  LachesisRunner runner(executor, os);
  PolicyBinding binding;
  binding.policy = std::make_unique<ConstantPolicy>();
  binding.translator = std::make_unique<NiceTranslator>();
  binding.period = Seconds(1);
  binding.drivers = {&driver};
  runner.AddQuery(std::move(binding));

  std::vector<DeltaStats> per_tick;
  runner.SetTickObserver(
      [&per_tick](const RunnerTickInfo& info) { per_tick.push_back(info.delta); });
  runner.Start(Seconds(5));
  sim.RunUntil(Seconds(5));

  ASSERT_EQ(per_tick.size(), 5u);
  EXPECT_EQ(per_tick[0].applied, 2u);  // first tick: both nices applied
  for (std::size_t i = 1; i < per_tick.size(); ++i) {
    EXPECT_EQ(per_tick[i].applied, 0u) << "tick " << i;
    EXPECT_EQ(per_tick[i].skipped, 2u) << "tick " << i;
  }
  EXPECT_EQ(os.nice_calls, 2);  // never touched again after the first tick
  EXPECT_EQ(runner.delta_totals().applied, 2u);
  EXPECT_EQ(runner.delta_totals().skipped, 8u);
}

}  // namespace
}  // namespace lachesis::core
