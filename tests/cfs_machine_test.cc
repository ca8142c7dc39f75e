#include "sim/machine.h"

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/simulator.h"
#include "sim/weights.h"
#include "tests/sim_test_bodies.h"

namespace lachesis::sim {
namespace {

using testing::BusyLoop;
using testing::Consumer;
using testing::FiniteWork;
using testing::IntQueue;
using testing::Producer;

CfsParams NoOverheadParams() {
  CfsParams p;
  p.context_switch_cost = 0;
  p.wakeup_check_cost = 0;
  return p;
}

double ShareOf(const Machine& m, ThreadId tid, SimDuration window) {
  return static_cast<double>(m.GetStats(tid).cpu_time) /
         static_cast<double>(window);
}

TEST(MachineTest, SingleBusyThreadUsesWholeCore) {
  Simulator sim;
  Machine m(sim, 1, NoOverheadParams());
  const ThreadId t =
      m.CreateThread("busy", std::make_unique<BusyLoop>(), m.root_cgroup());
  sim.RunUntil(Seconds(1));
  EXPECT_NEAR(ShareOf(m, t, Seconds(1)), 1.0, 0.001);
  EXPECT_EQ(m.GetState(t), ThreadState::kRunning);
}

TEST(MachineTest, TwoEqualThreadsShareOneCoreFairly) {
  Simulator sim;
  Machine m(sim, 1, NoOverheadParams());
  const ThreadId a =
      m.CreateThread("a", std::make_unique<BusyLoop>(), m.root_cgroup());
  const ThreadId b =
      m.CreateThread("b", std::make_unique<BusyLoop>(), m.root_cgroup());
  sim.RunUntil(Seconds(2));
  EXPECT_NEAR(ShareOf(m, a, Seconds(2)), 0.5, 0.02);
  EXPECT_NEAR(ShareOf(m, b, Seconds(2)), 0.5, 0.02);
}

TEST(MachineTest, NiceValuesGiveWeightProportionalShares) {
  Simulator sim;
  Machine m(sim, 1, NoOverheadParams());
  const ThreadId fast =
      m.CreateThread("fast", std::make_unique<BusyLoop>(), m.root_cgroup(), -5);
  const ThreadId slow =
      m.CreateThread("slow", std::make_unique<BusyLoop>(), m.root_cgroup(), 5);
  sim.RunUntil(Seconds(2));
  const double ratio = static_cast<double>(m.GetStats(fast).cpu_time) /
                       static_cast<double>(m.GetStats(slow).cpu_time);
  const double expected = static_cast<double>(NiceToWeight(-5)) /
                          static_cast<double>(NiceToWeight(5));
  EXPECT_NEAR(ratio, expected, expected * 0.05);
}

TEST(MachineTest, EachNiceStepIsRoughly25Percent) {
  Simulator sim;
  Machine m(sim, 1, NoOverheadParams());
  const ThreadId n0 =
      m.CreateThread("n0", std::make_unique<BusyLoop>(), m.root_cgroup(), 0);
  const ThreadId n1 =
      m.CreateThread("n1", std::make_unique<BusyLoop>(), m.root_cgroup(), 1);
  sim.RunUntil(Seconds(2));
  const double ratio = static_cast<double>(m.GetStats(n0).cpu_time) /
                       static_cast<double>(m.GetStats(n1).cpu_time);
  EXPECT_NEAR(ratio, 1.25, 0.06);
}

TEST(MachineTest, TwoCoresRunTwoThreadsAtFullSpeed) {
  Simulator sim;
  Machine m(sim, 2, NoOverheadParams());
  const ThreadId a =
      m.CreateThread("a", std::make_unique<BusyLoop>(), m.root_cgroup());
  const ThreadId b =
      m.CreateThread("b", std::make_unique<BusyLoop>(), m.root_cgroup());
  sim.RunUntil(Seconds(1));
  EXPECT_NEAR(ShareOf(m, a, Seconds(1)), 1.0, 0.01);
  EXPECT_NEAR(ShareOf(m, b, Seconds(1)), 1.0, 0.01);
  EXPECT_EQ(m.total_busy_time(), 2 * Seconds(1));
}

TEST(MachineTest, CgroupSharesSplitCpuBetweenGroups) {
  Simulator sim;
  Machine m(sim, 1, NoOverheadParams());
  const CgroupId heavy = m.CreateCgroup("heavy", m.root_cgroup(), 2048);
  const CgroupId light = m.CreateCgroup("light", m.root_cgroup(), 1024);
  const ThreadId a = m.CreateThread("a", std::make_unique<BusyLoop>(), heavy);
  const ThreadId b = m.CreateThread("b", std::make_unique<BusyLoop>(), light);
  sim.RunUntil(Seconds(3));
  const double ratio = static_cast<double>(m.GetStats(a).cpu_time) /
                       static_cast<double>(m.GetStats(b).cpu_time);
  EXPECT_NEAR(ratio, 2.0, 0.1);
}

TEST(MachineTest, GroupShareIndependentOfThreadCount) {
  // One group with 3 threads vs one group with 1 thread, equal shares:
  // the groups get 50% each, so the lone thread gets 3x each packed thread.
  Simulator sim;
  Machine m(sim, 1, NoOverheadParams());
  const CgroupId g1 = m.CreateCgroup("g1", m.root_cgroup(), 1024);
  const CgroupId g2 = m.CreateCgroup("g2", m.root_cgroup(), 1024);
  ThreadId packed[3];
  for (int i = 0; i < 3; ++i) {
    packed[i] = m.CreateThread("p" + std::to_string(i),
                               std::make_unique<BusyLoop>(), g1);
  }
  const ThreadId lone = m.CreateThread("lone", std::make_unique<BusyLoop>(), g2);
  sim.RunUntil(Seconds(4));
  SimDuration packed_total = 0;
  for (const ThreadId t : packed) packed_total += m.GetStats(t).cpu_time;
  EXPECT_NEAR(static_cast<double>(packed_total) /
                  static_cast<double>(m.GetStats(lone).cpu_time),
              1.0, 0.07);
}

TEST(MachineTest, NiceInsideCgroupDoesNotAffectOtherGroup) {
  Simulator sim;
  Machine m(sim, 1, NoOverheadParams());
  const CgroupId g1 = m.CreateCgroup("g1", m.root_cgroup(), 1024);
  const CgroupId g2 = m.CreateCgroup("g2", m.root_cgroup(), 1024);
  // Very aggressive nice inside g1 must not steal time from g2.
  const ThreadId boosted =
      m.CreateThread("boost", std::make_unique<BusyLoop>(), g1, -20);
  const ThreadId normal1 =
      m.CreateThread("norm1", std::make_unique<BusyLoop>(), g1, 0);
  const ThreadId other = m.CreateThread("other", std::make_unique<BusyLoop>(), g2);
  sim.RunUntil(Seconds(4));
  const double g1_total = static_cast<double>(m.GetStats(boosted).cpu_time +
                                              m.GetStats(normal1).cpu_time);
  const double g2_total = static_cast<double>(m.GetStats(other).cpu_time);
  EXPECT_NEAR(g1_total / g2_total, 1.0, 0.07);
  // Inside g1, the boosted thread dominates.
  EXPECT_GT(m.GetStats(boosted).cpu_time, 10 * m.GetStats(normal1).cpu_time);
}

TEST(MachineTest, SetSharesTakesEffectAtRuntime) {
  Simulator sim;
  Machine m(sim, 1, NoOverheadParams());
  const CgroupId g1 = m.CreateCgroup("g1", m.root_cgroup(), 1024);
  const CgroupId g2 = m.CreateCgroup("g2", m.root_cgroup(), 1024);
  const ThreadId a = m.CreateThread("a", std::make_unique<BusyLoop>(), g1);
  const ThreadId b = m.CreateThread("b", std::make_unique<BusyLoop>(), g2);
  sim.RunUntil(Seconds(1));
  const SimDuration a_before = m.GetStats(a).cpu_time;
  const SimDuration b_before = m.GetStats(b).cpu_time;
  m.SetShares(g1, 4096);
  sim.RunUntil(Seconds(5));
  const double a_after = static_cast<double>(m.GetStats(a).cpu_time - a_before);
  const double b_after = static_cast<double>(m.GetStats(b).cpu_time - b_before);
  EXPECT_NEAR(a_after / b_after, 4.0, 0.3);
}

TEST(MachineTest, SetNiceTakesEffectAtRuntime) {
  Simulator sim;
  Machine m(sim, 1, NoOverheadParams());
  const ThreadId a =
      m.CreateThread("a", std::make_unique<BusyLoop>(), m.root_cgroup());
  const ThreadId b =
      m.CreateThread("b", std::make_unique<BusyLoop>(), m.root_cgroup());
  sim.RunUntil(Seconds(1));
  const SimDuration a_before = m.GetStats(a).cpu_time;
  const SimDuration b_before = m.GetStats(b).cpu_time;
  m.SetNice(a, -10);
  EXPECT_EQ(m.GetNice(a), -10);
  sim.RunUntil(Seconds(3));
  const double a_delta = static_cast<double>(m.GetStats(a).cpu_time - a_before);
  const double b_delta = static_cast<double>(m.GetStats(b).cpu_time - b_before);
  const double expected = static_cast<double>(NiceToWeight(-10)) /
                          static_cast<double>(NiceToWeight(0));
  EXPECT_NEAR(a_delta / b_delta, expected, expected * 0.1);
}

TEST(MachineTest, MoveToCgroupChangesAccounting) {
  Simulator sim;
  Machine m(sim, 1, NoOverheadParams());
  const CgroupId big = m.CreateCgroup("big", m.root_cgroup(), 8192);
  const CgroupId small = m.CreateCgroup("small", m.root_cgroup(), 1024);
  const ThreadId a = m.CreateThread("a", std::make_unique<BusyLoop>(), small);
  const ThreadId b = m.CreateThread("b", std::make_unique<BusyLoop>(), small);
  sim.RunUntil(Seconds(1));
  m.MoveToCgroup(a, big);
  EXPECT_EQ(m.GetCgroup(a), big);
  const SimDuration a_before = m.GetStats(a).cpu_time;
  const SimDuration b_before = m.GetStats(b).cpu_time;
  sim.RunUntil(Seconds(5));
  const double a_delta = static_cast<double>(m.GetStats(a).cpu_time - a_before);
  const double b_delta = static_cast<double>(m.GetStats(b).cpu_time - b_before);
  EXPECT_NEAR(a_delta / b_delta, 8.0, 0.6);
}

TEST(MachineTest, SleepingThreadConsumesNothing) {
  Simulator sim;
  CfsParams params = NoOverheadParams();
  Machine m(sim, 1, params);
  const ThreadId busy =
      m.CreateThread("busy", std::make_unique<BusyLoop>(), m.root_cgroup());
  const ThreadId periodic = m.CreateThread(
      "periodic",
      std::make_unique<testing::PeriodicTask>(Micros(10), Millis(100)),
      m.root_cgroup());
  sim.RunUntil(Seconds(1));
  // ~10 bursts of 10us each.
  EXPECT_LT(m.GetStats(periodic).cpu_time, Millis(1));
  EXPECT_GT(ShareOf(m, busy, Seconds(1)), 0.99);
}

TEST(MachineTest, FiniteWorkExitsAndFreesCore) {
  Simulator sim;
  Machine m(sim, 1, NoOverheadParams());
  const ThreadId finite = m.CreateThread(
      "finite", std::make_unique<FiniteWork>(10, Millis(1)), m.root_cgroup());
  const ThreadId busy =
      m.CreateThread("busy", std::make_unique<BusyLoop>(), m.root_cgroup());
  sim.RunUntil(Seconds(1));
  EXPECT_EQ(m.GetState(finite), ThreadState::kExited);
  EXPECT_EQ(m.GetStats(finite).cpu_time, Millis(10));
  EXPECT_EQ(m.GetStats(busy).cpu_time, Seconds(1) - Millis(10));
}

TEST(MachineTest, ProducerConsumerDeliversAllItems) {
  Simulator sim;
  Machine m(sim, 2, NoOverheadParams());
  IntQueue q(m);
  auto consumer_body = std::make_unique<Consumer>(q, Micros(50));
  Consumer* consumer = consumer_body.get();
  m.CreateThread("consumer", std::move(consumer_body), m.root_cgroup());
  m.CreateThread("producer",
                 std::make_unique<Producer>(q, 1000, Micros(20), 0),
                 m.root_cgroup());
  sim.RunUntil(Seconds(1));
  EXPECT_EQ(consumer->consumed(), 1000);
  EXPECT_TRUE(q.items.empty());
}

TEST(MachineTest, ConsumerBlocksWhenQueueEmpty) {
  Simulator sim;
  Machine m(sim, 1, NoOverheadParams());
  IntQueue q(m);
  auto consumer_body = std::make_unique<Consumer>(q, Micros(10));
  const ThreadId tid =
      m.CreateThread("consumer", std::move(consumer_body), m.root_cgroup());
  sim.RunUntil(Millis(10));
  EXPECT_EQ(m.GetState(tid), ThreadState::kBlocked);
  EXPECT_LT(m.GetStats(tid).cpu_time, Micros(10));
}

TEST(MachineTest, ContextSwitchCostIsCharged) {
  Simulator sim;
  CfsParams params;
  params.context_switch_cost = Micros(100);
  params.wakeup_check_cost = 0;
  Machine m(sim, 1, params);
  const ThreadId a =
      m.CreateThread("a", std::make_unique<BusyLoop>(Micros(10)), m.root_cgroup());
  const ThreadId b =
      m.CreateThread("b", std::make_unique<BusyLoop>(Micros(10)), m.root_cgroup());
  sim.RunUntil(Seconds(1));
  // Switch cost is inside cpu_time, so both still split the core evenly but
  // each pays switches.
  EXPECT_GT(m.GetStats(a).nr_switches, 10u);
  EXPECT_GT(m.GetStats(b).nr_switches, 10u);
  EXPECT_NEAR(ShareOf(m, a, Seconds(1)), 0.5, 0.02);
}

TEST(MachineTest, WakeupPreemptionFavorsHighWeightWakee) {
  // A high-priority periodic task competing with a nice-19 busy loop should
  // run promptly on wakeup: its bursts complete at nearly the nominal rate.
  Simulator sim;
  CfsParams params = NoOverheadParams();
  Machine m(sim, 1, params);
  m.CreateThread("bg", std::make_unique<BusyLoop>(Millis(2)), m.root_cgroup(), 19);
  const ThreadId hi = m.CreateThread(
      "hi", std::make_unique<testing::PeriodicTask>(Millis(1), Millis(9)),
      m.root_cgroup(), -10);
  sim.RunUntil(Seconds(1));
  // Period is ~10ms; with prompt wakeups the task completes ~100 bursts and
  // accumulates ~100ms CPU. Without preemption it would be far less.
  EXPECT_GT(m.GetStats(hi).cpu_time, Millis(80));
}

TEST(MachineTest, LowWeightWakeeDoesNotPreemptImmediately) {
  Simulator sim;
  CfsParams params = NoOverheadParams();
  Machine m(sim, 1, params);
  const ThreadId fg =
      m.CreateThread("fg", std::make_unique<BusyLoop>(Millis(2)), m.root_cgroup(), -10);
  const ThreadId low = m.CreateThread(
      "low", std::make_unique<testing::PeriodicTask>(Millis(1), Millis(9)),
      m.root_cgroup(), 19);
  sim.RunUntil(Seconds(1));
  // The nice-19 periodic task gets starved well below its nominal 100ms.
  EXPECT_LT(m.GetStats(low).cpu_time, Millis(60));
  EXPECT_GT(m.GetStats(fg).cpu_time, Millis(900));
}

TEST(MachineTest, TotalBusyNeverExceedsCapacity) {
  Simulator sim;
  Machine m(sim, 3, NoOverheadParams());
  for (int i = 0; i < 7; ++i) {
    m.CreateThread("t" + std::to_string(i), std::make_unique<BusyLoop>(),
                   m.root_cgroup(), (i % 5) - 2);
  }
  sim.RunUntil(Seconds(1));
  EXPECT_LE(m.total_busy_time(), 3 * Seconds(1));
  EXPECT_GT(m.total_busy_time(), 3 * Seconds(1) - Millis(1));
}

TEST(MachineTest, NestedCgroupHierarchy) {
  // root -> {top (2048) -> {inner_a, inner_b}, other (1024)}
  Simulator sim;
  Machine m(sim, 1, NoOverheadParams());
  const CgroupId top = m.CreateCgroup("top", m.root_cgroup(), 2048);
  const CgroupId inner_a = m.CreateCgroup("a", top, 1024);
  const CgroupId inner_b = m.CreateCgroup("b", top, 3072);
  const CgroupId other = m.CreateCgroup("other", m.root_cgroup(), 1024);
  const ThreadId ta = m.CreateThread("ta", std::make_unique<BusyLoop>(), inner_a);
  const ThreadId tb = m.CreateThread("tb", std::make_unique<BusyLoop>(), inner_b);
  const ThreadId to = m.CreateThread("to", std::make_unique<BusyLoop>(), other);
  sim.RunUntil(Seconds(6));
  const double a_time = static_cast<double>(m.GetStats(ta).cpu_time);
  const double b_time = static_cast<double>(m.GetStats(tb).cpu_time);
  const double o_time = static_cast<double>(m.GetStats(to).cpu_time);
  // top gets 2/3 of the core, split 1:3 inside; other gets 1/3.
  EXPECT_NEAR((a_time + b_time) / o_time, 2.0, 0.15);
  EXPECT_NEAR(b_time / a_time, 3.0, 0.25);
}

// Regression: re-nicing a thread WHILE IT IS QUEUED must adjust the
// parent's total_queued_weight by the signed difference. The seed updated
// it as `total += new - old` on unsigned values; a weight decrease
// (raising nice) wrapped the intermediate, and only two's-complement
// addition hid it. The fixed subtract-then-add form asserts instead of
// wrapping, and the queued-weight sum must stay exact.
TEST(MachineTest, ReniceQueuedThreadKeepsQueuedWeightConsistent) {
  Simulator sim;
  Machine m(sim, 1, NoOverheadParams());
  // One runner occupies the core, so the others stay queued.
  m.CreateThread("runner", std::make_unique<BusyLoop>(), m.root_cgroup());
  const ThreadId queued_a =
      m.CreateThread("qa", std::make_unique<BusyLoop>(), m.root_cgroup());
  const ThreadId queued_b =
      m.CreateThread("qb", std::make_unique<BusyLoop>(), m.root_cgroup());
  sim.RunUntil(Micros(100));
  ASSERT_EQ(m.GetState(queued_a), ThreadState::kRunnable);

  const std::uint64_t before = m.QueuedWeight(m.root_cgroup());
  // Raise nice (lower weight) on a queued thread: the wraparound case.
  m.SetNice(queued_a, 10);
  const std::uint64_t after_up = m.QueuedWeight(m.root_cgroup());
  // Then lower nice (raise weight) past the original.
  m.SetNice(queued_a, -10);
  const std::uint64_t after_down = m.QueuedWeight(m.root_cgroup());

  const std::uint64_t w0 = NiceToWeight(0);
  EXPECT_EQ(after_up, before - w0 + NiceToWeight(10));
  EXPECT_EQ(after_down, before - w0 + NiceToWeight(-10));

  // The timeslice derives from the queued weight; it must reflect the new
  // weights and the machine must keep scheduling sanely afterwards.
  EXPECT_GT(m.TimesliceFor(queued_a), 0);
  sim.RunUntil(Seconds(1));
  EXPECT_GT(m.GetStats(queued_a).cpu_time, 0);
  EXPECT_GT(m.GetStats(queued_b).cpu_time, 0);
}

// Same wraparound class for cgroups: shrinking a queued group's shares.
TEST(MachineTest, ShrinkQueuedGroupSharesKeepsQueuedWeightConsistent) {
  Simulator sim;
  Machine m(sim, 1, NoOverheadParams());
  const CgroupId g = m.CreateCgroup("g", m.root_cgroup(), 4096);
  m.CreateThread("runner", std::make_unique<BusyLoop>(), m.root_cgroup());
  m.CreateThread("grouped", std::make_unique<BusyLoop>(), g);
  sim.RunUntil(Micros(100));
  const std::uint64_t before = m.QueuedWeight(m.root_cgroup());
  m.SetShares(g, 64);  // large decrease: wrapped in the seed formulation
  EXPECT_EQ(m.QueuedWeight(m.root_cgroup()), before - 4096 + 64);
  sim.RunUntil(Seconds(1));
  // Whichever thread is on the core now, the group's queued weight is
  // either empty or exactly one nice-0 thread -- never a wrapped value.
  const std::uint64_t qw = m.QueuedWeight(g);
  EXPECT_TRUE(qw == 0 || qw == kNice0Weight);
}

// Both entity tables grow past their first 256-slot chunk while earlier
// threads sit queued. The runqueues point into the tables, so a table whose
// elements moved as it grew would leave them pointing at freed nodes.
TEST(MachineTest, EntityTablesGrowPastAChunkWhileThreadsAreQueued) {
  Simulator sim;
  Machine m(sim, 4, NoOverheadParams());
  constexpr int kEntities = 600;
  constexpr SimDuration kChunk = Micros(100);
  for (int i = 0; i < kEntities; ++i) {
    // Batches of 100, 10 ms apart: each batch joins a machine whose earlier
    // threads are queued and running.
    if (i % 100 == 0) sim.RunUntil(Millis(i / 10));
    const CgroupId group =
        m.CreateCgroup("g" + std::to_string(i), m.root_cgroup());
    ASSERT_EQ(group, CgroupId(i + 1)) << "cgroup ids follow creation order";
    const ThreadId tid = m.CreateThread(
        "t" + std::to_string(i), std::make_unique<BusyLoop>(kChunk), group);
    ASSERT_EQ(tid, ThreadId(i)) << "thread ids follow creation order";
  }
  sim.RunUntil(Seconds(1));
  EXPECT_EQ(m.cgroup_count(), kEntities + 1u);
  EXPECT_EQ(m.thread_count(), static_cast<std::size_t>(kEntities));
  SimDuration cpu = 0;
  for (int i = 0; i < kEntities; ++i) {
    const CgroupId group(i + 1);
    EXPECT_EQ(m.CgroupName(group), "g" + std::to_string(i));
    EXPECT_EQ(m.GetCgroup(ThreadId(i)), group);
    cpu += m.GetStats(ThreadId(i)).cpu_time;
  }
  // Four cores stay busy for the whole second. At most one compute chunk
  // per core is in flight: charged to its core, not yet to its thread.
  const SimDuration busy = m.total_busy_time();
  EXPECT_EQ(busy, 4 * Seconds(1));
  EXPECT_LE(cpu, busy);
  EXPECT_LE(busy - cpu, 4 * kChunk);
}

// Each round computes `burst`, waits once on `channel`, then records `id`
// in `woken`; exits after `rounds` rounds.
class WaitRounds final : public ThreadBody {
 public:
  WaitRounds(WaitChannel& channel, SimDuration burst, int id, int rounds,
             std::vector<int>& woken)
      : channel_(&channel),
        burst_(burst),
        id_(id),
        rounds_(rounds),
        woken_(&woken) {}
  Action Next(Machine&) override {
    switch (phase_) {
      case Phase::kCompute:
        if (rounds_-- == 0) return Action::Exit();
        phase_ = Phase::kWait;
        return Action::Compute(burst_);
      case Phase::kWait:
        phase_ = Phase::kRecord;
        return Action::Wait(*channel_);
      case Phase::kRecord:
        woken_->push_back(id_);
        phase_ = Phase::kCompute;
        return Action::Compute(0);  // free transition
    }
    return Action::Exit();
  }

 private:
  enum class Phase { kCompute, kWait, kRecord };
  WaitChannel* channel_;
  SimDuration burst_;
  int id_;
  int rounds_;
  std::vector<int>* woken_;
  Phase phase_ = Phase::kCompute;
};

// Three threads on four cores whose bursts (30, 10 and 20 us) make them
// wait in the order 1, 2, 0 rather than their creation order; four rounds
// are 12 waits, so the wait list's ring wraps.
struct ThreeWaiters {
  static constexpr int kRounds = 4;
  Simulator sim;
  Machine m{sim, 4, NoOverheadParams()};
  WaitChannel channel{m};
  std::vector<int> woken;
  std::vector<ThreadId> tids;

  ThreeWaiters() {
    const SimDuration bursts[] = {Micros(30), Micros(10), Micros(20)};
    for (int i = 0; i < 3; ++i) {
      tids.push_back(m.CreateThread(
          "w" + std::to_string(i),
          std::make_unique<WaitRounds>(channel, bursts[i], i, kRounds, woken),
          m.root_cgroup()));
    }
    sim.RunUntil(Millis(1));
  }
};

TEST(MachineTest, NotifyOneWakesWaitersInWaitOrder) {
  ThreeWaiters rig;
  for (const ThreadId tid : rig.tids) {
    EXPECT_EQ(rig.m.GetState(tid), ThreadState::kBlocked);
  }
  for (int n = 1; n <= 3 * ThreeWaiters::kRounds; ++n) {
    rig.channel.NotifyOne();
    rig.sim.RunUntil(Millis(1 + n));
    ASSERT_EQ(rig.woken.size(), static_cast<std::size_t>(n));
  }
  // A woken thread re-waits behind the two still waiting: FIFO rotation.
  EXPECT_EQ(rig.woken,
            (std::vector<int>{1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0}));
  rig.channel.NotifyOne();  // nobody waits: no effect
  rig.sim.RunUntil(Millis(20));
  for (const ThreadId tid : rig.tids) {
    EXPECT_EQ(rig.m.GetState(tid), ThreadState::kExited);
  }
}

TEST(MachineTest, NotifyAllWakesEveryWaiterInWaitOrder) {
  ThreeWaiters rig;
  for (int n = 1; n <= ThreeWaiters::kRounds; ++n) {
    rig.channel.NotifyAll();
    rig.sim.RunUntil(Millis(1 + n));
    ASSERT_EQ(rig.woken.size(), static_cast<std::size_t>(3 * n));
  }
  // All three wake together and re-wait in burst order each round.
  EXPECT_EQ(rig.woken,
            (std::vector<int>{1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0}));
  for (const ThreadId tid : rig.tids) {
    EXPECT_EQ(rig.m.GetState(tid), ThreadState::kExited);
  }
}

}  // namespace
}  // namespace lachesis::sim
