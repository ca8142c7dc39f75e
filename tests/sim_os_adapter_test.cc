// Tests of SimOsAdapter's name-indexed cgroups: writes reach every machine
// holding a group name, desired values apply to cgroups created later, and
// the restart snapshot lists each group once and places every thread.
#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/os_adapter.h"
#include "sim/machine.h"
#include "sim/simulator.h"
#include "tests/sim_test_bodies.h"

namespace lachesis::core {
namespace {

using sim::testing::BusyLoop;

ThreadHandle Spawn(sim::Machine& machine, const std::string& name) {
  ThreadHandle handle;
  handle.machine = &machine;
  handle.sim_tid = machine.CreateThread(name, std::make_unique<BusyLoop>(),
                                        machine.root_cgroup());
  return handle;
}

std::uint64_t SharesOf(const ThreadHandle& t) {
  return t.machine->GetShares(t.machine->GetCgroup(t.sim_tid));
}

double CpuShare(const ThreadHandle& t, SimDuration over) {
  return static_cast<double>(t.machine->GetStats(t.sim_tid).cpu_time) /
         static_cast<double>(over);
}

TEST(SimOsAdapterTest, EveryMachineHoldingAGroupNameReceivesWrites) {
  sim::Simulator sim;
  sim::Machine m1(sim, 1, {}, "m1");
  sim::Machine m2(sim, 1, {}, "m2");
  const ThreadHandle t1 = Spawn(m1, "t1");
  const ThreadHandle t2 = Spawn(m2, "t2");
  const ThreadHandle other = Spawn(m1, "other");
  SimOsAdapter os;
  os.MoveToGroup(t1, "shared");
  os.MoveToGroup(t2, "shared");
  os.MoveToGroup(other, "other");

  os.SetGroupShares("shared", 4096);
  EXPECT_EQ(SharesOf(t1), 4096u);
  EXPECT_EQ(SharesOf(t2), 4096u);
  EXPECT_EQ(SharesOf(other), sim::kNice0Weight);

  // 20 ms per 100 ms caps each lone busy thread at a fifth of its core.
  os.SetGroupQuota("shared", Millis(20), Millis(100));
  sim.RunUntil(Seconds(2));
  EXPECT_NEAR(CpuShare(t1, Seconds(2)), 0.20, 0.03);
  EXPECT_NEAR(CpuShare(t2, Seconds(2)), 0.20, 0.03);
}

TEST(SimOsAdapterTest, DesiredValuesApplyWhenTheGroupIsCreated) {
  sim::Simulator sim;
  sim::Machine machine(sim, 1);
  const ThreadHandle late = Spawn(machine, "late");
  SimOsAdapter os;
  os.SetGroupShares("late", 3000);
  os.SetGroupQuota("late", Millis(10), Millis(100));
  os.MoveToGroup(late, "late");
  EXPECT_EQ(SharesOf(late), 3000u);
  EXPECT_EQ(machine.CgroupName(machine.GetCgroup(late.sim_tid)), "late");
  sim.RunUntil(Seconds(1));
  EXPECT_NEAR(CpuShare(late, Seconds(1)), 0.10, 0.03);
}

TEST(SimOsAdapterTest, SnapshotListsEachGroupOnceAndPlacesEveryThread) {
  sim::Simulator sim;
  auto first = std::make_unique<sim::Machine>(sim, 2, sim::CfsParams{}, "first");
  auto second = std::make_unique<sim::Machine>(sim, 2, sim::CfsParams{}, "second");
  // Groups are listed machine by machine in pointer order.
  sim::Machine* low = std::min(first.get(), second.get());
  sim::Machine* high = std::max(first.get(), second.get());
  const ThreadHandle a_high = Spawn(*high, "a-high");
  const ThreadHandle c_high = Spawn(*high, "c-high");
  const ThreadHandle a_low = Spawn(*low, "a-low");
  const ThreadHandle b_low = Spawn(*low, "b-low");
  const ThreadHandle loose = Spawn(*low, "loose");
  SimOsAdapter os;
  os.SetGroupShares("unused", 2048);  // never created: not in the snapshot
  os.MoveToGroup(c_high, "c");
  os.MoveToGroup(a_high, "a");
  os.MoveToGroup(b_low, "b");
  os.MoveToGroup(a_low, "a");
  os.SetGroupShares("a", 500);
  os.SetGroupShares("c", 700);
  os.SetGroupQuota("b", Millis(50), Millis(100));

  OsStateSnapshot snapshot;
  ASSERT_TRUE(os.SnapshotState({a_high, c_high, a_low, b_low, loose}, snapshot));
  EXPECT_EQ(snapshot.groups, (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(snapshot.group_shares.size(), 3u);
  EXPECT_EQ(snapshot.group_shares.at("a"), 500u);
  EXPECT_EQ(snapshot.group_shares.at("b"), sim::kNice0Weight);
  EXPECT_EQ(snapshot.group_shares.at("c"), 700u);
  ASSERT_EQ(snapshot.group_quota.size(), 1u);
  EXPECT_EQ(snapshot.group_quota.at("b"), std::make_pair(Millis(50), Millis(100)));

  ASSERT_EQ(snapshot.threads.size(), 5u);
  const std::vector<std::optional<std::string>> expected = {"a", "c", "a", "b",
                                                            std::nullopt};
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(snapshot.threads[i].group, expected[i]) << "thread " << i;
  }

  // A name only on the higher machine is listed after the lower machine's.
  const ThreadHandle z_high = Spawn(*high, "z-high");
  const ThreadHandle y_low = Spawn(*low, "y-low");
  os.MoveToGroup(z_high, "0-first-by-name");
  os.MoveToGroup(y_low, "y");
  ASSERT_TRUE(os.SnapshotState({}, snapshot));
  EXPECT_EQ(snapshot.groups,
            (std::vector<std::string>{"a", "b", "y", "0-first-by-name", "c"}));
}

}  // namespace
}  // namespace lachesis::core
