// Tests of the real-Linux control layer against fake roots: /proc scanning,
// cgroupfs v1/v2 writes, shares->weight conversion, and the OsAdapter glue.
#include <algorithm>
#include <cerrno>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/policies.h"
#include "core/runner.h"
#include "core/sim_executor.h"
#include "core/translators.h"
#include "osctl/cgroupfs.h"
#include "osctl/linux_os_adapter.h"
#include "osctl/nice.h"
#include "osctl/procfs.h"
#include "sim/simulator.h"
#include "tests/fake_driver.h"

namespace lachesis::osctl {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  TempDir() {
    path_ = fs::temp_directory_path() /
            ("lachesis_test_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter_++));
    fs::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  [[nodiscard]] const fs::path& path() const { return path_; }

 private:
  static inline int counter_ = 0;
  fs::path path_;
};

// Runs the rest of a test from `dir`, so a write to a relative path lands
// there instead of in the build tree.
class ScopedChdir {
 public:
  explicit ScopedChdir(const fs::path& dir) : previous_(fs::current_path()) {
    fs::current_path(dir);
  }
  ~ScopedChdir() {
    std::error_code ec;
    fs::current_path(previous_, ec);
  }
  ScopedChdir(const ScopedChdir&) = delete;
  ScopedChdir& operator=(const ScopedChdir&) = delete;

 private:
  fs::path previous_;
};

std::string ReadFile(const fs::path& path) {
  std::ifstream in(path);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  return content;
}

void WriteFakeThread(const fs::path& proc, long pid, long tid,
                     const std::string& comm) {
  const fs::path dir = proc / std::to_string(pid) / "task" / std::to_string(tid);
  fs::create_directories(dir);
  std::ofstream(dir / "comm") << comm << "\n";
}

TEST(ProcfsTest, ListsThreadsWithNames) {
  TempDir tmp;
  WriteFakeThread(tmp.path(), 100, 100, "java");
  WriteFakeThread(tmp.path(), 100, 101, "Thread-op-A");
  WriteFakeThread(tmp.path(), 100, 102, "Thread-op-B");
  const auto threads = ListThreads(100, tmp.path().string());
  EXPECT_EQ(threads.size(), 3u);
}

TEST(ProcfsTest, MissingProcessYieldsEmpty) {
  TempDir tmp;
  EXPECT_TRUE(ListThreads(4242, tmp.path().string()).empty());
}

// ResolveThreadByName: an exact comm wins, else the lowest tid containing
// the pattern, else -1; the order /proc lists the threads in never matters,
// so every case runs with the fixture's threads created in both orders.
TEST(ProcfsTest, FindsThreadsByNameSubstring) {
  struct Case {
    const char* name;
    std::vector<std::pair<long, std::string>> threads;  // tid, comm
    const char* pattern;
    long tid;
  };
  const std::vector<Case> cases = {
      {"substring", {{100, "java"}, {101, "executor-parse-1"},
                     {102, "executor-sink-2"}}, "parse", 101},
      {"exact", {{100, "java"}, {101, "executor-parse-1"}}, "java", 100},
      {"no match", {{100, "java"}, {101, "executor-parse-1"}}, "sink", -1},
      // The native runtime names a source thread after its ingress.
      {"exact over a lower substring tid", {{201, "src.in"}, {202, "in"}},
       "in", 202},
      {"lowest of two substrings",
       {{302, "exec-spout-2"}, {301, "exec-spout-1"}}, "exec-spout", 301},
  };
  for (const Case& c : cases) {
    for (const bool reversed : {false, true}) {
      SCOPED_TRACE(std::string(c.name) + (reversed ? ", reversed" : ""));
      TempDir tmp;
      auto threads = c.threads;
      if (reversed) std::reverse(threads.begin(), threads.end());
      for (const auto& [tid, comm] : threads) {
        WriteFakeThread(tmp.path(), 100, tid, comm);
      }
      const auto listed = ListThreads(100, tmp.path().string());
      ASSERT_EQ(listed.size(), threads.size());
      EXPECT_EQ(ResolveThreadByName(listed, c.pattern), c.tid);
    }
  }
}

// --- malformed / truncated procfs fixtures ----------------------------------

TEST(ProcfsTest, SkipsNonNumericTaskEntries) {
  TempDir tmp;
  WriteFakeThread(tmp.path(), 100, 101, "worker");
  // Kernel task dirs are always numeric; junk entries (editor droppings,
  // corrupted snapshots) must be skipped, not parsed as tid 0.
  const fs::path junk = tmp.path() / "100" / "task" / "not-a-tid";
  fs::create_directories(junk);
  std::ofstream(junk / "comm") << "junk\n";
  const auto threads = ListThreads(100, tmp.path().string());
  ASSERT_EQ(threads.size(), 1u);
  EXPECT_EQ(threads[0].tid, 101);
}

TEST(ProcfsTest, MissingCommFileYieldsEmptyName) {
  TempDir tmp;
  // A thread can exit between the directory scan and the comm read; the
  // entry must survive with an empty name rather than being dropped.
  fs::create_directories(tmp.path() / "100" / "task" / "102");
  const auto threads = ListThreads(100, tmp.path().string());
  ASSERT_EQ(threads.size(), 1u);
  EXPECT_EQ(threads[0].tid, 102);
  EXPECT_TRUE(threads[0].comm.empty());
  EXPECT_EQ(ResolveThreadByName(threads, "x"), -1);
}

TEST(ProcfsTest, TruncatedCommWithoutNewlineIsRead) {
  TempDir tmp;
  const fs::path dir = tmp.path() / "100" / "task" / "103";
  fs::create_directories(dir);
  std::ofstream(dir / "comm") << "no-newline";  // truncated write
  const auto threads = ListThreads(100, tmp.path().string());
  ASSERT_EQ(threads.size(), 1u);
  EXPECT_EQ(threads[0].comm, "no-newline");
}

TEST(ProcfsTest, TaskPathThatIsAFileYieldsEmpty) {
  TempDir tmp;
  fs::create_directories(tmp.path() / "100");
  std::ofstream(tmp.path() / "100" / "task") << "not a directory\n";
  EXPECT_TRUE(ListThreads(100, tmp.path().string()).empty());
}

TEST(SharesToWeightTest, KernelFormulaEndpoints) {
  EXPECT_EQ(SharesToWeight(2), 1u);
  EXPECT_EQ(SharesToWeight(262144), 10000u);
  // The linear kernel/systemd formula does NOT map the v1 default (1024)
  // to the v2 default (100); it lands near 40.
  EXPECT_EQ(SharesToWeight(1024), 1u + (1022u * 9999u) / 262142u);
  // Clamping.
  EXPECT_EQ(SharesToWeight(0), 1u);
  EXPECT_EQ(SharesToWeight(1 << 30), 10000u);
}

TEST(CgroupfsTest, V1WritesSharesAndTasks) {
  TempDir tmp;
  CgroupController controller(tmp.path(), CgroupVersion::kV1);
  EXPECT_TRUE(controller.SetShares("queryA", 2048));
  EXPECT_EQ(ReadFile(tmp.path() / "queryA" / "cpu.shares"), "2048\n");
  EXPECT_TRUE(controller.MoveThread("queryA", 1234));
  EXPECT_TRUE(controller.MoveThread("queryA", 1235));
  EXPECT_EQ(ReadFile(tmp.path() / "queryA" / "tasks"), "1234\n1235\n");
}

TEST(CgroupfsTest, V2WritesWeightAndThreads) {
  TempDir tmp;
  CgroupController controller(tmp.path(), CgroupVersion::kV2);
  EXPECT_TRUE(controller.SetShares("g", 1024));
  const std::string weight = ReadFile(tmp.path() / "g" / "cpu.weight");
  EXPECT_EQ(weight, std::to_string(SharesToWeight(1024)) + "\n");
  EXPECT_TRUE(controller.MoveThread("g", 77));
  EXPECT_EQ(ReadFile(tmp.path() / "g" / "cgroup.threads"), "77\n");
  // Threaded mode requested.
  EXPECT_EQ(ReadFile(tmp.path() / "g" / "cgroup.type"), "threaded\n");
}

TEST(CgroupfsTest, EnsureGroupIsIdempotent) {
  TempDir tmp;
  CgroupController controller(tmp.path(), CgroupVersion::kV1);
  EXPECT_TRUE(controller.EnsureGroup("g"));
  EXPECT_TRUE(controller.EnsureGroup("g"));
}

// --- unwritable / corrupted cgroupfs fixtures -------------------------------

TEST(CgroupfsTest, FailsWhenGroupPathIsAFile) {
  TempDir tmp;
  std::ofstream(tmp.path() / "blocked") << "i am a file\n";
  CgroupController controller(tmp.path(), CgroupVersion::kV1);
  EXPECT_FALSE(controller.EnsureGroup("blocked/nested"));
  EXPECT_FALSE(controller.SetShares("blocked/nested", 1024));
  EXPECT_FALSE(controller.MoveThread("blocked/nested", 1));
  EXPECT_FALSE(controller.SetQuota("blocked/nested", 10000, 100000));
}

TEST(CgroupfsTest, FailsWhenControlFileIsUnwritable) {
  TempDir tmp;
  CgroupController controller(tmp.path(), CgroupVersion::kV1);
  ASSERT_TRUE(controller.EnsureGroup("g"));
  // Simulate a kernel-owned file we lack permission for: a directory at
  // the control-file path makes every open-for-write fail the same way.
  fs::create_directories(tmp.path() / "g" / "cpu.shares");
  EXPECT_FALSE(controller.SetShares("g", 2048));
}

TEST(CgroupfsTest, QuotaWritesAndRemoval) {
  TempDir tmp;
  CgroupController v1(tmp.path(), CgroupVersion::kV1);
  EXPECT_TRUE(v1.SetQuota("q", 50000, 100000));
  EXPECT_EQ(ReadFile(tmp.path() / "q" / "cpu.cfs_quota_us"), "50000\n");
  EXPECT_EQ(ReadFile(tmp.path() / "q" / "cpu.cfs_period_us"), "100000\n");
  EXPECT_TRUE(v1.SetQuota("q", 0, 0));  // remove the limit
  EXPECT_EQ(ReadFile(tmp.path() / "q" / "cpu.cfs_quota_us"), "-1\n");

  TempDir tmp2;
  CgroupController v2(tmp2.path(), CgroupVersion::kV2);
  EXPECT_TRUE(v2.SetQuota("q", 50000, 100000));
  EXPECT_EQ(ReadFile(tmp2.path() / "q" / "cpu.max"), "50000 100000\n");
  EXPECT_TRUE(v2.SetQuota("q", -1, 0));
  EXPECT_EQ(ReadFile(tmp2.path() / "q" / "cpu.max"), "max\n");
}

TEST(CgroupfsTest, DetectVersion) {
  TempDir v2;
  std::ofstream(v2.path() / "cgroup.controllers") << "cpu\n";
  EXPECT_EQ(CgroupController::DetectVersion(v2.path()), CgroupVersion::kV2);
  TempDir v1;
  EXPECT_EQ(CgroupController::DetectVersion(v1.path()), CgroupVersion::kV1);
}

TEST(FakeNiceTest, RecordsValues) {
  FakeNiceController fake;
  EXPECT_TRUE(fake.SetNice(10, -5));
  EXPECT_EQ(fake.GetNice(10), -5);
  EXPECT_FALSE(fake.GetNice(11).has_value());
}

TEST(LinuxNiceTest, CanReadOwnNice) {
  LinuxNiceController real;
  const auto nice = real.GetNice(0);  // 0 = calling thread
  ASSERT_TRUE(nice.has_value());
  EXPECT_GE(*nice, -20);
  EXPECT_LE(*nice, 19);
}

TEST(LinuxOsAdapterTest, RoutesCallsToControllers) {
  TempDir tmp;
  FakeNiceController nice;
  CgroupController cgroups(tmp.path(), CgroupVersion::kV1);
  LinuxOsAdapter adapter(nice, cgroups);

  core::ThreadHandle handle;
  handle.os_tid = 555;
  adapter.SetNice(handle, -10);
  EXPECT_EQ(nice.GetNice(555), -10);

  adapter.SetGroupShares("q1", 4096);
  adapter.MoveToGroup(handle, "q1");
  EXPECT_EQ(ReadFile(tmp.path() / "q1" / "cpu.shares"), "4096\n");
  EXPECT_EQ(ReadFile(tmp.path() / "q1" / "tasks"), "555\n");
}

TEST(FakeDeadlineTest, RecordsTriplesAndReportsZeroForUnknown) {
  FakeDeadlineController fake;
  EXPECT_TRUE(fake.SetDeadline(10, 4000000, 10000000, 10000000));
  const auto dl = fake.GetDeadline(10);
  ASSERT_TRUE(dl.has_value());
  EXPECT_EQ(dl->runtime_ns, 4000000u);
  EXPECT_EQ(dl->period_ns, 10000000u);
  // Unknown threads are observable but hold no reservation.
  const auto none = fake.GetDeadline(11);
  ASSERT_TRUE(none.has_value());
  EXPECT_EQ(none->runtime_ns, 0u);
}

TEST(LinuxOsAdapterTest, RoutesDeadlineAndAffinityToControllers) {
  TempDir tmp;
  FakeNiceController nice;
  CgroupController cgroups(tmp.path(), CgroupVersion::kV1);
  FakeDeadlineController deadline;
  FakeAffinityController affinity;
  LinuxOsAdapter adapter(nice, cgroups, nullptr, &deadline, &affinity);
  adapter.SetCoreClasses({4, 5}, {0, 1});

  core::ThreadHandle handle;
  handle.os_tid = 555;
  adapter.SetDeadline(handle, Millis(4), Millis(10), Millis(10));
  const auto dl = deadline.GetDeadline(555);
  ASSERT_TRUE(dl.has_value());
  EXPECT_EQ(dl->runtime_ns, static_cast<std::uint64_t>(Millis(4)));
  EXPECT_EQ(dl->deadline_ns, static_cast<std::uint64_t>(Millis(10)));

  adapter.SetCpuAffinity(handle, core::CpuPreference::kPreferBig);
  EXPECT_EQ(affinity.affinities().at(555), (std::vector<int>{4, 5}));
  adapter.SetCpuAffinity(handle, core::CpuPreference::kPreferLittle);
  EXPECT_EQ(affinity.affinities().at(555), (std::vector<int>{0, 1}));
  // kNone restores the full mask (empty list for the controller).
  adapter.SetCpuAffinity(handle, core::CpuPreference::kNone);
  EXPECT_TRUE(affinity.affinities().at(555).empty());
}

TEST(LinuxOsAdapterTest, AffinityHintWithoutTopologyIsNoop) {
  TempDir tmp;
  FakeNiceController nice;
  CgroupController cgroups(tmp.path(), CgroupVersion::kV1);
  FakeAffinityController affinity;
  LinuxOsAdapter adapter(nice, cgroups, nullptr, nullptr, &affinity);
  // No SetCoreClasses: hints must not bind threads to an empty cpuset.
  core::ThreadHandle handle;
  handle.os_tid = 7;
  adapter.SetCpuAffinity(handle, core::CpuPreference::kPreferBig);
  EXPECT_TRUE(affinity.affinities().empty());
}

TEST(LinuxOsAdapterTest, DeadlineWithoutControllerIsNoop) {
  TempDir tmp;
  FakeNiceController nice;
  CgroupController cgroups(tmp.path(), CgroupVersion::kV1);
  LinuxOsAdapter adapter(nice, cgroups);  // no deadline/affinity controllers
  core::ThreadHandle handle;
  handle.os_tid = 7;
  EXPECT_NO_THROW(adapter.SetDeadline(handle, Millis(4), Millis(10), Millis(10)));
  EXPECT_NO_THROW(adapter.SetCpuAffinity(handle, core::CpuPreference::kPreferBig));
}

TEST(LinuxOsAdapterTest, SnapshotReportsDeadlineReservations) {
  TempDir tmp;
  FakeNiceController nice;
  CgroupController cgroups(tmp.path(), CgroupVersion::kV1);
  FakeDeadlineController deadline;
  LinuxOsAdapter adapter(nice, cgroups, nullptr, &deadline, nullptr);

  core::ThreadHandle reserved;
  reserved.os_tid = 100;
  core::ThreadHandle plain;
  plain.os_tid = 200;
  adapter.SetDeadline(reserved, Millis(2), Millis(8), Millis(8));

  core::OsStateSnapshot snapshot;
  ASSERT_TRUE(adapter.SnapshotState({reserved, plain}, snapshot));
  ASSERT_EQ(snapshot.threads.size(), 2u);
  ASSERT_TRUE(snapshot.threads[0].deadline.has_value());
  EXPECT_EQ(snapshot.threads[0].deadline->runtime, Millis(2));
  EXPECT_EQ(snapshot.threads[0].deadline->period, Millis(8));
  // The unreserved thread reports the zero triple, which seeds nothing.
  ASSERT_TRUE(snapshot.threads[1].deadline.has_value());
  EXPECT_TRUE(snapshot.threads[1].deadline->is_zero());
}

// A thread the driver never resolved: nothing can be set, so every thread
// op fails as vanished (the target backs off, no class breaker counts it)
// before it reaches a controller.
TEST(LinuxOsAdapterTest, UnresolvedThreadFailsEveryThreadOpAsVanished) {
  TempDir tmp;
  FakeNiceController nice;
  CgroupController cgroups(tmp.path(), CgroupVersion::kV1);
  FakeRtController rt;
  FakeDeadlineController deadline;
  FakeAffinityController affinity;
  LinuxOsAdapter adapter(nice, cgroups, &rt, &deadline, &affinity);
  adapter.SetCoreClasses({1}, {0});
  const core::ThreadHandle handle;  // os_tid = -1
  ASSERT_LT(handle.os_tid, 0);

  const std::vector<std::pair<const char*, std::function<void()>>> ops = {
      {"nice", [&] { adapter.SetNice(handle, -10); }},
      {"cgroup", [&] { adapter.MoveToGroup(handle, "g"); }},
      {"SCHED_FIFO", [&] { adapter.SetRtPriority(handle, 10); }},
      {"SCHED_DEADLINE",
       [&] { adapter.SetDeadline(handle, Millis(4), Millis(10), Millis(10)); }},
      {"affinity",
       [&] { adapter.SetCpuAffinity(handle, core::CpuPreference::kPreferBig); }},
  };
  for (const auto& [what, op] : ops) {
    try {
      op();
      ADD_FAILURE() << what << " on an unresolved thread succeeded";
    } catch (const core::OsOperationError& e) {
      EXPECT_EQ(e.severity(), core::ErrorSeverity::kVanished) << what;
      EXPECT_EQ(std::string(e.what()),
                std::string("thread not resolved: ") + what + " not set");
    }
  }
  EXPECT_TRUE(nice.nices().empty());
  EXPECT_TRUE(rt.priorities().empty());
  EXPECT_TRUE(deadline.deadlines().empty());
  EXPECT_TRUE(affinity.affinities().empty());
  EXPECT_TRUE(cgroups.ListGroups().empty());
}

// An empty cgroup_root means no hierarchy. The writes used to resolve
// against the working directory and count as applied.
TEST(LinuxOsAdapterTest, EmptyCgroupRootFailsEveryGroupWrite) {
  TempDir cwd;
  const ScopedChdir in(cwd.path());
  FakeNiceController nice;
  CgroupController cgroups("", CgroupVersion::kV1);
  LinuxOsAdapter adapter(nice, cgroups);
  core::ThreadHandle handle;
  handle.os_tid = 555;
  EXPECT_THROW(adapter.SetGroupShares("q1", 4096), core::OsOperationError);
  EXPECT_THROW(adapter.MoveToGroup(handle, "q1"), core::OsOperationError);
  try {
    adapter.SetGroupQuota("q1", Millis(5), Millis(10));
    ADD_FAILURE() << "quota write succeeded";
  } catch (const core::OsOperationError& e) {
    // Not "vanished": the failure must count toward the class breaker.
    EXPECT_NE(e.severity(), core::ErrorSeverity::kVanished);
  }
  EXPECT_TRUE(cgroups.ListGroups().empty());
  EXPECT_TRUE(fs::is_empty(cwd.path()));
}

// A caller without CAP_SYS_NICE.
class DeniedRtController final : public RtController {
 public:
  bool SetRtPriority(long, int) override {
    errno = EPERM;
    return false;
  }
};

// lachesisd's rt -> cpu.shares -> nice ladder with no RT privilege and no
// cgroup root: the shares rung fails too, so the binding ends on nice.
TEST(LinuxOsAdapterTest, EmptyCgroupRootLetsTheRtLadderReachNice) {
  TempDir cwd;
  const ScopedChdir in(cwd.path());
  FakeNiceController nice;
  DeniedRtController rt;
  CgroupController cgroups("", CgroupVersion::kV1);
  LinuxOsAdapter adapter(nice, cgroups, &rt);

  core::testing::FakeDriver driver;
  for (int i = 0; i < 3; ++i) {
    core::EntityInfo& e = driver.AddEntity(QueryId(0), {i});
    e.thread.os_tid = 100 + i;
    driver.SetValue(core::MetricId::kQueueSize, e.id, 10.0 * (i + 1));
  }
  driver.Provide(core::MetricId::kQueueSize);

  sim::Simulator sim;
  core::SimControlExecutor executor(sim);
  core::LachesisRunner runner(executor, adapter, /*seed=*/3);
  core::HealthConfig health;
  health.enabled = true;
  health.breaker_threshold = 3;
  health.jitter_frac = 0.0;
  runner.SetHealthConfig(health);
  core::PolicyBinding binding;
  binding.policy = std::make_unique<core::QueueSizePolicy>();
  binding.translator = std::make_unique<core::RtBoostTranslator>();
  binding.fallback_translators.push_back(
      std::make_unique<core::CpuSharesTranslator>());
  binding.fallback_translators.push_back(
      std::make_unique<core::NiceTranslator>());
  binding.period = Seconds(1);
  binding.drivers = {&driver};
  const std::size_t index = runner.AddQuery(std::move(binding));
  runner.Start(Seconds(60));
  sim.RunUntil(Seconds(60));

  EXPECT_EQ(runner.binding_level(index), 2u);
  EXPECT_EQ(nice.nices().size(), 3u);
  EXPECT_TRUE(fs::is_empty(cwd.path()));
}

}  // namespace
}  // namespace lachesis::osctl
