// Golden-trace determinism test for the discrete-event CFS core.
//
// Every scheduler transition (wake, dispatch, preempt, block, sleep, exit)
// of a fixed-seed scenario is serialized through the trace format
// (spe::WriteTrace) and FNV-1a hashed. The digests are asserted equal
// across repeated runs at each core count AND against hard-coded golden
// values captured from the reference implementation, so any change to the
// event queue, runqueues, or wakeup path that perturbs the deterministic
// schedule -- however subtly -- fails loudly here.
//
// A second digest pins the sleeper clamps and min_vruntime advances
// directly, not only through the picks they later change: at every
// transition it folds the bit patterns of the thread's vruntime and of
// every cgroup's min_vruntime and entity vruntime. A clamp of a group
// entity mostly shows in no later pick, and in no min_vruntime either.
#include <bit>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/sim_time.h"
#include "sim/machine.h"
#include "sim/simulator.h"
#include "spe/logical.h"
#include "spe/runtime.h"
#include "spe/source.h"
#include "spe/trace.h"

namespace lachesis {
namespace {

class DigestObserver final : public sim::SchedTraceObserver {
 public:
  explicit DigestObserver(const sim::Machine& machine) : machine_(&machine) {}

  void OnSchedTransition(SimTime time, ThreadId tid,
                         sim::SchedTransition kind) override {
    records_.push_back({time, static_cast<std::int64_t>(tid.value()), 0.0,
                        static_cast<std::uint32_t>(kind)});
    FoldClamp(tid.value());
    FoldClamp(static_cast<std::uint64_t>(kind));
    FoldClamp(std::bit_cast<std::uint64_t>(machine_->ThreadVruntime(tid)));
    for (std::size_t g = 0; g < machine_->cgroup_count(); ++g) {
      FoldClamp(std::bit_cast<std::uint64_t>(
          machine_->GroupMinVruntime(CgroupId(g))));
      FoldClamp(
          std::bit_cast<std::uint64_t>(machine_->GroupVruntime(CgroupId(g))));
    }
  }

  [[nodiscard]] std::size_t size() const { return records_.size(); }

  // Serializes through the on-disk trace format before hashing so a digest
  // mismatch can be debugged by dumping the same bytes to a file.
  [[nodiscard]] std::uint64_t Digest() const {
    std::ostringstream out;
    spe::WriteTrace(out, records_);
    const std::string bytes = out.str();
    std::uint64_t hash = kFnvOffset;
    for (const char c : bytes) {
      hash ^= static_cast<unsigned char>(c);
      hash *= kFnvPrime;
    }
    return hash;
  }

  [[nodiscard]] std::uint64_t ClampDigest() const { return clamp_hash_; }

 private:
  static constexpr std::uint64_t kFnvOffset = 14695981039346656037ULL;
  static constexpr std::uint64_t kFnvPrime = 1099511628211ULL;  // FNV-1a 64

  // Folds the word's eight bytes, least significant first.
  void FoldClamp(std::uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      clamp_hash_ ^= (word >> (8 * i)) & 0xff;
      clamp_hash_ *= kFnvPrime;
    }
  }

  const sim::Machine* machine_;
  std::vector<spe::TraceRecord> records_;
  std::uint64_t clamp_hash_ = kFnvOffset;
};

// The two digests of one run of a scenario.
struct Digests {
  std::uint64_t trace;
  std::uint64_t clamps;
};

spe::LogicalQuery Pipeline(const std::string& name, int transforms,
                           SimDuration cost) {
  spe::LogicalQuery q;
  q.name = name;
  int prev = q.Add(spe::MakeIngress("in", Micros(15)));
  for (int i = 0; i < transforms; ++i) {
    const int op = q.Add(spe::MakeTransform(
        "t" + std::to_string(i), cost,
        [] { return std::make_unique<spe::IdentityLogic>(); }));
    q.Connect(prev, op);
    prev = op;
  }
  const int egress = q.Add(spe::MakeEgress("out", Micros(15)));
  q.Connect(prev, egress);
  return q;
}

// Two queries of different depth and cost sharing one machine, fed by
// fixed-seed external sources: exercises the event queue's hot (scheduler)
// and cold (source closure) lanes, CFS runqueues, and wakeup preemption.
Digests SpeScenario(int cores) {
  sim::Simulator sim;
  sim::Machine machine(sim, cores);
  DigestObserver observer(machine);
  machine.set_trace_observer(&observer);
  spe::SpeInstance instance(spe::StormFlavor(),
                            std::vector<sim::Machine*>{&machine}, "golden");
  spe::DeployedQuery& q1 = instance.Deploy(Pipeline("q1", 3, Micros(60)), {});
  spe::DeployedQuery& q2 = instance.Deploy(Pipeline("q2", 2, Micros(90)), {});
  auto generator = [](Rng& rng, std::uint64_t seq) {
    spe::Tuple t;
    t.key = static_cast<std::int64_t>(seq % 16);
    t.value = rng.Uniform(0.0, 1.0);
    return t;
  };
  spe::ExternalSource s1(sim, q1.source_channels(), generator, 11);
  spe::ExternalSource s2(sim, q2.source_channels(), generator, 23);
  s1.Start(2500, Seconds(2));
  s2.Start(1700, Seconds(2));
  sim.RunUntil(Seconds(3));
  EXPECT_GT(observer.size(), 1000u);
  return {observer.Digest(), observer.ClampDigest()};
}

struct Spinner final : sim::ThreadBody {
  explicit Spinner(SimDuration burst) : burst(burst) {}
  sim::Action Next(sim::Machine& machine) override {
    if (machine.now() >= Seconds(2)) return sim::Action::Exit();
    return sim::Action::Compute(burst);
  }
  SimDuration burst;
};

struct PeriodicSleeper final : sim::ThreadBody {
  PeriodicSleeper(SimDuration burst, SimDuration gap) : burst(burst), gap(gap) {}
  sim::Action Next(sim::Machine& machine) override {
    if (machine.now() >= Seconds(2)) return sim::Action::Exit();
    compute = !compute;
    return compute ? sim::Action::Compute(burst) : sim::Action::Sleep(gap);
  }
  SimDuration burst, gap;
  bool compute = false;
};

struct Producer final : sim::ThreadBody {
  Producer(sim::WaitChannel& ch, int* tokens, SimDuration burst)
      : channel(&ch), tokens(tokens), burst(burst) {}
  sim::Action Next(sim::Machine& machine) override {
    if (machine.now() >= Seconds(2)) return sim::Action::Exit();
    if (produced) {
      ++*tokens;
      channel->NotifyOne();
      produced = false;
    }
    produced = true;
    return sim::Action::Compute(burst);
  }
  sim::WaitChannel* channel;
  int* tokens;
  SimDuration burst;
  bool produced = false;
};

struct Consumer final : sim::ThreadBody {
  Consumer(sim::WaitChannel& ch, int* tokens, SimDuration burst)
      : channel(&ch), tokens(tokens), burst(burst) {}
  sim::Action Next(sim::Machine& machine) override {
    if (machine.now() >= Seconds(2)) return sim::Action::Exit();
    if (*tokens == 0) return sim::Action::Wait(*channel);
    --*tokens;
    return sim::Action::Compute(burst);
  }
  sim::WaitChannel* channel;
  int* tokens;
  SimDuration burst;
};

// Kernel-feature mix on the bare machine: weighted cgroups, a quota group
// that throttles, an RT thread, wait-channel producer/consumer pairs, and
// mid-run SetNice/MoveToCgroup churn (scheduled via cold-lane closures).
Digests MachineScenario(int cores, sim::CfsParams params = {}) {
  sim::Simulator sim;
  sim::Machine machine(sim, cores, params);
  DigestObserver observer(machine);
  machine.set_trace_observer(&observer);

  const CgroupId heavy = machine.CreateCgroup("heavy", machine.root_cgroup(), 2048);
  const CgroupId light = machine.CreateCgroup("light", machine.root_cgroup(), 512);
  const CgroupId nested = machine.CreateCgroup("nested", heavy, 1024);
  machine.SetQuota(light, Millis(4), Millis(20));

  machine.CreateThread("spin-a", std::make_unique<Spinner>(Micros(150)), heavy, 0);
  machine.CreateThread("spin-b", std::make_unique<Spinner>(Micros(170)), nested, -2);
  machine.CreateThread("spin-c", std::make_unique<Spinner>(Micros(130)), light, 3);
  machine.CreateThread("sleeper",
                       std::make_unique<PeriodicSleeper>(Micros(300), Micros(700)),
                       machine.root_cgroup(), 0);
  const ThreadId rt = machine.CreateThread(
      "rt", std::make_unique<PeriodicSleeper>(Micros(200), Millis(5)),
      machine.root_cgroup(), 0);
  machine.SetRtPriority(rt, 50);

  sim::WaitChannel channel(machine);
  int tokens = 0;
  machine.CreateThread("prod", std::make_unique<Producer>(channel, &tokens, Micros(80)),
                       heavy, 0);
  const ThreadId consumer = machine.CreateThread(
      "cons", std::make_unique<Consumer>(channel, &tokens, Micros(120)), light, 0);

  sim.ScheduleAt(Millis(500), [&] { machine.SetNice(consumer, -5); });
  sim.ScheduleAt(Millis(900), [&] { machine.MoveToCgroup(consumer, nested); });
  sim.ScheduleAt(Millis(1300), [&] { machine.SetShares(heavy, 256); });

  sim.RunUntil(Seconds(3));
  EXPECT_GT(observer.size(), 500u);
  return {observer.Digest(), observer.ClampDigest()};
}

// The SPE scenario laid out as the cpu.shares translator lays it out: each
// operator thread in its own cgroup, with unequal shares, under one
// `lachesis` group, next to a nice-19 periodic thread in the root whose
// fast vruntime keeps the root's min_vruntime ahead of `lachesis`. At about
// one core of load on four, most wakes find an idle core and their whole
// cgroup path empty, with `lachesis` sometimes running another operator and
// sometimes not: the run where the sleeper clamps of a woken thread's
// groups show.
Digests GroupedSpeScenario() {
  sim::Simulator sim;
  sim::Machine machine(sim, 4);
  DigestObserver observer(machine);
  machine.set_trace_observer(&observer);
  const CgroupId lachesis =
      machine.CreateCgroup("lachesis", machine.root_cgroup());
  spe::SpeInstance instance(spe::StormFlavor(),
                            std::vector<sim::Machine*>{&machine}, "golden");
  spe::DeployOptions options;
  options.cgroups = {lachesis};
  spe::DeployedQuery& q1 =
      instance.Deploy(Pipeline("q1", 3, Micros(60)), options);
  spe::DeployedQuery& q2 =
      instance.Deploy(Pipeline("q2", 2, Micros(90)), options);
  std::uint64_t shares = 256;
  for (spe::DeployedQuery* q : {&q1, &q2}) {
    for (const spe::DeployedOp& d : q->ops) {
      const CgroupId group =
          machine.CreateCgroup(d.op->config().name, lachesis, shares);
      machine.MoveToCgroup(d.thread, group);
      shares += 256;
    }
  }
  machine.CreateThread(
      "nice19", std::make_unique<PeriodicSleeper>(Micros(200), Millis(2)),
      machine.root_cgroup(), 19);
  auto generator = [](Rng& rng, std::uint64_t seq) {
    spe::Tuple t;
    t.key = static_cast<std::int64_t>(seq % 16);
    t.value = rng.Uniform(0.0, 1.0);
    return t;
  };
  spe::ExternalSource s1(sim, q1.source_channels(), generator, 11);
  spe::ExternalSource s2(sim, q2.source_channels(), generator, 23);
  s1.Start(2500, Seconds(2));
  s2.Start(1700, Seconds(2));
  sim.RunUntil(Seconds(3));
  EXPECT_GT(observer.size(), 1000u);
  return {observer.Digest(), observer.ClampDigest()};
}

// Golden digests captured from the seed (std::priority_queue + std::set)
// implementation. The optimized event queue / runqueues must reproduce the
// exact same schedule.
constexpr std::uint64_t kGoldenSpe1Core = 0x85a60f0f97a722c4ULL;
constexpr std::uint64_t kGoldenSpe4Core = 0xb55483fdfadb14a5ULL;
constexpr std::uint64_t kGoldenMachine1Core = 0x77cb84798206728aULL;
constexpr std::uint64_t kGoldenMachine2Core = 0x5e96e93104df2819ULL;

// Clamp digests captured before wakes could bypass the runqueues: a wakee
// that goes straight to an idle core must carry the vruntime the
// enqueue-then-pick path would have given it.
constexpr std::uint64_t kClampMachine1Core = 0xbc8ee9768b122e1dULL;
constexpr std::uint64_t kClampMachine2Core = 0x06a606b20ccb11afULL;
constexpr std::uint64_t kClampSpe4Core = 0x81434ea2fed0d067ULL;
constexpr std::uint64_t kGoldenGroupedSpe4Core = 0x7a883b06e2d74053ULL;
constexpr std::uint64_t kClampGroupedSpe4Core = 0x66b6e2bea3bd73baULL;

TEST(GoldenTraceTest, SpeScenarioIsDeterministicPerCoreCount) {
  EXPECT_EQ(SpeScenario(1).trace, SpeScenario(1).trace);
  EXPECT_EQ(SpeScenario(4).trace, SpeScenario(4).trace);
}

TEST(GoldenTraceTest, SpeScenarioMatchesGoldenDigest) {
  EXPECT_EQ(SpeScenario(1).trace, kGoldenSpe1Core);
  EXPECT_EQ(SpeScenario(4).trace, kGoldenSpe4Core);
}

TEST(GoldenTraceTest, MachineScenarioIsDeterministicPerCoreCount) {
  EXPECT_EQ(MachineScenario(1).trace, MachineScenario(1).trace);
  EXPECT_EQ(MachineScenario(2).trace, MachineScenario(2).trace);
}

TEST(GoldenTraceTest, MachineScenarioMatchesGoldenDigest) {
  EXPECT_EQ(MachineScenario(1).trace, kGoldenMachine1Core);
  EXPECT_EQ(MachineScenario(2).trace, kGoldenMachine2Core);
}

TEST(GoldenTraceTest, ClampDigestsMatchGolden) {
  EXPECT_EQ(MachineScenario(1).clamps, kClampMachine1Core);
  EXPECT_EQ(MachineScenario(2).clamps, kClampMachine2Core);
  EXPECT_EQ(SpeScenario(4).clamps, kClampSpe4Core);
  const Digests grouped = GroupedSpeScenario();
  EXPECT_EQ(grouped.trace, kGoldenGroupedSpe4Core);
  EXPECT_EQ(grouped.clamps, kClampGroupedSpe4Core);
}

// An explicit all-full-capacity vector must be indistinguishable from the
// default symmetric machine: every heterogeneity code path is gated on a
// below-full-capacity core or reduces to an exact identity at capacity
// 1024, so the pre-heterogeneity goldens must reproduce byte-for-byte.
TEST(GoldenTraceTest, SymmetricCapacityVectorReproducesGoldenDigest) {
  sim::CfsParams one_core;
  one_core.core_capacities = {1.0};
  sim::CfsParams two_cores;
  two_cores.core_capacities = {1.0, 1.0};
  EXPECT_EQ(MachineScenario(1, one_core).trace, kGoldenMachine1Core);
  EXPECT_EQ(MachineScenario(2, two_cores).trace, kGoldenMachine2Core);
}

}  // namespace
}  // namespace lachesis
