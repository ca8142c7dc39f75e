// Tier-1 conformance suite: a fixed-seed sweep through the randomized
// scenario generator plus targeted hierarchical-shares, mid-run-mutation and
// metamorphic cases, and the sim <-> native differential's refusal of a
// negative nice, which touches nothing on the host. The standalone
// conformance_fuzz binary runs the same checkers over a much larger (and
// budgeted) seed range.
#include <algorithm>
#include <stdexcept>

#include <gtest/gtest.h>

#include "src/conformance/differential.h"
#include "src/conformance/harness.h"
#include "src/conformance/scenario.h"
#include "src/sim/weights.h"

namespace lachesis::conformance {
namespace {

constexpr std::uint64_t kSweepFirstSeed = 1;
constexpr std::uint64_t kSweepLastSeed = 60;

TEST(ConformanceGenerator, IsDeterministic) {
  for (const std::uint64_t seed : {1ULL, 7ULL, 42ULL, 12345ULL}) {
    EXPECT_EQ(Describe(GenerateScenario(seed)), Describe(GenerateScenario(seed)))
        << "seed " << seed;
  }
}

TEST(ConformanceGenerator, ProducesValidSpecs) {
  for (std::uint64_t seed = kSweepFirstSeed; seed <= kSweepLastSeed; ++seed) {
    const ScenarioSpec spec = GenerateScenario(seed);
    EXPECT_EQ(spec.seed, seed);
    EXPECT_GE(spec.cores, 1);
    EXPECT_FALSE(spec.threads.empty());
    EXPECT_NO_THROW(spec.params.Validate());
    for (std::size_t g = 0; g < spec.groups.size(); ++g) {
      EXPECT_LT(spec.groups[g].parent, static_cast<int>(g))
          << "group parents must reference earlier groups";
    }
    for (const ThreadSpec& t : spec.threads) {
      EXPECT_LT(t.group, static_cast<int>(spec.groups.size()));
      EXPECT_GT(t.busy, 0);
    }
    for (const MutationSpec& m : spec.mutations) {
      EXPECT_GT(m.at, 0);
      EXPECT_LT(m.at, spec.duration);
    }
  }
}

// The sweep below is only meaningful if the fixed seed range actually
// exercises the interesting structure classes.
TEST(ConformanceGenerator, SweepCoversScenarioClasses) {
  int hierarchical = 0;
  int with_mutations = 0;
  int fairness = 0;
  int timeslice = 0;
  for (std::uint64_t seed = kSweepFirstSeed; seed <= kSweepLastSeed; ++seed) {
    const ScenarioSpec spec = GenerateScenario(seed);
    if (spec.HasNestedGroups()) ++hierarchical;
    if (!spec.mutations.empty()) ++with_mutations;
    if (spec.FairnessEligible()) ++fairness;
    if (spec.PureBusyContested()) ++timeslice;
  }
  EXPECT_GE(hierarchical, 3);
  EXPECT_GE(with_mutations, 10);
  EXPECT_GE(fairness, 8);
  EXPECT_GE(timeslice, 10);
}

// >= 50 randomized scenarios through every invariant checker.
TEST(ConformanceSweep, FixedSeedsSatisfyAllInvariants) {
  for (std::uint64_t seed = kSweepFirstSeed; seed <= kSweepLastSeed; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const ScenarioSpec spec = GenerateScenario(seed);
    const CheckReport report = CheckInvariants(RunScenario(spec));
    EXPECT_TRUE(report.ok()) << Describe(spec) << report.Summary();
  }
}

TEST(ConformanceSweep, FixedSeedsSatisfyMetamorphicProperties) {
  for (std::uint64_t seed = kSweepFirstSeed; seed <= kSweepLastSeed; ++seed) {
    const ScenarioSpec spec = GenerateScenario(seed);
    if (!spec.FairnessEligible()) continue;
    SCOPED_TRACE("seed " + std::to_string(seed));
    const CheckReport report = CheckMetamorphic(spec);
    EXPECT_TRUE(report.ok()) << Describe(spec) << report.Summary();
  }
}

// Hand-built nested hierarchy: root -> {outer (2048), sibling (1024)},
// outer -> {inner (512), inner2 (1536)}; one busy thread per leaf. The
// water-filling model and the simulator must agree on the 2:1 outer split
// and the 1:3 inner split.
TEST(ConformanceTargeted, HierarchicalSharesMatchWaterFilling) {
  ScenarioSpec spec;
  spec.seed = 0;
  spec.cores = 1;
  spec.duration = Seconds(2);
  spec.params.context_switch_cost = 0;
  spec.params.wakeup_check_cost = 0;
  spec.groups = {{-1, 2048}, {-1, 1024}, {0, 512}, {0, 1536}};
  ThreadSpec busy;
  busy.busy = Micros(200);
  busy.group = 1;
  spec.threads.push_back(busy);  // sibling leaf
  busy.group = 2;
  spec.threads.push_back(busy);  // inner leaf
  busy.group = 3;
  spec.threads.push_back(busy);  // inner2 leaf

  ASSERT_TRUE(spec.FairnessEligible());
  ASSERT_TRUE(spec.HasNestedGroups());
  const std::vector<double> expected = ExpectedFairSeconds(spec);
  ASSERT_EQ(expected.size(), 3u);
  // sibling: 1024/3072 of 2s; inner: (2048/3072)*(512/2048) of 2s; etc.
  EXPECT_NEAR(expected[0], 2.0 / 3.0, 1e-9);
  EXPECT_NEAR(expected[1], 4.0 / 3.0 * 0.25, 1e-9);
  EXPECT_NEAR(expected[2], 4.0 / 3.0 * 0.75, 1e-9);

  const CheckReport report = CheckInvariants(RunScenario(spec));
  EXPECT_TRUE(report.ok()) << report.Summary();
}

// A thread is capped at one core: the water-filling model must redistribute
// the surplus of a dominant thread to the others.
TEST(ConformanceTargeted, WaterFillingCapsThreadsAtOneCore) {
  ScenarioSpec spec;
  spec.cores = 2;
  spec.duration = Seconds(1);
  ThreadSpec heavy;
  heavy.nice = -10;  // weight 9548: raw share would exceed one core
  ThreadSpec light;
  light.nice = 5;  // weight 335
  spec.threads = {heavy, light, light};
  const std::vector<double> expected = ExpectedFairSeconds(spec);
  EXPECT_NEAR(expected[0], 1.0, 1e-9);  // capped at one core
  EXPECT_NEAR(expected[1], 0.5, 1e-9);  // remaining core split evenly
  EXPECT_NEAR(expected[2], 0.5, 1e-9);
}

// Mid-run mutations: SetNice, SetShares and MoveToCgroup must keep every
// unconditional invariant (transition legality, conservation, monotonicity,
// work conservation) intact.
TEST(ConformanceTargeted, MidRunMutationsKeepInvariants) {
  ScenarioSpec spec;
  spec.seed = 0;
  spec.cores = 2;
  spec.duration = Seconds(1);
  spec.groups = {{-1, 1024}, {-1, 4096}};
  ThreadSpec busy;
  busy.busy = Micros(300);
  busy.group = 0;
  spec.threads.assign(4, busy);
  spec.threads[2].group = 1;
  spec.threads[3].group = -1;
  spec.mutations = {
      {MutationKind::kSetNice, Millis(200), 0, -1, -5, 0},
      {MutationKind::kSetShares, Millis(400), -1, 1, 0, 512},
      {MutationKind::kMoveToCgroup, Millis(600), 1, 1, 0, 0},
      {MutationKind::kMoveToCgroup, Millis(800), 3, 0, 0, 0},
  };
  const RunResult run = RunScenario(spec);
  const CheckReport report = CheckInvariants(run);
  EXPECT_TRUE(report.ok()) << report.Summary();
  // The moved threads really changed runqueues: their vruntime columns are
  // exempt from monotonicity, everything else was still checked.
  EXPECT_FALSE(run.probes.empty());
  EXPECT_EQ(run.probes.front().group_min_vruntime.size(), 3u);  // root + 2
}

// The timeslice-bound checker must see real preemptions in a contested
// all-busy scenario (otherwise it would be vacuously green).
TEST(ConformanceTargeted, ContestedScenarioExercisesTimesliceChecker) {
  ScenarioSpec spec;
  spec.cores = 1;
  spec.duration = Seconds(1);
  ThreadSpec busy;
  busy.busy = Micros(400);
  spec.threads.assign(3, busy);
  ASSERT_TRUE(spec.PureBusyContested());
  const RunResult run = RunScenario(spec);
  std::uint64_t preemptions = 0;
  for (const sim::ThreadStats& s : run.stats) preemptions += s.nr_preemptions;
  EXPECT_GT(preemptions, 50u);
  EXPECT_TRUE(CheckInvariants(run).ok());
}

TEST(ConformanceHarness, ProbesCoverTheWholeRun) {
  const ScenarioSpec spec = GenerateScenario(3);
  const RunResult run = RunScenario(spec);
  ASSERT_GE(run.probes.size(), 100u);
  EXPECT_LT(run.probes.front().at, spec.duration / 50);
  EXPECT_GT(run.probes.back().at, spec.duration * 9 / 10);
}

TEST(ConformanceHarness, ReportSummaryListsViolations) {
  CheckReport report;
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.Summary(), "ok");
  report.Add("first");
  report.Add("second");
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.Summary().find("2 violation(s)"), std::string::npos);
  EXPECT_NE(report.Summary().find("first"), std::string::npos);
}

TEST(ConformanceMinimize, PassingSpecIsReturnedUnchanged) {
  const ScenarioSpec spec = GenerateScenario(1);
  ASSERT_TRUE(CheckScenario(spec).ok());
  EXPECT_EQ(Describe(MinimizeFailure(spec)), Describe(spec));
}

TEST(ConformanceEligibility, ClassifiersMatchSpecStructure) {
  ScenarioSpec flat;
  flat.cores = 2;
  flat.threads.assign(3, ThreadSpec{});
  EXPECT_TRUE(flat.FairnessEligible());
  EXPECT_TRUE(flat.PureBusyContested());
  EXPECT_TRUE(flat.HomogeneousSiblings());
  EXPECT_FALSE(flat.SharesScaleInvariant());  // no groups to scale

  // Groups on SMP: intra-group ratios deviate from water-filling.
  ScenarioSpec smp_groups = flat;
  smp_groups.groups = {{-1, 1024}};
  EXPECT_FALSE(smp_groups.FairnessEligible());

  // Root thread next to a group: weight transforms are not ratio-preserving.
  ScenarioSpec mixed = smp_groups;
  mixed.cores = 1;
  EXPECT_TRUE(mixed.FairnessEligible());
  EXPECT_FALSE(mixed.HomogeneousSiblings());
  EXPECT_FALSE(mixed.SharesScaleInvariant());

  ScenarioSpec separated = mixed;
  for (ThreadSpec& t : separated.threads) t.group = 0;
  EXPECT_TRUE(separated.HomogeneousSiblings());
  EXPECT_TRUE(separated.SharesScaleInvariant());

  ScenarioSpec sleepy = flat;
  sleepy.threads[0].kind = ThreadKind::kPeriodic;
  EXPECT_FALSE(sleepy.FairnessEligible());
  EXPECT_FALSE(sleepy.PureBusyContested());

  ScenarioSpec mutated = flat;
  mutated.mutations.push_back({});
  EXPECT_FALSE(mutated.FairnessEligible());
  EXPECT_TRUE(mutated.PureBusyContested());  // mutations never truncate slices
}

// The refusal comes before any worker starts: nothing is reniced or timed.
TEST(ConformanceDifferential, NegativeNiceIsRefusedNotAttempted) {
  const DiffResult result = RunNiceDifferential({-5, 0}, DiffConfig{});
  EXPECT_EQ(result.status, DiffStatus::kSkipped);
  EXPECT_NE(result.message.find("CAP_SYS_NICE"), std::string::npos)
      << result.message;
}

}  // namespace
}  // namespace lachesis::conformance
