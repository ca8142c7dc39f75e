// Pins every scheduling decision of Highest Rate enforced through
// cpu.shares on a simulated Liebre deployment.
//
// 20 SYN queries x 5 operators run for 60 simulated seconds on a 4-core
// machine under the full control loop: scraper -> store -> SimSpeDriver ->
// metric provider -> HighestRatePolicy -> CpuSharesTranslator -> schedule
// delta layer -> SimOsAdapter. A test-local adapter between the runner and
// the SimOsAdapter sees exactly the operations the delta layer forwards and
// digests each one (simulated time, op class, target, value), followed by
// the machine's final per-cgroup shares and thread placement. Any change to
// the provider, HR, the share grouping or the adapter that moves a single
// decision changes the digest. Intentional changes are reviewed by
// regenerating:
//
//   LACHESIS_REGEN_GOLDEN=1 ./build/tests/hr_shares_golden_test
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/os_adapter.h"
#include "core/policies.h"
#include "core/runner.h"
#include "core/sim_driver.h"
#include "core/sim_executor.h"
#include "core/translators.h"
#include "queries/synthetic.h"
#include "sim/machine.h"
#include "sim/simulator.h"
#include "spe/flavor.h"
#include "spe/runtime.h"
#include "spe/source.h"
#include "tsdb/scraper.h"
#include "tsdb/tsdb.h"

namespace lachesis::core {
namespace {

#ifndef LACHESIS_SOURCE_DIR
#error "build must define LACHESIS_SOURCE_DIR"
#endif
constexpr const char kGoldenPath[] =
    LACHESIS_SOURCE_DIR "/tests/golden/hr_shares_golden.txt";

constexpr double kRatePerQueryTps = 60.0;
constexpr SimTime kEnd = Seconds(60);

// Forwards every call to the wrapped SimOsAdapter and logs it as one line.
class DigestingOsAdapter final : public OsAdapter {
 public:
  DigestingOsAdapter(OsAdapter& inner, const sim::Simulator& sim)
      : inner_(&inner), sim_(&sim) {}

  void SetNice(const ThreadHandle& thread, int nice) override {
    Log("nice", thread) << nice << '\n';
    inner_->SetNice(thread, nice);
  }
  void SetGroupShares(const std::string& group, std::uint64_t shares) override {
    Log("shares", group) << shares << '\n';
    inner_->SetGroupShares(group, shares);
  }
  void MoveToGroup(const ThreadHandle& thread, const std::string& group) override {
    Log("move", thread) << group << '\n';
    inner_->MoveToGroup(thread, group);
  }
  void SetRtPriority(const ThreadHandle& thread, int rt_priority) override {
    Log("rt", thread) << rt_priority << '\n';
    inner_->SetRtPriority(thread, rt_priority);
  }
  void SetGroupQuota(const std::string& group, SimDuration quota,
                     SimDuration period) override {
    Log("quota", group) << quota << '/' << period << '\n';
    inner_->SetGroupQuota(group, quota, period);
  }
  void SetDeadline(const ThreadHandle& thread, SimDuration runtime,
                   SimDuration deadline, SimDuration period) override {
    Log("deadline", thread) << runtime << '/' << deadline << '/' << period
                            << '\n';
    inner_->SetDeadline(thread, runtime, deadline, period);
  }
  void SetCpuAffinity(const ThreadHandle& thread, CpuPreference pref) override {
    Log("affinity", thread) << static_cast<int>(pref) << '\n';
    inner_->SetCpuAffinity(thread, pref);
  }
  bool SnapshotState(const std::vector<ThreadHandle>& threads,
                     OsStateSnapshot& out) override {
    return inner_->SnapshotState(threads, out);
  }

  [[nodiscard]] std::string log() const { return log_.str(); }
  [[nodiscard]] std::uint64_t ops() const { return ops_; }

 private:
  std::ostringstream& Log(const char* op, const ThreadHandle& thread) {
    ++ops_;
    log_ << sim_->now() << ' ' << op << " tid" << thread.sim_tid.value() << ' ';
    return log_;
  }
  std::ostringstream& Log(const char* op, const std::string& group) {
    ++ops_;
    log_ << sim_->now() << ' ' << op << ' ' << group << ' ';
    return log_;
  }

  OsAdapter* inner_;
  const sim::Simulator* sim_;
  std::ostringstream log_;
  std::uint64_t ops_ = 0;
};

std::uint64_t Fnv1a64(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : bytes) {
    h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ULL;
  }
  return h;
}

// Runs the scenario; returns "digest <hex>\nops <n>\n".
std::string RenderDigest() {
  sim::Simulator sim;
  sim::Machine machine(sim, 4);
  spe::SpeInstance instance(spe::LiebreFlavor(), {&machine}, "liebre");
  const std::vector<queries::Workload> workloads =
      queries::MakeSynthetic(queries::SyntheticConfig{});
  std::vector<std::unique_ptr<spe::ExternalSource>> sources;
  for (std::size_t i = 0; i < workloads.size(); ++i) {
    spe::DeployOptions deploy;
    deploy.seed = 7919 + i * 131;
    spe::DeployedQuery& query = instance.Deploy(workloads[i].query, deploy);
    sources.push_back(std::make_unique<spe::ExternalSource>(
        sim, query.source_channels(), workloads[i].generator, 104729 + i * 17));
    sources.back()->Start(kRatePerQueryTps, kEnd);
  }
  tsdb::TimeSeriesStore store;
  tsdb::Scraper scraper(sim, store, Seconds(1));
  scraper.AddInstance(instance);
  scraper.Start(kEnd);

  SimSpeDriver driver(instance, store, Seconds(1));
  SimOsAdapter sim_os;
  DigestingOsAdapter os(sim_os, sim);
  SimControlExecutor executor(sim);
  LachesisRunner runner(executor, os, /*seed=*/4);
  PolicyBinding binding;
  binding.policy = std::make_unique<HighestRatePolicy>();
  binding.translator = std::make_unique<CpuSharesTranslator>();
  binding.period = Seconds(1);
  binding.drivers = {&driver};
  runner.AddQuery(std::move(binding));
  runner.Start(kEnd);
  sim.RunUntil(kEnd);

  std::ostringstream state;
  std::vector<ThreadHandle> threads;
  for (const EntityInfo& e : driver.Entities()) threads.push_back(e.thread);
  OsStateSnapshot snapshot;
  if (!sim_os.SnapshotState(threads, snapshot)) return "no snapshot\n";
  for (const auto& [group, shares] : snapshot.group_shares) {
    state << "final " << group << ' ' << shares << '\n';
  }
  for (const OsStateSnapshot::ThreadState& t : snapshot.threads) {
    state << "final tid" << t.thread.sim_tid.value() << ' '
          << t.group.value_or("-") << '\n';
  }
  char digest[17];
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(Fnv1a64(os.log() + state.str())));
  return "digest " + std::string(digest) + "\nops " +
         std::to_string(os.ops()) + "\n";
}

std::string ReadFileOrEmpty(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return "";
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(HrSharesGoldenTest, DecisionsMatchGolden) {
  const std::string rendered = RenderDigest();

  if (std::getenv("LACHESIS_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(kGoldenPath, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out) << "cannot write " << kGoldenPath;
    out << rendered;
    GTEST_SKIP() << "golden regenerated at " << kGoldenPath;
  }

  const std::string golden = ReadFileOrEmpty(kGoldenPath);
  ASSERT_FALSE(golden.empty())
      << "missing golden file " << kGoldenPath
      << "; run with LACHESIS_REGEN_GOLDEN=1 to create it";
  EXPECT_EQ(rendered, golden)
      << "HR + cpu.shares decisions moved; if the change is intentional, "
         "regenerate with LACHESIS_REGEN_GOLDEN=1";
}

}  // namespace
}  // namespace lachesis::core
