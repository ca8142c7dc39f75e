// Allocation-regression pin for the control plane's steady state.
//
// The storage layer (common/hash_index.h) exists to make the per-tick
// control loop allocation-free once warm: the delta cache's
// skip-or-forward probe, the forward path of an op whose target has been
// named, the health tracker's allow/record cycle, recorder interning and
// the metric provider's Update must not touch the heap in steady state,
// and a full runner tick must allocate no more at 500 entities than at 50,
// or a million-target deployment spends its ticks inside the allocator.
// This binary overrides global operator new to count every heap
// allocation and asserts the count stays at ZERO across steady-state ticks
// after warmup. If a future change sneaks a std::map, a std::string build,
// or a rehash into the hot path, this test fails with the allocation count.
//
// The same counter pins the simulated egress's recording: a latency
// reservoir its deploy does not keep must cost no allocation per tuple. And
// it pins the simulated data path under it: once the tuple queues, wait
// lists, runqueues and event heaps have grown to their working set, a
// pipeline's tuples and wakes allocate nothing.
//
// Only this binary installs the counting hooks (they are file-local to the
// test executable), so the rest of the suite is unaffected.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "core/metric_provider.h"
#include "core/op_health.h"
#include "core/policies.h"
#include "core/runner.h"
#include "core/schedule_delta.h"
#include "core/sim_driver.h"
#include "core/sim_executor.h"
#include "core/translators.h"
#include "obs/recorder.h"
#include "queries/synthetic.h"
#include "sim/machine.h"
#include "sim/simulator.h"
#include "spe/physical.h"
#include "spe/runtime.h"
#include "spe/source.h"
#include "tests/fake_driver.h"
#include "tsdb/scraper.h"

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
}  // namespace

// Global replacements: every heap allocation in the process bumps the
// counter. Deletes are deliberately uncounted -- the contract under test is
// "no allocations", not "balanced allocations".
void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(align), size ? size : 1)) {
    throw std::bad_alloc();
  }
  return p;
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
// The nothrow forms too (std::stable_sort's temporary buffer uses them), so
// every allocation pairs with the free-based deletes below.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return ::operator new(size, std::nothrow);
}
// The replacement operator new allocates with malloc, so these deletes pair
// it with free by design; once inlined, GCC's -Wmismatched-new-delete sees
// only a free of a pointer from operator new.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
#pragma GCC diagnostic pop

namespace lachesis::core {
namespace {

std::uint64_t AllocCount() {
  return g_alloc_count.load(std::memory_order_relaxed);
}

// Backend that accepts everything and allocates nothing.
class NullAdapter final : public OsAdapter {
 public:
  void SetNice(const ThreadHandle&, int) override {}
  void SetGroupShares(const std::string&, std::uint64_t) override {}
  void MoveToGroup(const ThreadHandle&, const std::string&) override {}
  void SetRtPriority(const ThreadHandle&, int) override {}
  void SetGroupQuota(const std::string&, SimDuration, SimDuration) override {}
};

ThreadHandle HandleFor(long tid) {
  ThreadHandle h;
  h.sim_tid = ThreadId(static_cast<std::uint64_t>(tid));
  h.os_tid = tid;
  return h;
}

TEST(AllocRegressionTest, DeltaSkipPathAllocatesNothing) {
  constexpr int kThreads = 500;
  constexpr int kGroups = 32;
  NullAdapter backend;
  ScheduleDeltaAdapter delta(backend);

  std::vector<std::string> groups;
  for (int g = 0; g < kGroups; ++g) {
    groups.push_back("spe.q" + std::to_string(g));
  }
  const auto apply_schedule = [&](SimTime now) {
    delta.BeginTick(now);
    for (int g = 0; g < kGroups; ++g) {
      delta.SetGroupShares(groups[static_cast<std::size_t>(g)],
                           1024 + static_cast<std::uint64_t>(g));
      delta.SetGroupQuota(groups[static_cast<std::size_t>(g)], Millis(50),
                          Millis(100));
    }
    for (int t = 0; t < kThreads; ++t) {
      const ThreadHandle h = HandleFor(t);
      delta.SetNice(h, t % 40 - 20);
      delta.MoveToGroup(h, groups[static_cast<std::size_t>(t % kGroups)]);
      delta.SetRtPriority(h, 0);
      // Half the threads hold a reservation and a hint; the other half
      // take the clear-never-set elision.
      if (t % 2 == 0) {
        delta.SetDeadline(h, Millis(4), Millis(10), Millis(10));
        delta.SetCpuAffinity(h, CpuPreference::kPreferBig);
      } else {
        delta.SetDeadline(h, 0, 0, 0);
        delta.SetCpuAffinity(h, CpuPreference::kNone);
      }
    }
  };

  // Warmup: tables grow, group names intern, caches fill.
  apply_schedule(Millis(1));
  apply_schedule(Millis(2));

  const std::uint64_t skipped_before = delta.totals().skipped;
  const std::uint64_t before = AllocCount();
  for (int tick = 0; tick < 50; ++tick) {
    apply_schedule(Millis(10 + tick));
  }
  const std::uint64_t after = AllocCount();
  EXPECT_EQ(after - before, 0u)
      << "steady-state delta ticks must not touch the heap";
  // Every measured op was a cache hit: nothing reached the backend.
  EXPECT_EQ(delta.totals().skipped - skipped_before,
            static_cast<std::uint64_t>(50) * (kThreads * 5 + kGroups * 2));
}

TEST(AllocRegressionTest, ForwardedNiceAndSharesAllocateNothingOnceNamed) {
  constexpr int kTargets = 200;
  NullAdapter backend;
  ScheduleDeltaAdapter delta(backend);
  HealthConfig health;
  health.enabled = true;
  delta.SetHealthConfig(health);
  obs::Recorder recorder(4096);
  delta.SetRecorder(&recorder);
  // Thread and group names longer than a std::string's inline buffer, as
  // a 500-operator deployment's are ("g:op-liebre.syn17.op2.0").
  std::vector<std::string> groups;
  for (int g = 0; g < kTargets; ++g) {
    groups.push_back("op-liebre.syn" + std::to_string(g) + ".op2.0");
  }
  // Every value moves every tick, so every op is forwarded.
  const auto tick = [&](int round) {
    delta.BeginTick(Millis(round));
    for (int t = 0; t < kTargets; ++t) {
      delta.SetNice(HandleFor(1000000 + t), (t + round) % 40 - 20);
      delta.SetGroupShares(groups[static_cast<std::size_t>(t)],
                           1024 + static_cast<std::uint64_t>((t + round) % 7));
    }
  };
  tick(0);  // names every target, in the tracker and the recorder

  const std::uint64_t applied_before = delta.totals().applied;
  const std::uint64_t before = AllocCount();
  for (int round = 1; round <= 20; ++round) tick(round);
  EXPECT_EQ(AllocCount() - before, 0u)
      << "forwarding an op to a named target must not touch the heap";
  EXPECT_EQ(delta.totals().applied - applied_before,
            static_cast<std::uint64_t>(20 * 2 * kTargets));
  EXPECT_GT(recorder.total_recorded(), static_cast<std::uint64_t>(20 * 2 * kTargets));
}

TEST(AllocRegressionTest, HealthChurnAllocatesNothingAfterWarmup) {
  constexpr int kTargets = 200;
  HealthConfig config;
  config.enabled = true;
  config.backoff_base = Millis(1);
  OpHealthTracker health(config);
  obs::Recorder recorder(4096);
  health.SetRecorder(&recorder);

  std::vector<OpHealthTracker::TargetId> targets;
  for (int t = 0; t < kTargets; ++t) {
    targets.push_back(health.InternTarget("t:" + std::to_string(t) + "/" +
                                          std::to_string(t)));
  }
  // One full fail -> succeed cycle per target warms the per-class tables
  // and the recorder's intern table.
  const auto churn = [&](SimTime now) {
    for (const OpHealthTracker::TargetId target : targets) {
      if (health.AllowAttempt(OpClass::kSetNice, target, now)) {
        health.RecordFailure(OpClass::kSetNice, target, now,
                             ErrorSeverity::kVanished);
      }
      health.RecordSuccess(OpClass::kSetNice, target, now + Millis(5));
    }
  };
  churn(Millis(1));
  churn(Seconds(1));

  const std::uint64_t before = AllocCount();
  for (int round = 0; round < 50; ++round) {
    // Failure re-arms backoff (FlatMap reinsert into warmed table), success
    // erases it (backward-shift, no tombstone growth): the exact churn a
    // flapping backend produces every tick.
    churn(Seconds(2 + round));
  }
  const std::uint64_t after = AllocCount();
  EXPECT_EQ(after - before, 0u)
      << "steady-state health churn must not touch the heap";
  EXPECT_GT(recorder.total_recorded(), 0u);
}

TEST(AllocRegressionTest, RecorderInternLookupAllocatesNothingWhenWarm) {
  obs::Recorder recorder(1024);
  std::vector<std::string> names;
  for (int i = 0; i < 300; ++i) {
    names.push_back("spe.q" + std::to_string(i % 10) + ".op" +
                    std::to_string(i));
    (void)recorder.Intern(names.back());
  }
  const std::uint64_t before = AllocCount();
  bool all_found = true;
  for (int round = 0; round < 20; ++round) {
    for (const std::string& name : names) {
      all_found &= recorder.Intern(name) != obs::kNoStr;
      all_found &= recorder.Lookup(name) != obs::kNoStr;
    }
  }
  EXPECT_EQ(AllocCount() - before, 0u)
      << "re-interning a known string must not touch the heap";
  EXPECT_TRUE(all_found);
}

// Forwards to another driver, generation included, and counts the calls
// of Entities() and the allocations made inside it: its by-value snapshot
// is the driver's cost, not the provider's.
class EntitiesCountingDriver final : public SpeDriver {
 public:
  explicit EntitiesCountingDriver(SpeDriver& inner) : inner_(&inner) {}

  [[nodiscard]] const std::string& name() const override { return inner_->name(); }
  std::vector<EntityInfo> Entities() override {
    ++entities_calls_;
    const std::uint64_t before = AllocCount();
    std::vector<EntityInfo> snapshot = inner_->Entities();
    entities_allocs_ += AllocCount() - before;
    return snapshot;
  }
  [[nodiscard]] std::uint64_t EntitiesGeneration() const override {
    return inner_->EntitiesGeneration();
  }
  const LogicalTopology& Topology(QueryId query) override {
    return inner_->Topology(query);
  }
  [[nodiscard]] bool Provides(MetricId metric) const override {
    return inner_->Provides(metric);
  }
  double Fetch(MetricId metric, const EntityInfo& entity) override {
    return inner_->Fetch(metric, entity);
  }

  [[nodiscard]] std::uint64_t entities_allocs() const { return entities_allocs_; }
  [[nodiscard]] int entities_calls() const { return entities_calls_; }

 private:
  SpeDriver* inner_;
  std::uint64_t entities_allocs_ = 0;
  int entities_calls_ = 0;
};

// Allocations one warm MetricProvider::Update makes with Highest Rate
// registered over `queries` 5-operator chains, not counting those inside
// driver->Entities().
std::uint64_t WarmProviderUpdateAllocs(int queries) {
  testing::FakeDriver fake;
  fake.Provide(MetricId::kCost);
  fake.Provide(MetricId::kSelectivity);
  LogicalTopology chain;
  chain.names = {"src", "a", "b", "c", "sink"};
  chain.base_costs = {1000, 1000, 1000, 1000, 1000};
  chain.edges = {{0, 1}, {1, 2}, {2, 3}, {3, 4}};
  for (int q = 0; q < queries; ++q) {
    const QueryId query(static_cast<std::uint64_t>(q));
    fake.SetTopology(query, chain);
    for (int l = 0; l < 5; ++l) {
      const EntityInfo& e = fake.AddEntity(query, {l});
      fake.SetValue(MetricId::kCost, e.id, 1000.0 + 10 * (q + l));
      fake.SetValue(MetricId::kSelectivity, e.id, 0.5 + 0.1 * l);
    }
  }
  EntitiesCountingDriver driver(fake);
  const std::vector<SpeDriver*> drivers = {&driver};
  MetricProvider provider;
  provider.Register(MetricId::kHighestRate);
  provider.Update(drivers, Seconds(1));
  provider.Update(drivers, Seconds(1));

  const std::uint64_t entities_before = driver.entities_allocs();
  const std::uint64_t before = AllocCount();
  provider.Update(drivers, Seconds(1));
  const std::uint64_t total = AllocCount() - before;
  return total - (driver.entities_allocs() - entities_before);
}

TEST(AllocRegressionTest, WarmProviderUpdateAllocsDoNotGrowWithQueries) {
  const std::uint64_t small = WarmProviderUpdateAllocs(10);
  const std::uint64_t large = WarmProviderUpdateAllocs(100);
  EXPECT_EQ(small, large)
      << "a warm provider Update must not allocate per entity or query";
  EXPECT_EQ(large, 0u) << "a warm provider Update must not touch the heap";
}

spe::LogicalQuery ThreeOpQuery(const std::string& name) {
  spe::LogicalQuery q;
  q.name = name;
  const int in = q.Add(spe::MakeIngress("in", Micros(10)));
  const int t = q.Add(spe::MakeTransform("t", Micros(100), [] {
    return std::make_unique<spe::IdentityLogic>();
  }));
  const int out = q.Add(spe::MakeEgress("out", Micros(10)));
  q.Connect(in, t);
  q.Connect(t, out);
  return q;
}

// The sim metric pipeline once every ring is full: the scraper appends and
// the driver reads by series handles resolved during warm-up, so neither
// builds a series name nor grows a ring. (The scrape callback goes through
// std::function, whose small buffer holds two pointers of capture.)
TEST(AllocRegressionTest, ScrapeAndFetchIntoFullRingsAllocateNothing) {
  sim::Simulator sim;
  sim::Machine machine(sim, 2);
  spe::SpeInstance instance(spe::LiebreFlavor(), {&machine}, "spe");
  std::vector<std::unique_ptr<spe::ExternalSource>> sources;
  for (int q = 0; q < 10; ++q) {
    spe::DeployedQuery& query =
        instance.Deploy(ThreeOpQuery("q" + std::to_string(q)), {});
    sources.push_back(std::make_unique<spe::ExternalSource>(
        sim, query.source_channels(),
        [](Rng&, std::uint64_t) { return spe::Tuple{}; }, 3 + q));
    sources.back()->Start(100, Seconds(30));
  }
  // At a 1 s scrape a 3 s retention keeps four samples per series.
  tsdb::TimeSeriesStore store(/*retention=*/Seconds(3));
  tsdb::Scraper scraper(sim, store, Seconds(1));
  scraper.AddInstance(instance);
  SimSpeDriver driver(instance, store, Seconds(1));
  const std::vector<EntityInfo> entities = driver.Entities();
  std::vector<MetricId> provided;
  for (std::size_t m = 0; m < kMetricCount; ++m) {
    const auto metric = static_cast<MetricId>(m);
    if (driver.Provides(metric)) provided.push_back(metric);
  }
  const auto sweep = [&] {
    double sum = 0;
    for (const EntityInfo& e : entities) {
      for (const MetricId metric : provided) sum += driver.Fetch(metric, e);
    }
    return sum;
  };
  // Warm-up: by the fifth scrape every ring holds its four samples and
  // overwrites its oldest from then on, and the sweeps resolve every
  // handle.
  for (int s = 1; s <= 5; ++s) {
    sim.RunUntil(Seconds(s));
    scraper.ScrapeOnce();
    sweep();
  }
  ASSERT_EQ(store.series_count(),
            entities.size() * instance.flavor().exposed_metrics.size());

  std::uint64_t scrape_allocs = 0;
  std::uint64_t fetch_allocs = 0;
  double sum = 0;
  for (int s = 6; s <= 30; ++s) {
    sim.RunUntil(Seconds(s));
    std::uint64_t before = AllocCount();
    scraper.ScrapeOnce();
    scrape_allocs += AllocCount() - before;
    before = AllocCount();
    sum += sweep();
    fetch_allocs += AllocCount() - before;
  }
  EXPECT_EQ(scrape_allocs, 0u) << "a warm scrape must not touch the heap";
  EXPECT_EQ(fetch_allocs, 0u) << "a warm fetch sweep must not touch the heap";
  EXPECT_GT(sum, 0.0);
}

// The provider snapshots a driver's entities when its generation moves,
// and only then; every metric is still read afresh on every Update.
TEST(AllocRegressionTest, ProviderSnapshotsOnceWhileTheGenerationHolds) {
  sim::Simulator sim;
  sim::Machine machine(sim, 2);
  spe::SpeInstance instance(spe::LiebreFlavor(), {&machine}, "spe");
  std::vector<std::unique_ptr<spe::ExternalSource>> sources;
  const auto deploy = [&](int q) {
    spe::DeployedQuery& query =
        instance.Deploy(ThreeOpQuery("q" + std::to_string(q)), {});
    sources.push_back(std::make_unique<spe::ExternalSource>(
        sim, query.source_channels(),
        [](Rng&, std::uint64_t) { return spe::Tuple{}; }, 3 + q));
    sources.back()->Start(100, Seconds(30));
  };
  for (int q = 0; q < 4; ++q) deploy(q);
  tsdb::TimeSeriesStore store;
  tsdb::Scraper scraper(sim, store, Seconds(1));
  scraper.AddInstance(instance);
  SimSpeDriver sim_driver(instance, store, Seconds(1));
  EntitiesCountingDriver driver(sim_driver);
  const std::vector<SpeDriver*> drivers = {&driver};
  MetricProvider provider;
  provider.Register(MetricId::kTuplesInTotal);

  // Each Update's values are the store's latest, read through the driver.
  const auto update_and_check = [&](int s) {
    sim.RunUntil(Seconds(s));
    scraper.ScrapeOnce();
    provider.Update(drivers, Seconds(1));
    double sum = 0;
    for (const EntityInfo& e : provider.EntitiesOf(driver)) {
      const double value = provider.Value(driver, MetricId::kTuplesInTotal, e.id);
      EXPECT_EQ(value, sim_driver.Fetch(MetricId::kTuplesInTotal, e)) << e.path;
      sum += value;
    }
    return sum;
  };
  double last = update_and_check(1);
  for (int s = 2; s <= 8; ++s) {
    const double sum = update_and_check(s);
    EXPECT_GT(sum, last) << "values must track the store at second " << s;
    last = sum;
  }
  EXPECT_EQ(driver.entities_calls(), 1);
  EXPECT_EQ(provider.EntitiesOf(driver).size(), 12u);

  // A mid-run deploy moves the generation: one more snapshot, with the
  // new entities, then none again.
  deploy(4);
  for (int s = 9; s <= 12; ++s) update_and_check(s);
  EXPECT_EQ(driver.entities_calls(), 2);
  EXPECT_EQ(provider.EntitiesOf(driver).size(), 15u);
}

// Leaves the allocations its callee makes out of the count: the simulated
// kernel's and the simulator's bookkeeping are not the control plane's.
class Uncounted {
 public:
  template <typename Fn>
  void Run(Fn&& fn) {
    const std::uint64_t before = AllocCount();
    fn();
    allocs_ += AllocCount() - before;
  }
  [[nodiscard]] std::uint64_t allocs() const { return allocs_; }

 private:
  std::uint64_t allocs_ = 0;
};

// Forwards every op to the simulated backend, outside the count.
class UncountedOsAdapter final : public OsAdapter {
 public:
  UncountedOsAdapter(OsAdapter& inner, Uncounted& uncounted)
      : inner_(&inner), uncounted_(&uncounted) {}

  void SetNice(const ThreadHandle& thread, int nice) override {
    uncounted_->Run([&] { inner_->SetNice(thread, nice); });
  }
  void SetGroupShares(const std::string& group, std::uint64_t shares) override {
    uncounted_->Run([&] { inner_->SetGroupShares(group, shares); });
  }
  void MoveToGroup(const ThreadHandle& thread, const std::string& group) override {
    uncounted_->Run([&] { inner_->MoveToGroup(thread, group); });
  }
  void SetRtPriority(const ThreadHandle& thread, int rt_priority) override {
    uncounted_->Run([&] { inner_->SetRtPriority(thread, rt_priority); });
  }
  void SetGroupQuota(const std::string& group, SimDuration quota,
                     SimDuration period) override {
    uncounted_->Run([&] { inner_->SetGroupQuota(group, quota, period); });
  }
  void SetDeadline(const ThreadHandle& thread, SimDuration runtime,
                   SimDuration deadline, SimDuration period) override {
    uncounted_->Run(
        [&] { inner_->SetDeadline(thread, runtime, deadline, period); });
  }
  void SetCpuAffinity(const ThreadHandle& thread, CpuPreference pref) override {
    uncounted_->Run([&] { inner_->SetCpuAffinity(thread, pref); });
  }

 private:
  OsAdapter* inner_;
  Uncounted* uncounted_;
};

// Counts the allocations of each control callback (one runner tick), less
// those made uncounted inside it -- scheduling the next tick among them.
class CountingExecutor final : public ControlExecutor {
 public:
  CountingExecutor(ControlExecutor& inner, Uncounted& uncounted)
      : inner_(&inner), uncounted_(&uncounted) {
    tick_allocs_.reserve(256);
  }

  [[nodiscard]] SimTime Now() const override { return inner_->Now(); }
  void CallAt(SimTime time, std::function<void()> fn) override {
    uncounted_->Run([&] {
      inner_->CallAt(time, [this, fn = std::move(fn)] {
        const std::uint64_t before = AllocCount();
        const std::uint64_t uncounted_before = uncounted_->allocs();
        fn();
        const std::uint64_t allocs = AllocCount() - before;
        tick_allocs_.push_back(allocs - (uncounted_->allocs() - uncounted_before));
      });
    });
  }

  [[nodiscard]] const std::vector<std::uint64_t>& tick_allocs() const {
    return tick_allocs_;
  }

 private:
  ControlExecutor* inner_;
  Uncounted* uncounted_;
  std::vector<std::uint64_t> tick_allocs_;
};

struct TickAllocs {
  std::vector<std::uint64_t> per_tick;  // warm ticks only
  std::uint64_t forwarded = 0;          // ops applied in those ticks
};

// The full control loop -- scraper -> store -> SimSpeDriver -> provider ->
// Highest Rate -> cpu.shares -> delta layer (health and recorder on) ->
// SimOsAdapter -- over `queries` 5-operator SYN queries on a simulated
// Liebre machine; the allocations of each warm tick, outside the backend.
TickAllocs WarmTickAllocs(int queries) {
  constexpr SimTime kEnd = Seconds(25);
  sim::Simulator sim;
  sim::Machine machine(sim, 4);
  spe::SpeInstance instance(spe::LiebreFlavor(), {&machine}, "liebre");
  queries::SyntheticConfig config;
  config.num_queries = queries;
  const std::vector<queries::Workload> workloads =
      queries::MakeSynthetic(config);
  std::vector<std::unique_ptr<spe::ExternalSource>> sources;
  for (std::size_t i = 0; i < workloads.size(); ++i) {
    spe::DeployOptions deploy;
    deploy.seed = 7919 + i * 131;
    spe::DeployedQuery& query = instance.Deploy(workloads[i].query, deploy);
    sources.push_back(std::make_unique<spe::ExternalSource>(
        sim, query.source_channels(), workloads[i].generator, 104729 + i * 17));
    sources.back()->Start(20.0, kEnd);
  }
  tsdb::TimeSeriesStore store;
  tsdb::Scraper scraper(sim, store, Seconds(1));
  scraper.AddInstance(instance);
  scraper.Start(kEnd);

  SimSpeDriver driver(instance, store, Seconds(1));
  Uncounted backend;
  SimOsAdapter sim_os;
  UncountedOsAdapter os(sim_os, backend);
  SimControlExecutor sim_executor(sim);
  CountingExecutor executor(sim_executor, backend);
  LachesisRunner runner(executor, os, /*seed=*/4);
  PolicyBinding binding;
  binding.policy = std::make_unique<HighestRatePolicy>();
  binding.translator = std::make_unique<CpuSharesTranslator>();
  binding.period = Seconds(1);
  binding.drivers = {&driver};
  runner.AddQuery(std::move(binding));
  runner.Start(kEnd);

  // Warm-up: the first ticks name every target and grow every table.
  sim.RunUntil(Seconds(5));
  const std::size_t warm = executor.tick_allocs().size();
  const std::uint64_t applied = runner.delta_totals().applied;
  sim.RunUntil(kEnd);
  TickAllocs result;
  result.per_tick.assign(executor.tick_allocs().begin() +
                             static_cast<std::ptrdiff_t>(warm),
                         executor.tick_allocs().end());
  result.forwarded = runner.delta_totals().applied - applied;
  return result;
}

TEST(AllocRegressionTest, WarmRunnerTickAllocsDoNotGrowWithEntities) {
  const TickAllocs small = WarmTickAllocs(10);   // 50 entities
  const TickAllocs large = WarmTickAllocs(100);  // 500 entities
  ASSERT_FALSE(small.per_tick.empty());
  ASSERT_EQ(small.per_tick.size(), large.per_tick.size());
  // The simulator and scraper moved the schedule between ticks: shares
  // were forwarded, not only elided.
  EXPECT_GT(small.forwarded, 0u);
  EXPECT_GT(large.forwarded, small.forwarded);
  EXPECT_EQ(small.per_tick, large.per_tick)
      << "a warm tick must not allocate per entity; first tick at 50: "
      << small.per_tick.front() << ", at 500: " << large.per_tick.front();
}

// A 5-operator SYN query on a 4-core machine, fed by an external source:
// after a warm-up in which the rings grow to their high water, a further
// 20 simulated seconds (thousands of pushes, pops, waits and wakes)
// allocate nothing.
TEST(AllocRegressionTest, WarmSpePipelineAllocatesNothing) {
  constexpr SimTime kEnd = Seconds(30);
  sim::Simulator sim;
  sim::Machine machine(sim, 4);
  spe::SpeInstance instance(spe::LiebreFlavor(), {&machine}, "liebre");
  queries::SyntheticConfig config;
  config.num_queries = 1;
  const std::vector<queries::Workload> workloads =
      queries::MakeSynthetic(config);
  spe::DeployOptions deploy;
  deploy.reservoirs = spe::LatencyReservoirs::kNone;
  spe::DeployedQuery& query = instance.Deploy(workloads[0].query, deploy);
  spe::ExternalSource source(sim, query.source_channels(),
                             workloads[0].generator, /*seed=*/17);
  source.Start(400.0, kEnd);

  sim.RunUntil(Seconds(10));
  const std::uint64_t egressed = query.Egresses().front()->tuples;
  const std::uint64_t before = AllocCount();
  sim.RunUntil(kEnd);
  const std::uint64_t allocs = AllocCount() - before;
  EXPECT_GT(query.Egresses().front()->tuples - egressed, 5000u);
  EXPECT_EQ(allocs, 0u) << "a warm pipeline must not touch the heap";
}

// An unkept latency reservoir grows no chunk: 150,000 Records (past the
// reservoir cap) allocate nothing when no reservoir is kept, and when only
// the end-to-end one is, exactly as often as a lone store fed the same
// end-to-end samples.
TEST(EgressAllocTest, RecordAllocatesOnlyForKeptReservoirs) {
  constexpr std::size_t kTuples = 150'000;
  constexpr std::size_t kCap = spe::EgressMeasurements::kMaxSamples;
  const auto latency_of = [](std::size_t i) {
    return static_cast<SimDuration>(i % 9973) * 1000;
  };
  const auto e2e_of = [](std::size_t i) {
    return static_cast<SimDuration>(i % 7919) * 3000;
  };
  const auto record_allocs = [&](spe::LatencyReservoirs reservoirs) {
    spe::EgressMeasurements egress(/*seed=*/5, reservoirs);
    const std::uint64_t before = AllocCount();
    for (std::size_t i = 0; i < kTuples; ++i) {
      egress.Record(latency_of(i), e2e_of(i));
    }
    const std::uint64_t allocs = AllocCount() - before;
    EXPECT_EQ(egress.tuples, kTuples);
    return allocs;
  };

  EXPECT_EQ(record_allocs(spe::LatencyReservoirs::kNone), 0u)
      << "an egress that keeps no reservoir must not touch the heap";

  // Past the cap a narrow store only overwrites, so the slots it takes
  // there do not change its allocations.
  spe::LatencySamples lone;
  const std::uint64_t before = AllocCount();
  for (std::size_t i = 0; i < kTuples; ++i) {
    if (i < kCap) {
      lone.Append(e2e_of(i));
    } else {
      lone.Set(i % kCap, e2e_of(i));
    }
  }
  const std::uint64_t lone_allocs = AllocCount() - before;
  ASSERT_GT(lone_allocs, 0u);
  EXPECT_EQ(record_allocs(spe::LatencyReservoirs::kEndToEnd), lone_allocs);
}

}  // namespace
}  // namespace lachesis::core
