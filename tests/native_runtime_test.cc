// Native SPE executor: thread-per-operator runtime, deployment surface
// validation, metric registry parity, and the NativeRuntimeDriver that
// plugs it into the control plane. The final tests are the end-to-end
// contract of this layer: lachesisd's DaemonStack runs a LachesisRunner on
// the native control executor that schedules the executor's real kernel
// threads through an OsAdapter.
#include "spe/native_runtime.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <set>
#include <stdexcept>
#include <vector>

#ifdef __linux__
#include <sys/prctl.h>
#endif

#include "core/os_adapter.h"
#include "osctl/daemon_config.h"
#include "osctl/daemon_stack.h"
#include "osctl/native_runtime_driver.h"

namespace lachesis {
namespace {

// Linear chain helper; first op ingress, last egress.
spe::LogicalQuery Chain(const std::string& name,
                        const std::vector<long>& costs_us) {
  spe::LogicalQuery query;
  query.name = name;
  int prev = -1;
  for (std::size_t i = 0; i < costs_us.size(); ++i) {
    spe::LogicalOperator op;
    op.name = name + ".op" + std::to_string(i);
    op.role = i == 0                        ? spe::OperatorRole::kIngress
              : i + 1 == costs_us.size()    ? spe::OperatorRole::kEgress
                                            : spe::OperatorRole::kTransform;
    op.cost = Micros(costs_us[i]);
    op.cost_jitter = 0;
    const int index = query.Add(std::move(op));
    if (prev >= 0) query.Connect(prev, index);
    prev = index;
  }
  return query;
}

// Deploy options for an exact-count run: emit `n` tuples as fast as the
// chain absorbs them, then drain.
spe::NativeDeployOptions ExactCount(std::uint64_t n) {
  spe::NativeDeployOptions deploy;
  deploy.source_rate_tps = 1e9;
  deploy.max_tuples = n;
  return deploy;
}

// Stop(drain) halts the sources, so exact-count tests first wait for the
// batch to flow through (bounded by the gtest/ctest timeout).
template <typename Pred>
void WaitUntil(Pred done) {
  while (!done()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
}

TEST(NativeRuntimeTest, ChainDeliversEveryTuple) {
  spe::NativeRuntime runtime;
  runtime.AddQuery(Chain("q", {0, 0, 0}), ExactCount(5000));
  runtime.Start();
  WaitUntil([&] { return runtime.TotalEmitted(0) >= 5000; });
  runtime.Stop(/*drain=*/true);
  EXPECT_EQ(runtime.SourceEmitted(0), 5000u);
  EXPECT_EQ(runtime.TotalIngested(0), 5000u);
  EXPECT_EQ(runtime.TotalEmitted(0), 5000u);
}

TEST(NativeRuntimeTest, SelectivityFilterHalvesTheStream) {
  spe::LogicalQuery query;
  query.name = "filter";
  const int in = query.Add(spe::MakeIngress("in", 0));
  const int filter = query.Add(spe::MakeTransform("filter", 0, [] {
    return std::make_unique<spe::FnLogic>(
        [](const spe::Tuple& t, std::vector<spe::Tuple>& out) {
          if (t.key % 2 == 0) out.push_back(t);
        });
  }));
  const int sink = query.Add(spe::MakeEgress("out", 0));
  query.Connect(in, filter);
  query.Connect(filter, sink);

  spe::NativeRuntime runtime;
  runtime.AddQuery(query, ExactCount(10000));
  runtime.Start();
  WaitUntil([&] { return runtime.TotalEmitted(0) >= 5000; });
  runtime.Stop(/*drain=*/true);
  // Source keys are sequential, so exactly half are even.
  EXPECT_EQ(runtime.TotalIngested(0), 10000u);
  EXPECT_EQ(runtime.TotalEmitted(0), 5000u);
  const spe::NativeOperator* filter_op = nullptr;
  for (const auto& op : runtime.ops()) {
    if (op->name() == "filter") filter_op = op.get();
  }
  ASSERT_NE(filter_op, nullptr);
  EXPECT_DOUBLE_EQ(filter_op->MeasuredSelectivity(), 0.5);
}

TEST(NativeRuntimeTest, FanOutDuplicatesToEveryDownstream) {
  spe::LogicalQuery query;
  query.name = "fanout";
  const int in = query.Add(spe::MakeIngress("in", 0));
  const int left = query.Add(spe::MakeEgress("left", 0));
  const int right = query.Add(spe::MakeEgress("right", 0));
  query.Connect(in, left);
  query.Connect(in, right);

  spe::NativeRuntime runtime;
  runtime.AddQuery(query, ExactCount(3000));
  runtime.Start();
  WaitUntil([&] { return runtime.TotalEmitted(0) >= 6000; });
  runtime.Stop(/*drain=*/true);
  EXPECT_EQ(runtime.TotalIngested(0), 3000u);
  // Both egresses got the full stream.
  EXPECT_EQ(runtime.TotalEmitted(0), 6000u);
}

TEST(NativeRuntimeTest, SurfaceValidationRejectsOutOfContractTopologies) {
  spe::NativeRuntime runtime;
  // Empty query.
  EXPECT_THROW(runtime.AddQuery(spe::LogicalQuery{}, {}),
               std::invalid_argument);
  // Fan-in: two upstreams would make the ring multi-producer.
  {
    spe::LogicalQuery query;
    query.name = "fanin";
    const int a = query.Add(spe::MakeIngress("a", 0));
    const int b = query.Add(spe::MakeIngress("b", 0));
    const int join = query.Add(spe::MakeEgress("join", 0));
    query.Connect(a, join);
    query.Connect(b, join);
    EXPECT_THROW(runtime.AddQuery(query, {}), std::invalid_argument);
  }
  // Non-ingress with no upstream.
  {
    spe::LogicalQuery query;
    query.name = "orphan";
    query.Add(spe::MakeIngress("in", 0));
    query.Add(spe::MakeEgress("island", 0));
    EXPECT_THROW(runtime.AddQuery(query, {}), std::invalid_argument);
  }
  // No ingress at all.
  {
    spe::LogicalQuery query;
    query.name = "headless";
    const int a = query.Add(spe::MakeTransform("a", 0, nullptr));
    const int b = query.Add(spe::MakeEgress("b", 0));
    query.Connect(a, b);
    EXPECT_THROW(runtime.AddQuery(query, {}), std::invalid_argument);
  }
}

TEST(NativeRuntimeTest, ThreadsRegisterDistinctKernelTids) {
  spe::NativeRuntime runtime;
  runtime.AddQuery(Chain("q", {0, 0, 0}), ExactCount(100));
  runtime.Start();
  std::set<long> tids;
  for (const auto& op : runtime.ops()) {
    EXPECT_GT(op->tid(), 0);
    tids.insert(op->tid());
  }
  for (const auto& source : runtime.sources()) {
    EXPECT_GT(source->tid(), 0);
    tids.insert(source->tid());
  }
  // One kernel thread per operator plus one per source, all distinct.
  EXPECT_EQ(tids.size(), runtime.ops().size() + runtime.sources().size());
  runtime.Stop(/*drain=*/true);
}

TEST(NativeRuntimeTest, BackpressureIsBoundedAndRecordsHighWater) {
  // A slow egress behind a fast source: the intermediate ring must cap at
  // its capacity (bounded Flink-style backpressure) and the consumer-side
  // high-water mark must record the collapse.
  spe::LogicalQuery query;
  query.name = "slow";
  const int in = query.Add(spe::MakeIngress("in", 0));
  const int sink = query.Add(spe::MakeEgress("out", Micros(100)));
  query.Connect(in, sink);

  spe::NativeDeployOptions deploy = ExactCount(2000);
  deploy.queue_capacity = 16;
  deploy.source_channel_capacity = 16;
  spe::NativeRuntime runtime;
  runtime.AddQuery(query, deploy);
  runtime.Start();
  WaitUntil([&] { return runtime.TotalEmitted(0) >= 2000; });
  runtime.Stop(/*drain=*/true);
  EXPECT_EQ(runtime.TotalEmitted(0), 2000u);
  const spe::NativeOperator& egress = *runtime.ops()[1];
  EXPECT_LE(egress.input().high_water(), egress.input().capacity());
  // 2000 tuples through a 16-slot ring with a 100us consumer: the ring
  // must have filled at least once.
  EXPECT_EQ(egress.input().high_water(), egress.input().capacity());
}

TEST(NativeRuntimeTest, MetricRegistryExposesTheSameSurfaceShape) {
  spe::NativeRuntime runtime;
  runtime.AddQuery(Chain("q", {0, 5, 0}), ExactCount(1000));
  runtime.Start();
  WaitUntil([&] { return runtime.TotalEmitted(0) >= 1000; });
  runtime.Stop(/*drain=*/true);

  const auto& exposed = spe::NativeRuntime::ExposedMetrics();
  EXPECT_TRUE(exposed.count(spe::RawMetric::kTuplesIn));
  EXPECT_TRUE(exposed.count(spe::RawMetric::kQueueSize));
  EXPECT_TRUE(exposed.count(spe::RawMetric::kQueueHighWater));

  std::size_t samples = 0;
  double egress_tuples_in = -1;
  double transform_cost_ns = -1;
  runtime.ForEachRawMetric([&](const spe::NativeOperator& op,
                               spe::RawMetric metric, double value) {
    ++samples;
    EXPECT_TRUE(exposed.count(metric)) << "unexposed metric emitted";
    if (op.role() == spe::OperatorRole::kEgress &&
        metric == spe::RawMetric::kTuplesIn) {
      egress_tuples_in = value;
    }
    if (op.name() == "q.op1" && metric == spe::RawMetric::kCost) {
      transform_cost_ns = value;
    }
  });
  EXPECT_EQ(samples, runtime.ops().size() * exposed.size());
  EXPECT_DOUBLE_EQ(egress_tuples_in, 1000.0);
  // Measured per-tuple cost of the 5us transform must at least cover the
  // emulated spin (jitter disabled in Chain()).
  EXPECT_GE(transform_cost_ns, 5000.0);
}

// A source whose period exceeds the default timer slack sleeps with 1 ns
// of slack, so its wake-ups land on the due time; a faster one keeps the
// default, which batches several due tuples into one wake-up.
TEST(NativeRuntimeTest, SourceDropsTimerSlackOnlyWhenSlowerThanIt) {
#ifndef __linux__
  GTEST_SKIP() << "timer slack is a Linux prctl";
#else
  const long inherited = prctl(PR_GET_TIMERSLACK, 0, 0, 0, 0);
  if (inherited <= 10000 || inherited >= 500000) {
    GTEST_SKIP() << "timer slack " << inherited
                 << " ns does not lie between the two source periods";
  }
  spe::NativeDeployOptions slow;
  slow.source_rate_tps = 2000;  // 500 us period
  spe::NativeDeployOptions fast;
  fast.source_rate_tps = 100000;  // 10 us period
  spe::NativeRuntime runtime;
  runtime.AddQuery(Chain("slow", {0}), slow);
  runtime.AddQuery(Chain("fast", {0}), fast);
  EXPECT_EQ(runtime.sources()[0]->timer_slack_ns(), -1);
  runtime.Start();
  EXPECT_EQ(runtime.sources()[0]->timer_slack_ns(), 1);
  EXPECT_EQ(runtime.sources()[1]->timer_slack_ns(), inherited);
  runtime.Stop(/*drain=*/false);
#endif
}

// A source sleeps at most 1 ms at a time, so even at 1 tuple/s it notices
// Stop() long before its next tuple falls due.
TEST(NativeRuntimeTest, SlowSourceLeavesStopPromptly) {
  spe::NativeDeployOptions deploy;
  deploy.source_rate_tps = 1;
  spe::NativeRuntime runtime;
  runtime.AddQuery(Chain("idle", {0, 0}), deploy);
  runtime.Start();
  WaitUntil([&] { return runtime.TotalEmitted(0) >= 1; });
  const auto start = std::chrono::steady_clock::now();
  runtime.Stop(/*drain=*/true);
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(500));
}

TEST(NativeRuntimeDriverTest, PollScrapesAndFetchServesDeltas) {
  spe::NativeRuntime runtime;
  runtime.AddQuery(Chain("q", {0, 0}), ExactCount(4000));
  runtime.Start();
  WaitUntil([&] { return runtime.TotalEmitted(0) >= 4000; });
  runtime.Stop(/*drain=*/true);

  osctl::NativeRuntimeDriver driver(runtime, /*delta_window=*/Seconds(10));
  driver.Poll(Seconds(1));
  driver.Poll(Seconds(2));

  const auto entities = driver.Entities();
  ASSERT_EQ(entities.size(), 2u);
  EXPECT_TRUE(entities[0].is_ingress);
  EXPECT_TRUE(entities[1].is_egress);
  EXPECT_EQ(entities[0].path, "q.q.op0");
  EXPECT_GT(entities[0].thread.os_tid, 0);
  EXPECT_NE(entities[0].thread.os_tid, entities[1].thread.os_tid);

  EXPECT_TRUE(driver.Provides(core::MetricId::kQueueSize));
  EXPECT_TRUE(driver.Provides(core::MetricId::kTuplesInDelta));
  EXPECT_TRUE(driver.Provides(core::MetricId::kQueueHighWater));
  EXPECT_FALSE(driver.Provides(core::MetricId::kCpuPressure));

  // Totals come from the latest scrape; the delta between the two polls is
  // zero because the runtime had already stopped.
  EXPECT_DOUBLE_EQ(
      driver.Fetch(core::MetricId::kTuplesInTotal, entities[0]), 4000.0);
  EXPECT_DOUBLE_EQ(
      driver.Fetch(core::MetricId::kTuplesInDelta, entities[0]), 0.0);
  EXPECT_DOUBLE_EQ(
      driver.Fetch(core::MetricId::kBufferCapacity, entities[1]),
      static_cast<double>(runtime.ops()[1]->input().capacity()));

  const auto& topo = driver.Topology(QueryId(0));
  ASSERT_EQ(topo.names.size(), 2u);
  EXPECT_EQ(topo.ingress_indices, std::vector<int>{0});
  EXPECT_EQ(topo.egress_indices, std::vector<int>{1});
}

// The driver's store keeps one delta window of history per series.
TEST(NativeRuntimeDriverTest, StoreRetentionIsTheDeltaWindow) {
  spe::NativeRuntime runtime;
  runtime.AddQuery(Chain("q", {0, 0}), ExactCount(10));
  EXPECT_EQ(osctl::NativeRuntimeDriver(runtime).store().retention(),
            tsdb::kDeltaWindow);
  EXPECT_EQ(
      osctl::NativeRuntimeDriver(runtime, Seconds(10)).store().retention(),
      Seconds(10));
  EXPECT_THROW(osctl::NativeRuntimeDriver(runtime, 0), std::invalid_argument);
}

TEST(NativeRuntimeDriverTest, EntitiesGenerationMovesWithOperatorsAndTids) {
  spe::NativeRuntime runtime;
  runtime.AddQuery(Chain("a", {0, 0}), ExactCount(100));
  osctl::NativeRuntimeDriver driver(runtime);
  const std::uint64_t deployed = driver.EntitiesGeneration();
  EXPECT_NE(deployed, 0u);
  EXPECT_EQ(driver.EntitiesGeneration(), deployed);
  runtime.AddQuery(Chain("b", {0, 0}), ExactCount(100));
  const std::uint64_t added = driver.EntitiesGeneration();
  EXPECT_NE(added, deployed);
  // Start returns once every operator thread has registered its tid.
  runtime.Start();
  const std::uint64_t started = driver.EntitiesGeneration();
  EXPECT_NE(started, added);
  EXPECT_EQ(driver.EntitiesGeneration(), started);
  for (const core::EntityInfo& e : driver.Entities()) {
    EXPECT_GT(e.thread.os_tid, 0) << e.path;
  }
  WaitUntil([&] {
    return runtime.TotalEmitted(0) >= 100 && runtime.TotalEmitted(1) >= 100;
  });
  runtime.Stop(/*drain=*/true);
}

// Poll interns each operator's series on first sight and appends by
// handle; Fetch resolves its own handles on first read. Both must land on
// the series the registry reports under "<query>.<op>.<suffix>".
TEST(NativeRuntimeDriverTest, PollThenFetchReadsWhatTheRegistryReports) {
  spe::NativeRuntime runtime;
  runtime.AddQuery(Chain("a", {0, 5, 0}), ExactCount(800));
  runtime.AddQuery(Chain("b", {0, 0}), ExactCount(300));
  runtime.Start();
  WaitUntil([&] {
    return runtime.TotalEmitted(0) >= 800 && runtime.TotalEmitted(1) >= 300;
  });
  runtime.Stop(/*drain=*/true);

  osctl::NativeRuntimeDriver driver(runtime);
  const auto entities = driver.Entities();
  ASSERT_EQ(entities.size(), runtime.ops().size());
  // No series exists before the first Poll: reads are 0, and the misses
  // are not cached.
  for (const core::EntityInfo& e : entities) {
    EXPECT_EQ(driver.Fetch(core::MetricId::kTuplesInTotal, e), 0.0) << e.path;
  }
  driver.Poll(Seconds(1));

  // Raw metrics the table serves as the latest sample, unscaled.
  const std::map<spe::RawMetric, core::MetricId> kLatest = {
      {spe::RawMetric::kTuplesIn, core::MetricId::kTuplesInTotal},
      {spe::RawMetric::kTuplesOut, core::MetricId::kTuplesOutTotal},
      {spe::RawMetric::kQueueSize, core::MetricId::kQueueSize},
      {spe::RawMetric::kBufferUsage, core::MetricId::kBufferUsage},
      {spe::RawMetric::kBufferCapacity, core::MetricId::kBufferCapacity},
      {spe::RawMetric::kCost, core::MetricId::kCost},
      {spe::RawMetric::kSelectivity, core::MetricId::kSelectivity},
      {spe::RawMetric::kQueueHighWater, core::MetricId::kQueueHighWater},
  };
  std::size_t reported = 0;
  std::size_t fetched = 0;
  runtime.ForEachRawMetric([&](const spe::NativeOperator& op,
                               spe::RawMetric raw, double value) {
    ++reported;
    std::size_t index = 0;
    while (runtime.ops()[index].get() != &op) ++index;
    const core::EntityInfo& e = entities[index];
    const auto stored = driver.store().Latest(tsdb::SeriesName(e.path, raw));
    const std::string what = e.path + " " + tsdb::RawMetricName(raw);
    ASSERT_TRUE(stored.has_value()) << what;
    EXPECT_EQ(stored->value, value) << what;
    EXPECT_EQ(stored->time, Seconds(1));
    const auto metric = kLatest.find(raw);
    if (metric == kLatest.end()) return;
    ++fetched;
    EXPECT_EQ(driver.Fetch(metric->second, e), value)
        << e.path << " " << core::MetricName(metric->second);
  });
  EXPECT_EQ(driver.store().series_count(), reported);
  EXPECT_EQ(fetched, entities.size() * kLatest.size());
}

// Records every nice decision with the tid it landed on.
class RecordingOsAdapter final : public core::OsAdapter {
 public:
  void SetNice(const core::ThreadHandle& thread, int nice) override {
    set_nice.emplace_back(thread.os_tid, nice);
  }
  void SetGroupShares(const std::string&, std::uint64_t) override {}
  void MoveToGroup(const core::ThreadHandle&, const std::string&) override {}
  std::vector<std::pair<long, int>> set_nice;
};

// The tentpole contract, through lachesisd's own wiring: a DaemonStack
// built from config text runs LachesisRunner -- unchanged -- over the native
// executor's real threads. The driver's entities carry kernel tids, the
// policy ranks operators from live-scraped metrics, and the translator's
// nice decisions reach the adapter addressed to those tids.
TEST(NativeRuntimeDriverTest, RunnerSchedulesLiveExecutorThreads) {
  RecordingOsAdapter os;
  osctl::DaemonStack stack(osctl::ParseDaemonConfig(R"(
[lachesis]
period_ms = 50
[native-query served]
rate_tps = 20000
operators = in:0 mid:10 out:0
)"),
                           &os);
  stack.Run(/*periods=*/8);
  stack.Stop();

  EXPECT_GT(stack.runner().schedules_applied(), 0u);
  ASSERT_FALSE(os.set_nice.empty());
  std::set<long> executor_tids;
  for (const auto& op : stack.runtime()->ops()) {
    executor_tids.insert(op->tid());
  }
  std::set<long> niced_tids;
  for (const auto& [tid, nice] : os.set_nice) niced_tids.insert(tid);
  // Every nice decision landed on a real executor thread, and every
  // operator thread received one.
  for (const long tid : niced_tids) {
    EXPECT_TRUE(executor_tids.count(tid)) << "niced unknown tid " << tid;
  }
  EXPECT_EQ(niced_tids, executor_tids);
  // And traffic actually flowed while being scheduled, through the
  // registry -> scrape -> store path too.
  EXPECT_GT(stack.runtime()->TotalEmitted(0), 0u);
  const std::vector<osctl::NativeQueryTotals> totals = stack.NativeTotals();
  ASSERT_EQ(totals.size(), 1u);
  EXPECT_GT(totals[0].scraped_tps, 0);
}

// The native smoke's two-chain soak (ci/run_native_smoke.sh step 3) for
// about a second: every query ingested tuples, and the ingress throughput
// read back from the driver's store is positive for each.
TEST(DaemonStackTest, SmokeTwoChainConfigCarriesTrafficThroughTheStore) {
  RecordingOsAdapter os;
  osctl::DaemonStack stack(osctl::ParseDaemonConfig(R"(
[lachesis]
period_ms = 250
[native-query light]
rate_tps = 1000
operators = in:5 filter:20 out:5
[native-query heavy]
rate_tps = 500
operators = in:5 work:200 out:5
)"),
                           &os);
  stack.Run(/*periods=*/4);
  stack.Stop();

  const std::vector<osctl::NativeQueryTotals> totals = stack.NativeTotals();
  ASSERT_EQ(totals.size(), 2u);
  EXPECT_EQ(totals[0].name, "light");
  EXPECT_EQ(totals[1].name, "heavy");
  for (const osctl::NativeQueryTotals& query : totals) {
    EXPECT_GT(query.ingested, 0u) << query.name;
    EXPECT_GT(query.scraped_tps, 0) << query.name;
  }
}

}  // namespace
}  // namespace lachesis
