// Pins how the three drivers that read one raw-metric table (SimSpeDriver
// over the Storm, Flink and Liebre flavors, NativeRuntimeDriver over the
// native executor, and NativeSpeDriver over an engine's graphite file) map
// an engine's raw metrics onto Lachesis metrics -- the per-engine
// resolution of the paper's Fig 4. Every cell of Provides() is listed
// literally, every fetched value is checked against an independent read of
// the store series it must come from, spelled out as a string
// ("<path>.cost_ns"), and the two native drivers must read one runtime
// alike.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <iterator>
#include <memory>
#include <set>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "core/sim_driver.h"
#include "osctl/native_driver.h"
#include "osctl/native_runtime_driver.h"
#include "sim/simulator.h"
#include "spe/native_runtime.h"
#include "spe/source.h"
#include "tsdb/scraper.h"

namespace lachesis {
namespace {

using core::MetricId;

struct ProvidesRow {
  MetricId metric;
  bool storm;
  bool flink;
  bool liebre;
  bool native;
};

// One row per MetricId, in enum order.
constexpr ProvidesRow kProvides[] = {
    // metric                        storm  flink  liebre native
    {MetricId::kTuplesInTotal,       true,  true,  true,  true},
    {MetricId::kTuplesOutTotal,      true,  true,  true,  true},
    {MetricId::kTuplesInDelta,       true,  true,  true,  true},
    {MetricId::kTuplesOutDelta,      true,  true,  true,  true},
    {MetricId::kBusyDeltaNs,         false, true,  false, true},
    {MetricId::kBufferUsage,         false, true,  false, true},
    {MetricId::kBufferCapacity,      false, true,  false, true},
    {MetricId::kQueueSize,           true,  false, true,  true},
    {MetricId::kCost,                true,  false, true,  true},
    {MetricId::kSelectivity,         false, false, true,  true},
    {MetricId::kInputRate,           false, false, false, false},
    {MetricId::kHeadTupleAge,        false, false, true,  false},
    {MetricId::kHighestRate,         false, false, false, false},
    {MetricId::kCpuPressure,         true,  true,  true,  false},
    {MetricId::kQueueHighWater,      true,  false, true,  true},
};
static_assert(std::size(kProvides) == core::kMetricCount);

// The store series each fetched metric reads, "<entity path>.<suffix>": the
// latest sample, or the counter delta over the driver's window clamped at
// 0. Cost is listed per engine (Storm has no direct cost).
struct SeriesRow {
  MetricId metric;
  const char* suffix;
  bool delta;
};

constexpr SeriesRow kSeries[] = {
    {MetricId::kTuplesInTotal, "tuples_in", false},
    {MetricId::kTuplesOutTotal, "tuples_out", false},
    {MetricId::kTuplesInDelta, "tuples_in", true},
    {MetricId::kTuplesOutDelta, "tuples_out", true},
    {MetricId::kBusyDeltaNs, "busy_time_ns", true},
    {MetricId::kBufferUsage, "buffer_usage", false},
    {MetricId::kBufferCapacity, "buffer_capacity", false},
    {MetricId::kQueueSize, "queue_size", false},
    {MetricId::kSelectivity, "selectivity", false},
    {MetricId::kHeadTupleAge, "head_tuple_age_ns", false},
    {MetricId::kQueueHighWater, "queue_high_water", false},
};

// How an engine serves kCost: the latest "<path>.<suffix>" times `scale`.
struct CostSeries {
  const char* suffix;
  double scale;
};

double ReadSeries(const tsdb::TimeSeriesStore& store, const std::string& series,
                  bool delta, SimDuration window) {
  if (delta) {
    const auto d = store.Delta(series, window);
    return d ? std::max(*d, 0.0) : 0.0;
  }
  const auto sample = store.Latest(series);
  return sample ? sample->value : 0.0;
}

// Checks every provided store-backed metric of every entity against the
// literal series read; returns how many fetched values were non-zero.
int ExpectFetchReadsLiteralSeries(core::SpeDriver& driver,
                                  const tsdb::TimeSeriesStore& store,
                                  CostSeries cost, SimDuration window) {
  int nonzero = 0;
  for (const core::EntityInfo& e : driver.Entities()) {
    const auto check = [&](MetricId metric, double expected) {
      const double fetched = driver.Fetch(metric, e);
      EXPECT_EQ(fetched, expected)
          << driver.name() << " " << core::MetricName(metric) << " of "
          << e.path;
      nonzero += fetched != 0.0;
    };
    for (const SeriesRow& row : kSeries) {
      if (!driver.Provides(row.metric)) continue;
      check(row.metric,
            ReadSeries(store, e.path + "." + row.suffix, row.delta, window));
    }
    if (driver.Provides(MetricId::kCost)) {
      check(MetricId::kCost,
            ReadSeries(store, e.path + "." + cost.suffix, false, window) *
                cost.scale);
    }
  }
  return nonzero;
}

spe::LogicalQuery TinyQuery(SimDuration transform_cost) {
  spe::LogicalQuery q;
  q.name = "tiny";
  const int in = q.Add(spe::MakeIngress("in", Micros(10)));
  const int t = q.Add(spe::MakeTransform("t", transform_cost, [] {
    return std::make_unique<spe::IdentityLogic>();
  }));
  const int out = q.Add(spe::MakeEgress("out", Micros(10)));
  q.Connect(in, t);
  q.Connect(t, out);
  return q;
}

// A simulated engine that has run 3.5 s under load with a 1 s scrape.
struct SimRig {
  sim::Simulator sim;
  sim::Machine machine{sim, 2};
  spe::SpeInstance instance;
  tsdb::TimeSeriesStore store;
  tsdb::Scraper scraper{sim, store, Seconds(1)};
  spe::ExternalSource source;

  explicit SimRig(spe::SpeFlavor flavor)
      : instance(std::move(flavor), {&machine}, "spe"),
        source(sim, instance.Deploy(TinyQuery(Micros(100)), {})
                        .source_channels(),
               [](Rng&, std::uint64_t) { return spe::Tuple{}; }, 3) {
    scraper.AddInstance(instance);
    source.Start(3000, Seconds(4));
    scraper.Start(Seconds(4));
    sim.RunUntil(Seconds(3) + Millis(500));
  }
};

// A file driver whose exporter publishes `exposed`.
osctl::NativeSpeDriver FileDriver(const std::set<spe::RawMetric>& exposed) {
  osctl::NativeSpeConfig config;
  config.provided = exposed;
  return osctl::NativeSpeDriver(std::move(config));
}

TEST(RawMetricMappingTest, ProvidesTableOfEveryEngine) {
  SimRig storm(spe::StormFlavor());
  SimRig flink(spe::FlinkFlavor());
  SimRig liebre(spe::LiebreFlavor());
  core::SimSpeDriver storm_driver(storm.instance, storm.store);
  core::SimSpeDriver flink_driver(flink.instance, flink.store);
  core::SimSpeDriver liebre_driver(liebre.instance, liebre.store);
  spe::NativeRuntime runtime;
  osctl::NativeRuntimeDriver native_driver(runtime);
  // The file driver reads the same table, so an exporter publishing an
  // engine's raw metrics serves that engine's column; pressure is the one
  // metric the sim reads from its kernel rather than from the store.
  const osctl::NativeSpeDriver storm_file =
      FileDriver(spe::StormFlavor().exposed_metrics);
  const osctl::NativeSpeDriver flink_file =
      FileDriver(spe::FlinkFlavor().exposed_metrics);
  const osctl::NativeSpeDriver liebre_file =
      FileDriver(spe::LiebreFlavor().exposed_metrics);
  const osctl::NativeSpeDriver native_file =
      FileDriver(spe::NativeRuntime::ExposedMetrics());

  for (std::size_t i = 0; i < std::size(kProvides); ++i) {
    const ProvidesRow& row = kProvides[i];
    ASSERT_EQ(static_cast<std::size_t>(row.metric), i);
    const char* name = core::MetricName(row.metric);
    EXPECT_EQ(storm_driver.Provides(row.metric), row.storm) << "storm " << name;
    EXPECT_EQ(flink_driver.Provides(row.metric), row.flink) << "flink " << name;
    EXPECT_EQ(liebre_driver.Provides(row.metric), row.liebre)
        << "liebre " << name;
    EXPECT_EQ(native_driver.Provides(row.metric), row.native)
        << "native " << name;
    const bool stored = row.metric != MetricId::kCpuPressure;
    EXPECT_EQ(storm_file.Provides(row.metric), row.storm && stored)
        << "storm file " << name;
    EXPECT_EQ(flink_file.Provides(row.metric), row.flink && stored)
        << "flink file " << name;
    EXPECT_EQ(liebre_file.Provides(row.metric), row.liebre && stored)
        << "liebre file " << name;
    EXPECT_EQ(native_file.Provides(row.metric), row.native)
        << "native file " << name;
  }
}

TEST(RawMetricMappingTest, SimFetchReadsTheFlavorsSeries) {
  const struct {
    spe::SpeFlavor flavor;
    CostSeries cost;
  } kCases[] = {
      // Storm's rolling execute latency is in us; Lachesis' cost is in ns.
      {spe::StormFlavor(), {"avg_exec_latency_us", 1000.0}},
      {spe::FlinkFlavor(), {"cost_ns", 1.0}},  // cost not provided
      {spe::LiebreFlavor(), {"cost_ns", 1.0}},
  };
  for (const auto& c : kCases) {
    SimRig rig(c.flavor);
    core::SimSpeDriver driver(rig.instance, rig.store, Seconds(1));
    EXPECT_GT(ExpectFetchReadsLiteralSeries(driver, rig.store, c.cost,
                                            Seconds(1)),
              0)
        << c.flavor.name << ": every fetched value was 0";
    // Pressure is read from the (simulated) kernel, not the store: the
    // first read is the thread's whole runnable-wait time so far.
    for (const core::EntityInfo& e : driver.Entities()) {
      EXPECT_EQ(driver.Fetch(MetricId::kCpuPressure, e),
                static_cast<double>(
                    rig.machine.GetStats(e.thread.sim_tid).wait_time))
          << c.flavor.name << " cpu_pressure of " << e.path;
    }
  }
}

// A counter that went backwards (an engine restart) reads as a zero delta,
// never a negative one.
TEST(RawMetricMappingTest, CounterDeltasClampAtZero) {
  sim::Simulator sim;
  sim::Machine machine(sim, 1);
  spe::SpeInstance instance(spe::FlinkFlavor(), {&machine}, "spe");
  instance.Deploy(TinyQuery(Micros(100)), {});
  tsdb::TimeSeriesStore store;
  core::SimSpeDriver driver(instance, store, Seconds(1));
  const core::EntityInfo e = driver.Entities().front();
  for (const char* counter : {"tuples_in", "tuples_out", "busy_time_ns"}) {
    store.Append(e.path + "." + counter, Seconds(1), 500);
    store.Append(e.path + "." + counter, Seconds(2), 200);
  }
  EXPECT_EQ(driver.Fetch(MetricId::kTuplesInDelta, e), 0.0);
  EXPECT_EQ(driver.Fetch(MetricId::kTuplesOutDelta, e), 0.0);
  EXPECT_EQ(driver.Fetch(MetricId::kBusyDeltaNs, e), 0.0);
  EXPECT_EQ(driver.Fetch(MetricId::kTuplesInTotal, e), 200.0);
}

TEST(RawMetricMappingTest, NativeFetchReadsTheRegistrySeries) {
  spe::NativeRuntime runtime;
  spe::NativeDeployOptions deploy;
  deploy.source_rate_tps = 1e9;
  deploy.max_tuples = 500;
  runtime.AddQuery(TinyQuery(Micros(20)), deploy);
  runtime.Start();
  while (runtime.TotalEmitted(0) < 500) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  runtime.Stop(/*drain=*/true);

  osctl::NativeRuntimeDriver driver(runtime, /*delta_window=*/Seconds(1));
  driver.Poll(Seconds(1));
  driver.Poll(Seconds(2));
  // The native registry reports cost directly, in ns.
  EXPECT_GT(ExpectFetchReadsLiteralSeries(driver, driver.store(),
                                          {"cost_ns", 1.0}, Seconds(1)),
            0);
}

// Appends the samples `driver`'s last poll stored -- one per exposed raw
// metric of every operator -- to a graphite-plaintext file under the same
// series names, as an engine's exporter would.
void ExportLastPoll(osctl::NativeRuntimeDriver& driver,
                    const std::string& path) {
  std::FILE* out = std::fopen(path.c_str(), "a");
  ASSERT_NE(out, nullptr) << path;
  for (const core::EntityInfo& e : driver.Entities()) {
    for (const spe::RawMetric raw : spe::NativeRuntime::ExposedMetrics()) {
      const std::string series = tsdb::SeriesName(e.path, raw);
      const auto sample = driver.store().Latest(series);
      if (!sample) {
        ADD_FAILURE() << "no sample of " << series;
        continue;
      }
      std::fprintf(out, "%s %.17g %.17g\n", series.c_str(), sample->value,
                   static_cast<double>(sample->time) /
                       static_cast<double>(kSecond));
    }
  }
  std::fclose(out);
}

// One runtime observed through both native drivers: in process through its
// registry, and from outside through /proc and the file an exporter writes
// from the same polls. Every metric either driver provides reads the same.
TEST(RawMetricMappingTest, BothNativeDriversReadOneRuntimeAlike) {
  spe::LogicalQuery q;
  q.name = "agree";
  const int in = q.Add(spe::MakeIngress("agr-in", Micros(2)));
  const int map = q.Add(spe::MakeTransform("agr-map", Micros(5), [] {
    return std::make_unique<spe::IdentityLogic>();
  }));
  const int out = q.Add(spe::MakeEgress("agr-out", Micros(2)));
  q.Connect(in, map);
  q.Connect(map, out);
  spe::NativeRuntime runtime;
  spe::NativeDeployOptions deploy;
  deploy.source_rate_tps = 20000;
  runtime.AddQuery(q, deploy);
  runtime.Start();
  osctl::NativeRuntimeDriver registry(runtime);

  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("lachesis_agree_" + std::to_string(::getpid()) + ".log"))
          .string();
  std::filesystem::remove(path);
  osctl::NativeSpeConfig config;
  config.metrics_file = path;
  config.provided = spe::NativeRuntime::ExposedMetrics();
  osctl::NativeQueryConfig query;
  query.name = q.name;
  query.pid = ::getpid();
  for (const core::EntityInfo& e : registry.Entities()) {
    const std::string& op =
        q.operators[static_cast<std::size_t>(e.logical_indices.front())].name;
    query.operators.push_back({op, op, e.path, e.is_ingress, e.is_egress});
  }
  query.edges = registry.Topology(QueryId(0)).edges;
  config.queries.push_back(std::move(query));
  osctl::NativeSpeDriver file(std::move(config));

  int compared = 0;
  int moved = 0;  // non-zero deltas
  for (int poll = 1; poll <= 3; ++poll) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    registry.Poll(Seconds(poll));
    ExportLastPoll(registry, path);
    file.Poll(Seconds(poll));

    for (std::size_t m = 0; m < core::kMetricCount; ++m) {
      const auto metric = static_cast<MetricId>(m);
      EXPECT_EQ(file.Provides(metric), registry.Provides(metric))
          << core::MetricName(metric);
    }
    const auto registry_entities = registry.Entities();
    const auto file_entities = file.Entities();
    ASSERT_EQ(file_entities.size(), registry_entities.size());
    for (std::size_t i = 0; i < file_entities.size(); ++i) {
      const core::EntityInfo& r = registry_entities[i];
      const core::EntityInfo& f = file_entities[i];
      ASSERT_EQ(f.path, r.path);
      // A source thread is named after its ingress ("src.agr-in"), so the
      // ingress pattern may match the source instead.
      if (!r.is_ingress) {
        EXPECT_EQ(f.thread.os_tid, r.thread.os_tid) << r.path;
      }
      for (std::size_t m = 0; m < core::kMetricCount; ++m) {
        const auto metric = static_cast<MetricId>(m);
        if (!registry.Provides(metric)) continue;
        const double value = registry.Fetch(metric, r);
        EXPECT_EQ(file.Fetch(metric, f), value)
            << "poll " << poll << " " << core::MetricName(metric) << " of "
            << r.path;
        ++compared;
        moved += (metric == MetricId::kTuplesInDelta ||
                  metric == MetricId::kTuplesOutDelta ||
                  metric == MetricId::kBusyDeltaNs) &&
                 value != 0.0;
      }
    }
  }
  std::filesystem::remove(path);
  EXPECT_EQ(compared, 3 * 3 * 11);
  EXPECT_GT(moved, 0);
}

}  // namespace
}  // namespace lachesis
