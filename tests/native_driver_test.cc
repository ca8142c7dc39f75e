// Tests of the native (real-host) SPE driver: /proc thread resolution,
// graphite-file tailing, metric fetches and end-to-end use with the metric
// provider -- all against fake roots and temp files.
#include "osctl/native_driver.h"

#include <filesystem>
#include <fstream>

#include <gtest/gtest.h>

#include "core/metric_provider.h"

namespace lachesis::osctl {
namespace {

namespace fs = std::filesystem;

class NativeRig {
 public:
  NativeRig() {
    dir_ = fs::temp_directory_path() /
           ("lachesis_native_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter_++));
    fs::create_directories(dir_ / "proc");
  }
  ~NativeRig() {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  void AddThread(long pid, long tid, const std::string& comm) {
    const fs::path task =
        dir_ / "proc" / std::to_string(pid) / "task" / std::to_string(tid);
    fs::create_directories(task);
    std::ofstream(task / "comm") << comm << "\n";
  }

  void AppendMetric(const std::string& series, double value, double ts) {
    std::ofstream out(dir_ / "metrics.txt", std::ios::app);
    out << series << " " << value << " " << ts << "\n";
  }

  NativeSpeConfig BaseConfig() {
    NativeSpeConfig config;
    config.name = "storm-native";
    config.proc_root = (dir_ / "proc").string();
    config.metrics_file = (dir_ / "metrics.txt").string();
    config.provided = {spe::RawMetric::kQueueSize, spe::RawMetric::kTuplesIn};
    NativeQueryConfig query;
    query.name = "lr";
    query.pid = 500;
    query.operators = {
        {"spout", "exec-spout", "storm.lr.spout", true, false},
        {"parse", "exec-parse", "storm.lr.parse", false, false},
        {"sink", "exec-sink", "storm.lr.sink", false, true},
    };
    query.edges = {{0, 1}, {1, 2}};
    config.queries.push_back(std::move(query));
    return config;
  }

  [[nodiscard]] const fs::path& dir() const { return dir_; }

 private:
  static inline int counter_ = 0;
  fs::path dir_;
};

TEST(NativeDriverTest, ResolvesThreadsByNamePattern) {
  NativeRig rig;
  rig.AddThread(500, 500, "java");
  rig.AddThread(500, 501, "exec-spout-1");
  rig.AddThread(500, 502, "exec-parse-3");
  NativeSpeDriver driver(rig.BaseConfig());
  driver.Refresh(Seconds(1));
  const auto entities = driver.Entities();
  ASSERT_EQ(entities.size(), 3u);
  EXPECT_EQ(entities[0].thread.os_tid, 501);
  EXPECT_EQ(entities[1].thread.os_tid, 502);
  EXPECT_EQ(entities[2].thread.os_tid, -1);  // sink thread not present yet
  EXPECT_TRUE(entities[0].is_ingress);
  EXPECT_TRUE(entities[2].is_egress);
}

TEST(NativeDriverTest, RefreshReResolvesAfterRestart) {
  NativeRig rig;
  rig.AddThread(500, 501, "exec-spout-1");
  NativeSpeDriver driver(rig.BaseConfig());
  driver.Refresh(Seconds(1));
  EXPECT_EQ(driver.Entities()[0].thread.os_tid, 501);
  // "Restart": spout thread gets a new tid.
  fs::remove_all(rig.dir() / "proc" / "500" / "task" / "501");
  rig.AddThread(500, 777, "exec-spout-1");
  driver.Refresh(Seconds(2));
  EXPECT_EQ(driver.Entities()[0].thread.os_tid, 777);
}

TEST(NativeDriverTest, EntitiesGenerationMovesOnlyWhenATidChanges) {
  NativeRig rig;
  rig.AddThread(500, 501, "exec-spout-1");
  rig.AddThread(500, 502, "exec-parse-3");
  NativeSpeDriver driver(rig.BaseConfig());
  driver.Refresh(Seconds(1));
  const std::uint64_t first = driver.EntitiesGeneration();
  EXPECT_NE(first, 0u);
  // A re-scan that resolves the same tids, and new metric lines, keep it.
  rig.AppendMetric("storm.lr.spout.queue_size", 3, 1);
  driver.Refresh(Seconds(2));
  EXPECT_EQ(driver.EntitiesGeneration(), first);
  // The spout restarts under a new tid: the entity set changed.
  fs::remove_all(rig.dir() / "proc" / "500" / "task" / "501");
  rig.AddThread(500, 777, "exec-spout-1");
  driver.Refresh(Seconds(3));
  const std::uint64_t restarted = driver.EntitiesGeneration();
  EXPECT_NE(restarted, 0u);
  EXPECT_NE(restarted, first);
  EXPECT_EQ(driver.Entities()[0].thread.os_tid, 777);
  // So does a thread that appears for an operator unresolved so far.
  rig.AddThread(500, 503, "exec-sink-0");
  driver.Refresh(Seconds(4));
  EXPECT_NE(driver.EntitiesGeneration(), restarted);
}

TEST(NativeDriverTest, TailsGraphiteFileIncrementally) {
  NativeRig rig;
  NativeSpeDriver driver(rig.BaseConfig());
  rig.AppendMetric("storm.lr.parse.queue_size", 12, 1.0);
  driver.Refresh(Seconds(1));
  const auto entities = driver.Entities();
  EXPECT_DOUBLE_EQ(driver.Fetch(core::MetricId::kQueueSize, entities[1]), 12);
  // Only NEW lines are ingested on the next refresh.
  rig.AppendMetric("storm.lr.parse.queue_size", 34, 2.0);
  driver.Refresh(Seconds(2));
  EXPECT_DOUBLE_EQ(driver.Fetch(core::MetricId::kQueueSize, entities[1]), 34);
}

TEST(NativeDriverTest, CounterDeltasComputed) {
  NativeRig rig;
  NativeSpeDriver driver(rig.BaseConfig());
  rig.AppendMetric("storm.lr.spout.tuples_in", 1000, 1.0);
  rig.AppendMetric("storm.lr.spout.tuples_in", 1750, 2.0);
  driver.Refresh(Seconds(2));
  const auto entities = driver.Entities();
  EXPECT_DOUBLE_EQ(driver.Fetch(core::MetricId::kTuplesInDelta, entities[0]),
                   750);
}

TEST(NativeDriverTest, MissingSeriesFetchesZero) {
  NativeRig rig;
  NativeSpeDriver driver(rig.BaseConfig());
  driver.Refresh(Seconds(1));
  const auto entities = driver.Entities();
  EXPECT_DOUBLE_EQ(driver.Fetch(core::MetricId::kQueueSize, entities[0]), 0.0);
}

TEST(NativeDriverTest, MalformedGraphiteLinesAreSkipped) {
  NativeRig rig;
  NativeSpeDriver driver(rig.BaseConfig());
  {
    std::ofstream out(rig.dir() / "metrics.txt", std::ios::app);
    out << "\n";                                          // blank line
    out << "storm.lr.parse.queue_size notanumber 1.0\n";  // junk value
    out << "loneseries\n";                                // no value column
    out << "storm.lr.parse.queue_size 7 1.0\n";           // good line
  }
  driver.Refresh(Seconds(1));
  const auto entities = driver.Entities();
  EXPECT_DOUBLE_EQ(driver.Fetch(core::MetricId::kQueueSize, entities[1]), 7);
}

TEST(NativeDriverTest, LineWithoutTimestampDefaultsToNow) {
  NativeRig rig;
  NativeSpeDriver driver(rig.BaseConfig());
  std::ofstream(rig.dir() / "metrics.txt", std::ios::app)
      << "storm.lr.parse.queue_size 42\n";
  driver.Refresh(Seconds(3));
  const auto entities = driver.Entities();
  EXPECT_DOUBLE_EQ(driver.Fetch(core::MetricId::kQueueSize, entities[1]), 42);
}

TEST(NativeDriverTest, TruncatedLastLineIsNotDuplicated) {
  NativeRig rig;
  NativeSpeDriver driver(rig.BaseConfig());
  // Writer crashed mid-line: no trailing newline after the value column.
  std::ofstream(rig.dir() / "metrics.txt", std::ios::app)
      << "storm.lr.spout.tuples_in 100 1.0\n"
      << "storm.lr.spout.tuples_in 150";
  driver.Refresh(Seconds(1));
  // The writer finishes the line later; the counter store must end up with
  // exactly the two samples (a re-read of the partial line would produce a
  // phantom 150 sample and a bogus delta).
  std::ofstream(rig.dir() / "metrics.txt", std::ios::app) << " 2.0\n";
  driver.Refresh(Seconds(2));
  const auto entities = driver.Entities();
  EXPECT_DOUBLE_EQ(driver.Fetch(core::MetricId::kTuplesInDelta, entities[0]),
                   50);
}

// A buffered exporter flushes mid-line, even mid-number. The tail must not
// be read until its newline arrives: read early, "12" would be taken for
// the value and the rest of the line, "3 1", for a series named "3".
TEST(NativeDriverTest, LineFlushedMidNumberIsReadOnceWhole) {
  NativeRig rig;
  NativeSpeDriver driver(rig.BaseConfig());
  std::ofstream(rig.dir() / "metrics.txt", std::ios::app)
      << "storm.lr.parse.queue_size 12";
  driver.Refresh(Seconds(1));
  const auto entities = driver.Entities();
  EXPECT_DOUBLE_EQ(driver.Fetch(core::MetricId::kQueueSize, entities[1]), 0);
  std::ofstream(rig.dir() / "metrics.txt", std::ios::app) << "3 1\n";
  driver.Refresh(Seconds(2));
  EXPECT_DOUBLE_EQ(driver.Fetch(core::MetricId::kQueueSize, entities[1]),
                   123);
  EXPECT_EQ(driver.store().Find("3"), tsdb::kNoSeries);
}

TEST(NativeDriverTest, FileRotationResetsTailOffset) {
  NativeRig rig;
  NativeSpeDriver driver(rig.BaseConfig());
  rig.AppendMetric("storm.lr.parse.queue_size", 11, 1.0);
  rig.AppendMetric("storm.lr.parse.queue_size", 22, 2.0);
  driver.Refresh(Seconds(2));
  // Rotation: the exporter truncates and starts a shorter file.
  std::ofstream(rig.dir() / "metrics.txt", std::ios::trunc)
      << "storm.lr.parse.queue_size 33 3.0\n";
  driver.Refresh(Seconds(3));
  const auto entities = driver.Entities();
  EXPECT_DOUBLE_EQ(driver.Fetch(core::MetricId::kQueueSize, entities[1]), 33);
}

TEST(NativeDriverTest, MissingMetricsFileIsTolerated) {
  NativeRig rig;
  NativeSpeConfig config = rig.BaseConfig();
  config.metrics_file = (rig.dir() / "nope.txt").string();
  NativeSpeDriver driver(std::move(config));
  driver.Refresh(Seconds(1));  // must not crash
  EXPECT_EQ(driver.Entities().size(), 3u);
}

TEST(NativeDriverTest, WorksWithMetricProvider) {
  // The same Algorithm-3 machinery resolves metrics through the native
  // driver: queue size is provided, selectivity must raise a configuration
  // error because neither it nor its deltas are published.
  NativeRig rig;
  NativeSpeDriver driver(rig.BaseConfig());
  rig.AppendMetric("storm.lr.parse.queue_size", 5, 1.0);
  driver.Refresh(Seconds(1));

  core::MetricProvider provider;
  provider.Register(core::MetricId::kQueueSize);
  provider.Update({&driver}, Seconds(1));
  const auto entities = provider.EntitiesOf(driver);
  EXPECT_DOUBLE_EQ(
      provider.Value(driver, core::MetricId::kQueueSize, entities[1].id), 5);

  // kCost derives from busy-time deltas, which the exporter does not
  // publish and which have no derivation of their own -> configuration
  // error (Algorithm 3 L15). Input counters must be non-zero first, or the
  // cost computation short-circuits before touching the missing dependency.
  rig.AppendMetric("storm.lr.parse.tuples_in", 100, 1.0);
  rig.AppendMetric("storm.lr.parse.tuples_in", 300, 2.0);
  driver.Refresh(Seconds(2));
  core::MetricProvider strict;
  strict.Register(core::MetricId::kCost);
  EXPECT_THROW(strict.Update({&driver}, Seconds(2)), core::ConfigurationError);
}

TEST(NativeDriverTest, TopologyExposed) {
  NativeRig rig;
  NativeSpeDriver driver(rig.BaseConfig());
  const core::LogicalTopology& topo = driver.Topology(QueryId(0));
  EXPECT_EQ(topo.size(), 3);
  EXPECT_EQ(topo.edges, (std::vector<std::pair<int, int>>{{0, 1}, {1, 2}}));
  EXPECT_EQ(topo.ingress_indices, std::vector<int>{0});
}

}  // namespace
}  // namespace lachesis::osctl
