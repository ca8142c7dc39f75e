// Tests of the simulated-SPE driver: flavor-dependent Provides(), metric
// store reads (staleness), a delta window the store's retention must cover,
// series handles resolved on first use, topology export, and entity
// enumeration.
#include "core/sim_driver.h"

#include <map>
#include <memory>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "core/os_adapter.h"
#include "core/runner.h"
#include "core/sim_executor.h"
#include "core/translators.h"
#include "sim/simulator.h"
#include "spe/source.h"
#include "tsdb/scraper.h"

namespace lachesis::core {
namespace {

spe::LogicalQuery TinyQuery(const std::string& name = "tiny") {
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

struct DriverRig {
  sim::Simulator sim;
  sim::Machine machine{sim, 2};
  spe::SpeInstance instance;
  tsdb::TimeSeriesStore store;
  tsdb::Scraper scraper{sim, store, Seconds(1)};

  explicit DriverRig(spe::SpeFlavor flavor)
      : instance(std::move(flavor), {&machine}, "spe") {
    instance.Deploy(TinyQuery(), {});
    scraper.AddInstance(instance);
  }
};

TEST(SimDriverTest, ProvidesFollowsFlavor) {
  DriverRig storm(spe::StormFlavor());
  SimSpeDriver storm_driver(storm.instance, storm.store);
  EXPECT_TRUE(storm_driver.Provides(MetricId::kQueueSize));
  EXPECT_TRUE(storm_driver.Provides(MetricId::kCost));  // via exec latency
  EXPECT_FALSE(storm_driver.Provides(MetricId::kSelectivity));
  EXPECT_FALSE(storm_driver.Provides(MetricId::kBusyDeltaNs));
  EXPECT_FALSE(storm_driver.Provides(MetricId::kHighestRate));

  DriverRig flink(spe::FlinkFlavor());
  SimSpeDriver flink_driver(flink.instance, flink.store);
  EXPECT_FALSE(flink_driver.Provides(MetricId::kQueueSize));
  EXPECT_TRUE(flink_driver.Provides(MetricId::kBufferUsage));
  EXPECT_TRUE(flink_driver.Provides(MetricId::kBusyDeltaNs));
  EXPECT_FALSE(flink_driver.Provides(MetricId::kCost));

  DriverRig liebre(spe::LiebreFlavor());
  SimSpeDriver liebre_driver(liebre.instance, liebre.store);
  EXPECT_TRUE(liebre_driver.Provides(MetricId::kCost));
  EXPECT_TRUE(liebre_driver.Provides(MetricId::kSelectivity));
  EXPECT_TRUE(liebre_driver.Provides(MetricId::kHeadTupleAge));
}

// The store keeps only one retention of history per series, so a longer
// delta window would silently clamp to the oldest sample kept.
TEST(SimDriverTest, RejectsADeltaWindowBeyondTheStoresRetention) {
  DriverRig rig(spe::StormFlavor());
  EXPECT_NO_THROW(SimSpeDriver(rig.instance, rig.store, rig.store.retention()));
  EXPECT_THROW(SimSpeDriver(rig.instance, rig.store, rig.store.retention() + 1),
               std::invalid_argument);
  const tsdb::TimeSeriesStore longer(Seconds(5));
  EXPECT_NO_THROW(SimSpeDriver(rig.instance, longer, Seconds(5)));
}

TEST(SimDriverTest, EntitiesDescribeDeployment) {
  DriverRig rig(spe::StormFlavor());
  SimSpeDriver driver(rig.instance, rig.store);
  const auto entities = driver.Entities();
  ASSERT_EQ(entities.size(), 3u);
  int ingress = 0;
  int egress = 0;
  for (const EntityInfo& e : entities) {
    ingress += e.is_ingress;
    egress += e.is_egress;
    EXPECT_EQ(e.thread.machine, &rig.machine);
    EXPECT_EQ(e.query_name, "tiny");
    EXPECT_FALSE(e.path.empty());
  }
  EXPECT_EQ(ingress, 1);
  EXPECT_EQ(egress, 1);
}

TEST(SimDriverTest, TopologyMatchesLogicalQuery) {
  DriverRig rig(spe::StormFlavor());
  SimSpeDriver driver(rig.instance, rig.store);
  const LogicalTopology& topo = driver.Topology(QueryId(0));
  EXPECT_EQ(topo.size(), 3);
  EXPECT_EQ(topo.names[0], "in");
  EXPECT_EQ(topo.edges, (std::vector<std::pair<int, int>>{{0, 1}, {1, 2}}));
  EXPECT_EQ(topo.ingress_indices, std::vector<int>{0});
  EXPECT_EQ(topo.egress_indices, std::vector<int>{2});
}

TEST(SimDriverTest, FetchReadsScrapedNotLiveValues) {
  // The driver must see the metric store's (stale) view, not live engine
  // state -- the information asymmetry of §6.4.
  DriverRig rig(spe::StormFlavor());
  SimSpeDriver driver(rig.instance, rig.store);
  const auto entities = driver.Entities();
  const EntityInfo* transform = nullptr;
  for (const EntityInfo& e : entities) {
    if (!e.is_ingress && !e.is_egress) transform = &e;
  }
  ASSERT_NE(transform, nullptr);

  // No scrape yet: fetch returns 0 even though tuples are queued live.
  spe::ExternalSource source(rig.sim, rig.instance.queries()[0]->source_channels(),
                             [](Rng&, std::uint64_t) { return spe::Tuple{}; },
                             3);
  source.Start(2000, Seconds(3));
  rig.sim.RunUntil(Millis(500));
  EXPECT_DOUBLE_EQ(driver.Fetch(MetricId::kQueueSize, *transform), 0.0);

  // After a scrape, the stored value appears.
  rig.scraper.ScrapeOnce();
  const double scraped = driver.Fetch(MetricId::kQueueSize, *transform);
  rig.sim.RunUntil(Millis(900));
  // Still the scraped value, even if the live queue moved on.
  EXPECT_DOUBLE_EQ(driver.Fetch(MetricId::kQueueSize, *transform), scraped);
}

// The driver resolves a series handle on an entity's first read. A read
// before the first scrape finds no series and must not cache the miss.
TEST(SimDriverTest, FetchBeforeTheFirstScrapeReadsZeroThenTheScrapedValue) {
  DriverRig rig(spe::LiebreFlavor());
  SimSpeDriver driver(rig.instance, rig.store);
  const auto entities = driver.Entities();
  spe::ExternalSource source(rig.sim, rig.instance.queries()[0]->source_channels(),
                             [](Rng&, std::uint64_t) { return spe::Tuple{}; },
                             3);
  source.Start(2000, Seconds(3));
  rig.sim.RunUntil(Millis(500));
  for (const EntityInfo& e : entities) {
    EXPECT_EQ(driver.Fetch(MetricId::kTuplesInTotal, e), 0.0) << e.path;
    EXPECT_EQ(driver.Fetch(MetricId::kQueueSize, e), 0.0) << e.path;
  }
  EXPECT_EQ(rig.store.series_count(), 0u);

  rig.scraper.ScrapeOnce();
  double ingested = 0;
  for (const EntityInfo& e : entities) {
    const auto tuples_in = rig.store.Latest(e.path + ".tuples_in");
    const auto queue = rig.store.Latest(e.path + ".queue_size");
    ASSERT_TRUE(tuples_in.has_value()) << e.path;
    ASSERT_TRUE(queue.has_value()) << e.path;
    EXPECT_EQ(driver.Fetch(MetricId::kTuplesInTotal, e), tuples_in->value)
        << e.path;
    EXPECT_EQ(driver.Fetch(MetricId::kQueueSize, e), queue->value) << e.path;
    if (e.is_ingress) ingested = tuples_in->value;
  }
  EXPECT_GT(ingested, 0.0);
}

TEST(SimDriverTest, EntitiesGenerationMovesOnDeployNotOnScrape) {
  DriverRig rig(spe::LiebreFlavor());
  SimSpeDriver driver(rig.instance, rig.store, Seconds(1));
  const std::uint64_t first = driver.EntitiesGeneration();
  EXPECT_NE(first, 0u);
  // Scrapes move metrics, not the entity set.
  rig.scraper.Start(Seconds(3));
  rig.sim.RunUntil(Seconds(3));
  EXPECT_GT(rig.store.series_count(), 0u);
  EXPECT_EQ(driver.EntitiesGeneration(), first);
  // A mid-run deploy adds entities: the generation moves, then holds.
  rig.instance.Deploy(TinyQuery("late"), {});
  const std::uint64_t deployed = driver.EntitiesGeneration();
  EXPECT_NE(deployed, 0u);
  EXPECT_NE(deployed, first);
  EXPECT_EQ(driver.EntitiesGeneration(), deployed);
  EXPECT_EQ(driver.Entities().size(), 6u);
  // Generations are process-wide: another driver of the same deployment
  // reports its own.
  SimSpeDriver other(rig.instance, rig.store, Seconds(1));
  EXPECT_NE(other.EntitiesGeneration(), deployed);
}

// Records the kTuplesInTotal value the provider served per entity path.
class TuplesInRecorder final : public SchedulingPolicy {
 public:
  [[nodiscard]] const std::string& name() const override { return name_; }
  [[nodiscard]] std::vector<MetricId> RequiredMetrics() const override {
    return {MetricId::kTuplesInTotal};
  }
  Schedule ComputeSchedule(const PolicyContext& ctx) override {
    ctx.ForEachEntity([&](SpeDriver& driver, const EntityInfo& e) {
      seen[e.path] =
          ctx.provider->Value(driver, MetricId::kTuplesInTotal, e.id);
    });
    return {};
  }

  std::map<std::string, double> seen;

 private:
  std::string name_ = "tuples-in-recorder";
};

// A query deployed after several scrapes, and attached to the running
// control loop then, is scraped into series of its own and fetched by the
// same driver.
TEST(SimDriverTest, QueryDeployedMidRunIsScrapedAndFetched) {
  DriverRig rig(spe::LiebreFlavor());
  SimSpeDriver driver(rig.instance, rig.store, Seconds(1));
  SimControlExecutor executor(rig.sim);
  SimOsAdapter os;
  LachesisRunner runner(executor, os);
  const auto tuple = [](Rng&, std::uint64_t) { return spe::Tuple{}; };
  spe::ExternalSource first(rig.sim,
                            rig.instance.queries()[0]->source_channels(), tuple,
                            3);
  first.Start(1000, Seconds(8));
  rig.scraper.Start(Seconds(8));
  const auto binding = [&driver](std::unique_ptr<SchedulingPolicy> policy,
                                 const std::string& query) {
    PolicyBinding b;
    b.policy = std::move(policy);
    b.translator = std::make_unique<NiceTranslator>();
    b.period = Seconds(1);
    b.drivers = {&driver};
    b.filter = [query](const EntityInfo& e) { return e.query_name == query; };
    return b;
  };
  runner.AddQuery(binding(std::make_unique<TuplesInRecorder>(), "tiny"));
  runner.Start(Seconds(8));
  rig.sim.RunUntil(Seconds(3) + Millis(500));
  const std::size_t series_before = rig.store.series_count();
  EXPECT_GT(series_before, 0u);

  spe::DeployedQuery& late = rig.instance.Deploy(TinyQuery("late"), {});
  spe::ExternalSource second(rig.sim, late.source_channels(), tuple, 5);
  second.Start(1000, Seconds(8));
  auto recorder = std::make_unique<TuplesInRecorder>();
  TuplesInRecorder* late_view = recorder.get();
  runner.AddQuery(binding(std::move(recorder), "late"));
  rig.sim.RunUntil(Seconds(7) + Millis(500));

  EXPECT_EQ(rig.store.series_count(), 2 * series_before);
  int late_entities = 0;
  for (const EntityInfo& e : driver.Entities()) {
    if (e.query_name != "late") continue;
    ++late_entities;
    const auto tuples_in = rig.store.Latest(e.path + ".tuples_in");
    ASSERT_TRUE(tuples_in.has_value()) << e.path;
    EXPECT_EQ(tuples_in->time, Seconds(7));
    EXPECT_GT(tuples_in->value, 0.0) << e.path;
    EXPECT_EQ(driver.Fetch(MetricId::kTuplesInTotal, e), tuples_in->value)
        << e.path;
    // The control loop read the late query's own series too.
    ASSERT_EQ(late_view->seen.count(e.path), 1u) << e.path;
    EXPECT_GT(late_view->seen[e.path], 0.0) << e.path;
  }
  EXPECT_EQ(late_entities, 3);
  EXPECT_EQ(late_view->seen.size(), 3u);
}

TEST(SimDriverTest, DeltasComeFromCounterDifferences) {
  DriverRig rig(spe::StormFlavor());
  SimSpeDriver driver(rig.instance, rig.store, Seconds(1));
  spe::ExternalSource source(rig.sim, rig.instance.queries()[0]->source_channels(),
                             [](Rng&, std::uint64_t) { return spe::Tuple{}; },
                             3);
  source.Start(1000, Seconds(5));
  rig.scraper.Start(Seconds(5));
  rig.sim.RunUntil(Seconds(4));
  const auto entities = driver.Entities();
  for (const EntityInfo& e : entities) {
    if (e.is_ingress) {
      EXPECT_NEAR(driver.Fetch(MetricId::kTuplesInDelta, e), 1000.0, 100.0);
    }
  }
}

}  // namespace
}  // namespace lachesis::core
