// Cross-flavor integration: the paper's Fig 4 scenario end-to-end. The same
// HighestRate policy is resolved through DIFFERENT dependency paths per
// engine -- Liebre provides cost/selectivity directly, Flink only busy-time
// and counts, Storm only counts and rolling execute latency -- and must
// yield consistent schedules for identical workloads on identical machines.
#include <cmath>
#include <memory>

#include <gtest/gtest.h>

#include "core/metric_provider.h"
#include "tests/fake_driver.h"
#include "core/policies.h"
#include "core/sim_driver.h"
#include "queries/linear_road.h"
#include "sim/simulator.h"
#include "spe/runtime.h"
#include "spe/source.h"
#include "tsdb/scraper.h"

namespace lachesis::core {
namespace {

struct FlavorRun {
  std::unique_ptr<sim::Simulator> sim;
  std::unique_ptr<sim::Machine> machine;
  std::unique_ptr<spe::SpeInstance> instance;
  std::unique_ptr<spe::ExternalSource> source;
  std::unique_ptr<tsdb::TimeSeriesStore> store;
  std::unique_ptr<SimSpeDriver> driver;

  explicit FlavorRun(spe::SpeFlavor flavor) {
    sim = std::make_unique<sim::Simulator>();
    machine = std::make_unique<sim::Machine>(*sim, 4);
    instance = std::make_unique<spe::SpeInstance>(
        std::move(flavor), std::vector<sim::Machine*>{machine.get()}, "spe");
    queries::Workload lr = queries::MakeLinearRoad();
    spe::DeployedQuery& query = instance->Deploy(lr.query, {});
    source = std::make_unique<spe::ExternalSource>(
        *sim, query.source_channels(), lr.generator, 77);
    source->Start(3000, Seconds(10));
    store = std::make_unique<tsdb::TimeSeriesStore>();
    tsdb::Scraper scraper(*sim, *store, Seconds(1));
    scraper.AddInstance(*instance);
    scraper.Start(Seconds(10));
    sim->RunUntil(Seconds(10));
    driver = std::make_unique<SimSpeDriver>(*instance, *store);
  }
};

TEST(CrossFlavorTest, HighestRateResolvesForEveryFlavor) {
  // One provider serving three drivers at once (goal G5): the registered
  // HIGHEST_RATE must resolve through whatever each flavor exposes.
  FlavorRun storm(spe::StormFlavor());
  FlavorRun flink(spe::FlinkFlavor());
  FlavorRun liebre(spe::LiebreFlavor());

  MetricProvider provider;
  provider.Register(MetricId::kHighestRate);
  std::vector<SpeDriver*> drivers{storm.driver.get(), flink.driver.get(),
                                  liebre.driver.get()};
  ASSERT_NO_THROW(provider.Update(drivers, Seconds(1)));

  // For each flavor, HR must rank the same way over the same DAG: the
  // accident branch (low selectivity) scores below the shared prefix.
  for (SpeDriver* driver : drivers) {
    const auto& entities = provider.EntitiesOf(*driver);
    ASSERT_EQ(entities.size(), 9u);
    double dispatch_hr = 0;
    double accident_hr = 0;
    bool all_positive = true;
    for (const EntityInfo& e : entities) {
      const double hr = provider.Value(*driver, MetricId::kHighestRate, e.id);
      all_positive = all_positive && hr > 0;
      if (e.path.find("dispatch") != std::string::npos) dispatch_hr = hr;
      if (e.path.find("accident") != std::string::npos) accident_hr = hr;
    }
    EXPECT_TRUE(all_positive) << driver->name();
    // The dispatcher still has the productive toll path ahead of it; the
    // accident operator only has the sparse alert path.
    EXPECT_GT(dispatch_hr, accident_hr) << driver->name();
  }
}

TEST(CrossFlavorTest, MeasuredCostsAgreeAcrossDependencyPaths) {
  // Liebre reports cost directly; Flink derives it from busy-time deltas;
  // Storm from the rolling execute latency. For the same workload the three
  // views must agree within the measurement noise.
  FlavorRun storm(spe::StormFlavor());
  FlavorRun flink(spe::FlinkFlavor());
  FlavorRun liebre(spe::LiebreFlavor());

  MetricProvider provider;
  provider.Register(MetricId::kCost);
  std::vector<SpeDriver*> drivers{storm.driver.get(), flink.driver.get(),
                                  liebre.driver.get()};
  provider.Update(drivers, Seconds(1));

  // Compare the parse operator (cost 80us + flavor overhead).
  const auto cost_of = [&](SpeDriver& driver) {
    for (const EntityInfo& e : provider.EntitiesOf(driver)) {
      if (e.path.find(".parse.") != std::string::npos) {
        return provider.Value(driver, MetricId::kCost, e.id);
      }
    }
    return -1.0;
  };
  const double storm_cost = cost_of(*storm.driver);
  const double flink_cost = cost_of(*flink.driver);
  const double liebre_cost = cost_of(*liebre.driver);
  // Base cost 80us; flavor overheads differ (25/40/10us), so compare net of
  // the known overhead.
  EXPECT_NEAR(storm_cost - 25000, 80000, 10000);
  EXPECT_NEAR(flink_cost - 40000, 80000, 10000);
  EXPECT_NEAR(liebre_cost - 10000, 80000, 10000);
}

TEST(CrossFlavorTest, HrPolicyProducesConsistentRankings) {
  FlavorRun liebre(spe::LiebreFlavor());
  MetricProvider provider;
  HighestRatePolicy policy;
  for (const MetricId m : policy.RequiredMetrics()) provider.Register(m);
  std::vector<SpeDriver*> drivers{liebre.driver.get()};
  provider.Update(drivers, Seconds(1));
  Rng rng(1);
  PolicyContext ctx;
  ctx.provider = &provider;
  ctx.drivers = drivers;
  ctx.rng = &rng;
  const Schedule schedule = policy.ComputeSchedule(ctx);
  ASSERT_EQ(schedule.entries.size(), 9u);
  EXPECT_EQ(schedule.spacing, PrioritySpacing::kLogarithmic);
  // Egresses (zero remaining path beyond themselves, tiny cost) rank high.
  double egress_priority = 0;
  double ingress_priority = 0;
  for (const auto& entry : schedule.entries) {
    if (entry.entity->is_egress &&
        entry.entity->path.find("toll") != std::string::npos) {
      egress_priority = entry.priority;
    }
    if (entry.entity->is_ingress) ingress_priority = entry.priority;
  }
  EXPECT_GT(egress_priority, ingress_priority);
}

// --- metric-translation edge cases (scripted driver) ------------------------

testing::FakeDriver MakeTwoOpChain() {
  testing::FakeDriver fake("edge");
  EntityInfo& head = fake.AddEntity(QueryId(0), {0});
  head.is_ingress = true;
  EntityInfo& tail = fake.AddEntity(QueryId(0), {1});
  tail.is_egress = true;
  LogicalTopology topo;
  topo.names = {"head", "tail"};
  topo.base_costs = {0, 0};
  topo.edges = {{0, 1}};
  topo.ingress_indices = {0};
  topo.egress_indices = {1};
  fake.SetTopology(QueryId(0), topo);
  fake.Provide(MetricId::kTuplesInDelta);
  fake.Provide(MetricId::kTuplesOutDelta);
  fake.Provide(MetricId::kBusyDeltaNs);
  return fake;
}

// A filter that dropped everything this window: out delta 0 with a real
// input stream. Selectivity must come out as exactly 0 (not NaN), and HR
// must still produce a finite, positive score for every operator (the
// downstream operator falls back to neutral sel/cost, not to a poisoned
// division).
TEST(CrossFlavorEdgeTest, ZeroSelectivityOperatorKeepsMetricsFinite) {
  testing::FakeDriver fake = MakeTwoOpChain();
  fake.SetValue(MetricId::kTuplesInDelta, OperatorId(0), 500);
  fake.SetValue(MetricId::kTuplesOutDelta, OperatorId(0), 0);  // drops all
  fake.SetValue(MetricId::kBusyDeltaNs, OperatorId(0), 2e6);
  // Tail saw no input at all (nothing was forwarded).
  fake.SetValue(MetricId::kTuplesInDelta, OperatorId(1), 0);

  MetricProvider provider;
  provider.Register(MetricId::kSelectivity);
  provider.Register(MetricId::kCost);
  provider.Register(MetricId::kHighestRate);
  std::vector<SpeDriver*> drivers{&fake};
  provider.Update(drivers, Seconds(1));

  EXPECT_DOUBLE_EQ(
      provider.Value(fake, MetricId::kSelectivity, OperatorId(0)), 0.0);
  EXPECT_DOUBLE_EQ(provider.Value(fake, MetricId::kCost, OperatorId(0)),
                   2e6 / 500);
  // Zero input -> cost short-circuits to 0 instead of dividing by zero.
  EXPECT_DOUBLE_EQ(provider.Value(fake, MetricId::kCost, OperatorId(1)), 0.0);
  for (const auto id : {OperatorId(0), OperatorId(1)}) {
    const double hr = provider.Value(fake, MetricId::kHighestRate, id);
    EXPECT_TRUE(std::isfinite(hr)) << "operator " << id.value();
    EXPECT_GT(hr, 0.0) << "operator " << id.value();
  }
}

// An empty window (scrape glitch / first tick): window-normalized rates
// must degrade to 0 rather than dividing by zero seconds.
TEST(CrossFlavorEdgeTest, EmptyWindowYieldsZeroRates) {
  testing::FakeDriver fake = MakeTwoOpChain();
  fake.SetValue(MetricId::kTuplesInDelta, OperatorId(0), 500);

  MetricProvider provider;
  provider.Register(MetricId::kInputRate);
  std::vector<SpeDriver*> drivers{&fake};
  provider.Update(drivers, Seconds(0));

  const double rate = provider.Value(fake, MetricId::kInputRate, OperatorId(0));
  EXPECT_TRUE(std::isfinite(rate));
  EXPECT_DOUBLE_EQ(rate, 0.0);
}

// Zero-selectivity everywhere plus zero costs: HR's fallbacks (neutral
// selectivity 1.0, static/neutral cost) must keep the ranking usable for
// the translators instead of emitting a flat all-zero schedule.
TEST(CrossFlavorEdgeTest, AllZeroMeasurementsFallBackToNeutralHr) {
  testing::FakeDriver fake = MakeTwoOpChain();

  MetricProvider provider;
  provider.Register(MetricId::kHighestRate);
  std::vector<SpeDriver*> drivers{&fake};
  provider.Update(drivers, Seconds(1));

  const double head = provider.Value(fake, MetricId::kHighestRate, OperatorId(0));
  const double tail = provider.Value(fake, MetricId::kHighestRate, OperatorId(1));
  EXPECT_GT(head, 0.0);
  EXPECT_GT(tail, 0.0);
  // With neutral fallbacks, the tail (shorter remaining path) ranks at
  // least as high as the head.
  EXPECT_GE(tail, head);
}

}  // namespace
}  // namespace lachesis::core
