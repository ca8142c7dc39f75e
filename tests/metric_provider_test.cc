// Tests of the metric provider: Algorithm 3's direct fetch, recursive
// dependency resolution (the paper's Fig 4 example), per-period cache, and
// configuration-error behaviour.
#include "core/metric_provider.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "tests/fake_driver.h"

namespace lachesis::core {
namespace {

using testing::FakeDriver;

TEST(MetricProviderTest, FetchesDirectlyWhenDriverProvides) {
  FakeDriver driver;
  const EntityInfo e = driver.AddEntity(QueryId(0), {0});
  driver.Provide(MetricId::kQueueSize);
  driver.SetValue(MetricId::kQueueSize, e.id, 42);

  MetricProvider provider;
  provider.Register(MetricId::kQueueSize);
  provider.Update({&driver}, Seconds(1));
  EXPECT_DOUBLE_EQ(provider.Value(driver, MetricId::kQueueSize, e.id), 42);
}

TEST(MetricProviderTest, DerivesQueueSizeFromBufferMetrics) {
  // Flink-style driver: no queue size, but buffer usage and capacity.
  FakeDriver driver;
  const EntityInfo e = driver.AddEntity(QueryId(0), {0});
  driver.Provide(MetricId::kBufferUsage);
  driver.Provide(MetricId::kBufferCapacity);
  driver.SetValue(MetricId::kBufferUsage, e.id, 0.25);
  driver.SetValue(MetricId::kBufferCapacity, e.id, 64);

  MetricProvider provider;
  provider.Register(MetricId::kQueueSize);
  provider.Update({&driver}, Seconds(1));
  EXPECT_DOUBLE_EQ(provider.Value(driver, MetricId::kQueueSize, e.id), 16);
}

TEST(MetricProviderTest, DerivesCostAndSelectivityFromDeltas) {
  FakeDriver driver;
  const EntityInfo e = driver.AddEntity(QueryId(0), {0});
  driver.Provide(MetricId::kTuplesInDelta);
  driver.Provide(MetricId::kTuplesOutDelta);
  driver.Provide(MetricId::kBusyDeltaNs);
  driver.SetValue(MetricId::kTuplesInDelta, e.id, 100);
  driver.SetValue(MetricId::kTuplesOutDelta, e.id, 250);
  driver.SetValue(MetricId::kBusyDeltaNs, e.id, 5'000'000);

  MetricProvider provider;
  provider.Register(MetricId::kCost);
  provider.Register(MetricId::kSelectivity);
  provider.Update({&driver}, Seconds(1));
  EXPECT_DOUBLE_EQ(provider.Value(driver, MetricId::kCost, e.id), 50'000);
  EXPECT_DOUBLE_EQ(provider.Value(driver, MetricId::kSelectivity, e.id), 2.5);
}

TEST(MetricProviderTest, PrefersDirectFetchOverDerivation) {
  // Driver provides BOTH cost and its dependencies; Algorithm 3 L12-13 says
  // fetch directly.
  FakeDriver driver;
  const EntityInfo e = driver.AddEntity(QueryId(0), {0});
  driver.Provide(MetricId::kCost);
  driver.Provide(MetricId::kTuplesInDelta);
  driver.Provide(MetricId::kBusyDeltaNs);
  driver.SetValue(MetricId::kCost, e.id, 777);
  driver.SetValue(MetricId::kTuplesInDelta, e.id, 10);
  driver.SetValue(MetricId::kBusyDeltaNs, e.id, 10'000);

  MetricProvider provider;
  provider.Register(MetricId::kCost);
  provider.Update({&driver}, Seconds(1));
  EXPECT_DOUBLE_EQ(provider.Value(driver, MetricId::kCost, e.id), 777);
}

TEST(MetricProviderTest, CachePreventsDuplicateFetchesWithinPeriod) {
  // kCost and kSelectivity share the kTuplesInDelta dependency; with the
  // per-driver cache it must be fetched once per entity per period.
  FakeDriver driver;
  const EntityInfo e = driver.AddEntity(QueryId(0), {0});
  driver.Provide(MetricId::kTuplesInDelta);
  driver.Provide(MetricId::kTuplesOutDelta);
  driver.Provide(MetricId::kBusyDeltaNs);
  driver.SetValue(MetricId::kTuplesInDelta, e.id, 100);

  MetricProvider provider;
  provider.Register(MetricId::kCost);
  provider.Register(MetricId::kSelectivity);
  provider.Update({&driver}, Seconds(1));
  // 3 distinct leaves -> exactly 3 fetches despite 2 consumers of in-delta.
  EXPECT_EQ(driver.fetch_count(), 3);

  // A new period clears the cache: fetches happen again.
  driver.ResetFetchCount();
  provider.Update({&driver}, Seconds(1));
  EXPECT_EQ(driver.fetch_count(), 3);
}

TEST(MetricProviderTest, ThrowsConfigurationErrorOnMissingPrimitive) {
  FakeDriver driver;
  driver.AddEntity(QueryId(0), {0});
  // Queue size requested, but neither it nor buffer usage/capacity provided.
  MetricProvider provider;
  provider.Register(MetricId::kQueueSize);
  EXPECT_THROW(provider.Update({&driver}, Seconds(1)), ConfigurationError);
}

TEST(MetricProviderTest, Fig4ExampleResolvesPerDriver) {
  // SPE A (Liebre-like) exposes cost+selectivity directly; SPE B
  // (Flink-like) exposes only counts and busy time. The same registered
  // HIGHEST_RATE must resolve for both (goal G2).
  LogicalTopology topo;
  topo.names = {"src", "op", "sink"};
  topo.base_costs = {1000, 1000, 1000};
  topo.edges = {{0, 1}, {1, 2}};

  FakeDriver spe_a("liebre");
  spe_a.SetTopology(QueryId(0), topo);
  for (int i = 0; i < 3; ++i) {
    const EntityInfo e = spe_a.AddEntity(QueryId(0), {i});
    spe_a.SetValue(MetricId::kCost, e.id, 1000.0 * (i + 1));
    spe_a.SetValue(MetricId::kSelectivity, e.id, 1.0);
  }
  spe_a.Provide(MetricId::kCost);
  spe_a.Provide(MetricId::kSelectivity);

  FakeDriver spe_b("flink");
  spe_b.SetTopology(QueryId(0), topo);
  for (int i = 0; i < 3; ++i) {
    const EntityInfo e = spe_b.AddEntity(QueryId(0), {i});
    spe_b.SetValue(MetricId::kTuplesInDelta, e.id, 100);
    spe_b.SetValue(MetricId::kTuplesOutDelta, e.id, 100);
    spe_b.SetValue(MetricId::kBusyDeltaNs, e.id, 100 * 1000.0 * (i + 1));
  }
  spe_b.Provide(MetricId::kTuplesInDelta);
  spe_b.Provide(MetricId::kTuplesOutDelta);
  spe_b.Provide(MetricId::kBusyDeltaNs);

  MetricProvider provider;
  provider.Register(MetricId::kHighestRate);
  provider.Update({&spe_a, &spe_b}, Seconds(1));

  // Identical effective cost/selectivity -> identical highest-rate values,
  // computed through different dependency paths.
  for (std::uint64_t i = 0; i < 3; ++i) {
    const double a =
        provider.Value(spe_a, MetricId::kHighestRate, OperatorId(i));
    const double b =
        provider.Value(spe_b, MetricId::kHighestRate, OperatorId(i));
    EXPECT_NEAR(a, b, 1e-12) << "entity " << i;
    EXPECT_GT(a, 0);
  }
}

TEST(MetricProviderTest, HighestRatePrefersCheapProductivePaths) {
  // Two branches from op0: cheap (op1) and expensive (op2), both to sinks.
  LogicalTopology topo;
  topo.names = {"src", "cheap", "expensive", "sink1", "sink2"};
  topo.base_costs = {1000, 1000, 1000, 1000, 1000};
  topo.edges = {{0, 1}, {0, 2}, {1, 3}, {2, 4}};

  FakeDriver driver;
  driver.SetTopology(QueryId(0), topo);
  std::vector<EntityInfo> entities;
  for (int i = 0; i < 5; ++i) {
    entities.push_back(driver.AddEntity(QueryId(0), {i}));
  }
  driver.Provide(MetricId::kCost);
  driver.Provide(MetricId::kSelectivity);
  const double costs[] = {1000, 1000, 50000, 1000, 1000};
  for (int i = 0; i < 5; ++i) {
    driver.SetValue(MetricId::kCost, entities[static_cast<std::size_t>(i)].id,
                    costs[i]);
    driver.SetValue(MetricId::kSelectivity,
                    entities[static_cast<std::size_t>(i)].id, 1.0);
  }

  MetricProvider provider;
  provider.Register(MetricId::kHighestRate);
  provider.Update({&driver}, Seconds(1));
  const double cheap =
      provider.Value(driver, MetricId::kHighestRate, entities[1].id);
  const double expensive =
      provider.Value(driver, MetricId::kHighestRate, entities[2].id);
  EXPECT_GT(cheap, expensive);
  // src's best path goes through the cheap branch.
  const double src =
      provider.Value(driver, MetricId::kHighestRate, entities[0].id);
  EXPECT_GT(src, expensive);
}

TEST(MetricProviderTest, FusedEntityTakesBestLogicalRate) {
  LogicalTopology topo;
  topo.names = {"a", "b", "sink"};
  topo.base_costs = {1000, 1000, 1000};
  topo.edges = {{0, 1}, {1, 2}};

  FakeDriver driver;
  driver.SetTopology(QueryId(0), topo);
  // One fused physical operator implementing logical 0 and 1, plus a sink.
  const EntityInfo fused = driver.AddEntity(QueryId(0), {0, 1});
  const EntityInfo sink = driver.AddEntity(QueryId(0), {2});
  driver.Provide(MetricId::kCost);
  driver.Provide(MetricId::kSelectivity);
  driver.SetValue(MetricId::kCost, fused.id, 2000);
  driver.SetValue(MetricId::kSelectivity, fused.id, 1.0);
  driver.SetValue(MetricId::kCost, sink.id, 500);
  driver.SetValue(MetricId::kSelectivity, sink.id, 1.0);

  MetricProvider provider;
  provider.Register(MetricId::kHighestRate);
  provider.Update({&driver}, Seconds(1));
  // The fused entity's HR equals the max over logical 0 and 1; logical 1's
  // remaining path (b -> sink) is shorter/cheaper, so it dominates.
  const double value =
      provider.Value(driver, MetricId::kHighestRate, fused.id);
  EXPECT_GT(value, 0);
}

TEST(MetricProviderTest, UserInstalledDerivedMetricOverridesBuiltin) {
  class ConstantCost final : public DerivedMetric {
   public:
    [[nodiscard]] MetricId id() const override { return MetricId::kCost; }
    [[nodiscard]] std::vector<MetricId> deps() const override { return {}; }
    double Compute(MetricResolver&, const EntityInfo&) override { return 5.0; }
  };
  FakeDriver driver;
  const EntityInfo e = driver.AddEntity(QueryId(0), {0});
  MetricProvider provider;
  provider.InstallDerived(std::make_unique<ConstantCost>());
  provider.Register(MetricId::kCost);
  provider.Update({&driver}, Seconds(1));
  EXPECT_DOUBLE_EQ(provider.Value(driver, MetricId::kCost, e.id), 5.0);
}

// --- Highest Rate against a per-entity reference -----------------------------

using CostFn = std::function<double(const EntityInfo&)>;

// The per-entity Highest Rate the provider computed before it aggregated
// once per query: every entity re-aggregates its whole query and walks
// every path along the topology's edges.
double ReferenceHighestRate(const LogicalTopology& topo,
                            const std::vector<EntityInfo>& snapshot,
                            const CostFn& cost_of, const CostFn& sel_of,
                            const EntityInfo& e) {
  const auto n = static_cast<std::size_t>(topo.size());
  std::vector<double> cost(n, 0.0);
  std::vector<double> sel(n, 0.0);
  std::vector<int> replicas(n, 0);
  for (const EntityInfo& other : snapshot) {
    if (other.query != e.query) continue;
    const double c = cost_of(other);
    const double s = sel_of(other);
    for (const int l : other.logical_indices) {
      cost[static_cast<std::size_t>(l)] += c;
      sel[static_cast<std::size_t>(l)] += s;
      ++replicas[static_cast<std::size_t>(l)];
    }
  }
  for (std::size_t idx = 0; idx < n; ++idx) {
    if (replicas[idx] > 0) {
      cost[idx] /= replicas[idx];
      sel[idx] /= replicas[idx];
    }
    if (cost[idx] <= 0) {
      cost[idx] = topo.base_costs.empty() || topo.base_costs[idx] <= 0
                      ? 1000.0
                      : topo.base_costs[idx];
    }
    if (sel[idx] <= 0) sel[idx] = 1.0;
  }
  std::vector<std::vector<int>> downstream(n);
  for (const auto& [from, to] : topo.edges) {
    downstream[static_cast<std::size_t>(from)].push_back(to);
  }
  struct Frame {
    int op;
    double sel_product;
    double cost_sum;
  };
  double best = 0.0;
  for (const int from : e.logical_indices) {
    double path_best = 0.0;
    std::vector<Frame> stack{{from, sel[static_cast<std::size_t>(from)],
                              cost[static_cast<std::size_t>(from)]}};
    while (!stack.empty()) {
      const Frame f = stack.back();
      stack.pop_back();
      const auto& down = downstream[static_cast<std::size_t>(f.op)];
      if (down.empty()) {
        if (f.cost_sum > 0) {
          path_best = std::max(path_best, f.sel_product / f.cost_sum);
        }
        continue;
      }
      for (const int d : down) {
        stack.push_back({d, f.sel_product * sel[static_cast<std::size_t>(d)],
                         f.cost_sum + cost[static_cast<std::size_t>(d)]});
      }
    }
    best = std::max(best, path_best);
  }
  return best;
}

// A random DAG over logical operators 0..n-1 (edges only go forward), with
// a diamond 0 -> {1, 2} -> 3 whenever n >= 4. Base costs are absent, zero
// or positive per topology, so unmeasured operators exercise both
// fallbacks.
LogicalTopology RandomTopology(Rng& rng) {
  LogicalTopology topo;
  const auto n = static_cast<int>(rng.UniformInt(2, 8));
  const auto base_mode = rng.NextBounded(3);
  for (int i = 0; i < n; ++i) {
    topo.names.push_back("l" + std::to_string(i));
    if (base_mode == 1) topo.base_costs.push_back(0.0);
    if (base_mode == 2) {
      topo.base_costs.push_back(rng.NextBounded(4) == 0 ? 0.0
                                                        : rng.Uniform(100, 9000));
    }
  }
  if (n >= 4) topo.edges = {{0, 1}, {0, 2}, {1, 3}, {2, 3}};
  for (int from = 0; from < n; ++from) {
    for (int to = from + 1; to < n; ++to) {
      const bool present = std::find(topo.edges.begin(), topo.edges.end(),
                                     std::make_pair(from, to)) != topo.edges.end();
      if (!present && rng.NextDouble() < 0.3) topo.edges.emplace_back(from, to);
    }
  }
  return topo;
}

// Deploys `topo` as query `query` onto `driver`: consecutive logical
// operators are fused into entities of 1-3 indices, each with 1-3
// replicas, and some logical operators are left without any entity.
void DeployRandomQuery(Rng& rng, FakeDriver& driver, QueryId query,
                       const LogicalTopology& topo) {
  driver.SetTopology(query, topo);
  for (int l = 0; l < topo.size();) {
    const auto fused = static_cast<int>(
        std::min<std::int64_t>(rng.UniformInt(1, 3), topo.size() - l));
    std::vector<int> indices;
    for (int k = 0; k < fused; ++k) indices.push_back(l + k);
    l += fused;
    if (rng.NextDouble() < 0.1) continue;  // not deployed: never measured
    const auto replicas = static_cast<int>(rng.UniformInt(1, 3));
    for (int r = 0; r < replicas; ++r) driver.AddEntity(query, indices, r);
  }
}

// Cost and selectivity per entity, zero (unmeasured / filtering nothing
// out) about one time in five.
void MeasureRandomly(Rng& rng, FakeDriver& driver) {
  for (const EntityInfo& e : driver.Entities()) {
    driver.SetValue(MetricId::kCost, e.id,
                    rng.NextBounded(5) == 0 ? 0.0 : rng.Uniform(50, 20000));
    driver.SetValue(MetricId::kSelectivity, e.id,
                    rng.NextBounded(5) == 0 ? 0.0 : rng.Uniform(0.01, 3.0));
  }
}

// Reads a provided metric back the way the provider fetched it.
CostFn Fetched(FakeDriver& driver, MetricId metric) {
  return [&driver, metric](const EntityInfo& e) { return driver.Fetch(metric, e); };
}

// Expects every entity's HR to equal the reference bit for bit.
void ExpectMatchesReference(const MetricProvider& provider, FakeDriver& driver,
                            const CostFn& cost_of, const CostFn& sel_of) {
  const std::vector<EntityInfo> snapshot = driver.Entities();
  for (const EntityInfo& e : snapshot) {
    EXPECT_EQ(provider.Value(driver, MetricId::kHighestRate, e.id),
              ReferenceHighestRate(driver.Topology(e.query), snapshot, cost_of,
                                   sel_of, e))
        << driver.name() << " entity " << e.id;
  }
}

TEST(HighestRateReferenceTest, RandomDagsMatchPerEntityReferenceExactly) {
  for (std::uint64_t seed = 1; seed <= 220; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    FakeDriver driver;
    driver.Provide(MetricId::kCost);
    driver.Provide(MetricId::kSelectivity);
    const auto queries = rng.UniformInt(1, 3);
    for (std::int64_t q = 0; q < queries; ++q) {
      DeployRandomQuery(rng, driver, QueryId(static_cast<std::uint64_t>(q)),
                        RandomTopology(rng));
    }
    MeasureRandomly(rng, driver);

    MetricProvider provider;
    provider.Register(MetricId::kHighestRate);
    provider.Update({&driver}, Seconds(1));
    ExpectMatchesReference(provider, driver,
                           Fetched(driver, MetricId::kCost),
                           Fetched(driver, MetricId::kSelectivity));
  }
}

TEST(HighestRateReferenceTest, ValuesFollowEachUpdate) {
  Rng rng(7);
  FakeDriver driver;
  driver.Provide(MetricId::kCost);
  driver.Provide(MetricId::kSelectivity);
  LogicalTopology topo;
  topo.names = {"a", "b", "c", "d"};
  topo.edges = {{0, 1}, {0, 2}, {1, 3}, {2, 3}};
  DeployRandomQuery(rng, driver, QueryId(0), topo);
  MeasureRandomly(rng, driver);
  MetricProvider provider;
  provider.Register(MetricId::kHighestRate);
  provider.Update({&driver}, Seconds(1));
  const EntityInfo first = driver.Entities().front();
  const double before = provider.Value(driver, MetricId::kHighestRate, first.id);

  // Make every operator twice as expensive: the next Update must not serve
  // the previous Update's aggregates.
  for (const EntityInfo& e : driver.Entities()) {
    driver.SetValue(MetricId::kCost, e.id, 2 * driver.Fetch(MetricId::kCost, e) + 1);
  }
  provider.Update({&driver}, Seconds(1));
  EXPECT_NE(provider.Value(driver, MetricId::kHighestRate, first.id), before);
  ExpectMatchesReference(provider, driver, Fetched(driver, MetricId::kCost),
                         Fetched(driver, MetricId::kSelectivity));
}

TEST(HighestRateReferenceTest, DriversSharingAQueryIdKeepSeparateAggregates) {
  // Both engines number their first query 0, with different shapes and
  // costs; one Update resolves both.
  Rng rng(11);
  FakeDriver spe_a("a");
  FakeDriver spe_b("b");
  for (FakeDriver* driver : {&spe_a, &spe_b}) {
    driver->Provide(MetricId::kCost);
    driver->Provide(MetricId::kSelectivity);
    DeployRandomQuery(rng, *driver, QueryId(0), RandomTopology(rng));
    MeasureRandomly(rng, *driver);
  }
  MetricProvider provider;
  provider.Register(MetricId::kHighestRate);
  provider.Update({&spe_a, &spe_b}, Seconds(1));
  ExpectMatchesReference(provider, spe_a, Fetched(spe_a, MetricId::kCost),
                         Fetched(spe_a, MetricId::kSelectivity));
  ExpectMatchesReference(provider, spe_b, Fetched(spe_b, MetricId::kCost),
                         Fetched(spe_b, MetricId::kSelectivity));
}

TEST(HighestRateReferenceTest, UserInstalledCostFeedsHighestRate) {
  class IdCost final : public DerivedMetric {
   public:
    [[nodiscard]] MetricId id() const override { return MetricId::kCost; }
    [[nodiscard]] std::vector<MetricId> deps() const override { return {}; }
    double Compute(MetricResolver&, const EntityInfo& e) override {
      return 100.0 * static_cast<double>(e.id.value() + 1);
    }
  };
  Rng rng(13);
  FakeDriver driver;
  driver.Provide(MetricId::kSelectivity);  // cost is not provided
  DeployRandomQuery(rng, driver, QueryId(0), RandomTopology(rng));
  MeasureRandomly(rng, driver);
  MetricProvider provider;
  provider.InstallDerived(std::make_unique<IdCost>());
  provider.Register(MetricId::kHighestRate);
  provider.Update({&driver}, Seconds(1));
  ExpectMatchesReference(
      provider, driver,
      [](const EntityInfo& e) { return 100.0 * static_cast<double>(e.id.value() + 1); },
      Fetched(driver, MetricId::kSelectivity));
}

}  // namespace
}  // namespace lachesis::core
