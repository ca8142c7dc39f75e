#include "core/metric_provider.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <span>
#include <utility>

namespace lachesis::core {

namespace {

// --- built-in derived metrics (the paper's Fig 4 style graph) ---------------

class QueueSizeMetric final : public DerivedMetric {
 public:
  [[nodiscard]] MetricId id() const override { return MetricId::kQueueSize; }
  [[nodiscard]] std::vector<MetricId> deps() const override {
    return {MetricId::kBufferUsage, MetricId::kBufferCapacity};
  }
  double Compute(MetricResolver& r, const EntityInfo& e) override {
    return r.Get(MetricId::kBufferUsage, e) * r.Get(MetricId::kBufferCapacity, e);
  }
};

class CostMetric final : public DerivedMetric {
 public:
  [[nodiscard]] MetricId id() const override { return MetricId::kCost; }
  [[nodiscard]] std::vector<MetricId> deps() const override {
    return {MetricId::kBusyDeltaNs, MetricId::kTuplesInDelta};
  }
  double Compute(MetricResolver& r, const EntityInfo& e) override {
    const double in = r.Get(MetricId::kTuplesInDelta, e);
    if (in <= 0) return 0.0;
    return r.Get(MetricId::kBusyDeltaNs, e) / in;
  }
};

class SelectivityMetric final : public DerivedMetric {
 public:
  [[nodiscard]] MetricId id() const override { return MetricId::kSelectivity; }
  [[nodiscard]] std::vector<MetricId> deps() const override {
    return {MetricId::kTuplesOutDelta, MetricId::kTuplesInDelta};
  }
  double Compute(MetricResolver& r, const EntityInfo& e) override {
    const double in = r.Get(MetricId::kTuplesInDelta, e);
    if (in <= 0) return 0.0;
    return r.Get(MetricId::kTuplesOutDelta, e) / in;
  }
};

class InputRateMetric final : public DerivedMetric {
 public:
  [[nodiscard]] MetricId id() const override { return MetricId::kInputRate; }
  [[nodiscard]] std::vector<MetricId> deps() const override {
    return {MetricId::kTuplesInDelta};
  }
  double Compute(MetricResolver& r, const EntityInfo& e) override {
    const double window_s = ToSeconds(r.window());
    if (window_s <= 0) return 0.0;
    return r.Get(MetricId::kTuplesInDelta, e) / window_s;
  }
};

// Highest Rate (Sharaf et al. [50]): for each operator, the best output rate
// of any path from it to a sink: max over paths of prod(selectivity) /
// sum(cost). Logical-level values are aggregated over the physical replicas
// implementing each logical operator, then the per-entity value is the best
// over the entity's (possibly fused) logical operators.
//
// The logical rates depend only on the query, so they are computed once per
// query and resolution pass and shared by the query's entities.
class HighestRateMetric final : public DerivedMetric {
 public:
  [[nodiscard]] MetricId id() const override { return MetricId::kHighestRate; }
  [[nodiscard]] std::vector<MetricId> deps() const override {
    return {MetricId::kCost, MetricId::kSelectivity};
  }
  double Compute(MetricResolver& r, const EntityInfo& e) override {
    if (r.generation() != generation_) {
      generation_ = r.generation();
      slot_of_.Clear();
      used_ = 0;
    }
    std::uint32_t slot = 0;
    if (const std::uint32_t* found = slot_of_.Find(e.query)) {
      slot = *found;
    } else {
      slot = Aggregate(r, e.query);
      slot_of_.Insert(e.query, slot);
    }
    const std::vector<double>& rates = queries_[slot].rates;
    double best = 0.0;
    for (const int l : e.logical_indices) {
      best = std::max(best, rates[static_cast<std::size_t>(l)]);
    }
    return best;
  }

 private:
  struct QueryRates {
    std::vector<double> cost;
    std::vector<double> sel;
    std::vector<int> replicas;
    std::vector<double> rates;  // best path rate per logical operator
  };
  struct Frame {
    int op;
    double sel_product;
    double cost_sum;
  };

  // Fills a slot with the query's logical rates; returns the slot.
  std::uint32_t Aggregate(MetricResolver& r, QueryId query) {
    const std::uint32_t slot = used_++;
    if (queries_.size() <= slot) queries_.emplace_back();
    const LogicalTopology& topo = r.Topology(query);
    const auto n = static_cast<std::size_t>(topo.size());
    queries_[slot].cost.assign(n, 0.0);
    queries_[slot].sel.assign(n, 0.0);
    queries_[slot].replicas.assign(n, 0);

    // Aggregate physical cost/selectivity onto logical operators. Get may
    // derive a user metric that resolves another query's rates, growing
    // queries_, so the slot is looked up again after it.
    for (const EntityInfo* other : r.QueryEntities(query)) {
      const double c = r.Get(MetricId::kCost, *other);
      const double s = r.Get(MetricId::kSelectivity, *other);
      QueryRates& q = queries_[slot];
      for (const int l : other->logical_indices) {
        q.cost[static_cast<std::size_t>(l)] += c;
        q.sel[static_cast<std::size_t>(l)] += s;
        ++q.replicas[static_cast<std::size_t>(l)];
      }
    }
    QueryRates& q = queries_[slot];
    for (std::size_t idx = 0; idx < n; ++idx) {
      if (q.replicas[idx] > 0) {
        q.cost[idx] /= q.replicas[idx];
        q.sel[idx] /= q.replicas[idx];
      }
      // Unmeasured operators fall back to static hints / neutral values so
      // HR still produces a usable schedule during warm-up.
      if (q.cost[idx] <= 0) {
        q.cost[idx] = topo.base_costs.empty() || topo.base_costs[idx] <= 0
                          ? 1000.0
                          : topo.base_costs[idx];
      }
      if (q.sel[idx] <= 0) q.sel[idx] = 1.0;
    }

    // Downstream adjacency in edge order: op's targets are
    // down_[down_begin_[op] .. down_begin_[op + 1]).
    // Counts become end offsets; filling from the back leaves the begins.
    down_begin_.assign(n + 1, 0);
    const auto in_range = [n](int op) {
      return op >= 0 && static_cast<std::size_t>(op) < n;
    };
    for (const auto& [from, to] : topo.edges) {
      if (in_range(from)) ++down_begin_[static_cast<std::size_t>(from)];
    }
    for (std::size_t idx = 1; idx <= n; ++idx) {
      down_begin_[idx] += down_begin_[idx - 1];
    }
    down_.resize(down_begin_[n]);
    for (auto it = topo.edges.rbegin(); it != topo.edges.rend(); ++it) {
      if (in_range(it->first)) {
        down_[--down_begin_[static_cast<std::size_t>(it->first)]] = it->second;
      }
    }

    q.rates.resize(n);
    for (std::size_t idx = 0; idx < n; ++idx) {
      q.rates[idx] = BestPathRate(q.cost, q.sel, static_cast<int>(idx));
    }
    return slot;
  }

  // DFS over the DAG enumerating (selectivity product, cost sum) per path to
  // a sink; returns the best ratio. Query DAGs are small, so enumeration is
  // fine.
  double BestPathRate(const std::vector<double>& cost,
                      const std::vector<double>& sel, int from) {
    double best = 0.0;
    stack_.clear();
    stack_.push_back({from, sel[static_cast<std::size_t>(from)],
                      cost[static_cast<std::size_t>(from)]});
    while (!stack_.empty()) {
      const Frame f = stack_.back();
      stack_.pop_back();
      const std::uint32_t begin = down_begin_[static_cast<std::size_t>(f.op)];
      const std::uint32_t end = down_begin_[static_cast<std::size_t>(f.op) + 1];
      if (begin == end) {
        if (f.cost_sum > 0) best = std::max(best, f.sel_product / f.cost_sum);
        continue;
      }
      for (std::uint32_t i = begin; i < end; ++i) {
        const int d = down_[i];
        stack_.push_back({d, f.sel_product * sel[static_cast<std::size_t>(d)],
                          f.cost_sum + cost[static_cast<std::size_t>(d)]});
      }
    }
    return best;
  }

  // Rates of the queries resolved in the current generation; slots (and
  // their capacity) are reused by the next generation.
  std::uint64_t generation_ = 0;
  FlatMap<QueryId, std::uint32_t> slot_of_;
  std::vector<QueryRates> queries_;
  std::uint32_t used_ = 0;
  // Path-enumeration scratch.
  std::vector<std::uint32_t> down_begin_;
  std::vector<int> down_;
  std::vector<Frame> stack_;
};

}  // namespace

// Per-driver resolver implementing Algorithm 3's compute() with cache.
class DriverResolver final : public MetricResolver {
 public:
  DriverResolver(MetricProvider& provider, SpeDriver& driver,
                 MetricProvider::DriverState& state, SimDuration window,
                 std::uint64_t generation)
      : provider_(&provider),
        driver_(&driver),
        state_(&state),
        window_(window),
        generation_(generation) {}

  double Get(MetricId metric, const EntityInfo& entity) override {
    // Entities outside the snapshot resolve without a cache cell.
    const std::uint32_t* index = state_->index.Find(entity.id);
    const std::size_t cell =
        index == nullptr ? 0
                         : *index * kMetricCount + static_cast<std::size_t>(metric);
    // L10-11: already computed in this period.
    if (index != nullptr && state_->known[cell] != 0) return state_->values[cell];
    double value = 0.0;
    if (driver_->Provides(metric)) {
      // L12-13: available directly from the driver.
      value = driver_->Fetch(metric, entity);
    } else {
      // L14-15: primitive metric missing -> configuration error.
      DerivedMetric* derived =
          provider_->derived_[static_cast<std::size_t>(metric)].get();
      if (derived == nullptr) {
        throw ConfigurationError(std::string("metric '") + MetricName(metric) +
                                 "' is neither provided by driver '" +
                                 driver_->name() + "' nor derivable");
      }
      // A user-installed derived metric may (transitively) depend on itself;
      // Algorithm 3's recursion must fail loudly instead of overflowing.
      const std::pair<MetricId, OperatorId> key{metric, entity.id};
      auto& in_flight = state_->in_flight;
      if (std::find(in_flight.begin(), in_flight.end(), key) != in_flight.end()) {
        throw ConfigurationError(std::string("metric '") + MetricName(metric) +
                                 "' has a cyclic dependency");
      }
      // L16-18: compute recursively from dependencies. The key is popped
      // on unwind too, so the stack stays balanced if a metric catches a
      // nested error.
      in_flight.push_back(key);
      struct Pop {
        std::vector<std::pair<MetricId, OperatorId>>* stack;
        ~Pop() { stack->pop_back(); }
      } pop{&in_flight};
      value = derived->Compute(*this, entity);
    }
    if (index != nullptr) {
      state_->values[cell] = value;
      state_->known[cell] = 1;
    }
    return value;
  }

  std::span<const EntityInfo* const> QueryEntities(QueryId query) override {
    const std::uint32_t* ordinal = state_->query_ordinal.Find(query);
    if (ordinal == nullptr) return {};
    const std::uint32_t begin = state_->query_begin[*ordinal];
    const std::uint32_t end = state_->query_begin[*ordinal + 1];
    return {state_->members.data() + begin, end - begin};
  }

  const LogicalTopology& Topology(QueryId query) override {
    return driver_->Topology(query);
  }

  [[nodiscard]] SimDuration window() const override { return window_; }
  [[nodiscard]] std::uint64_t generation() const override { return generation_; }

 private:
  MetricProvider* provider_;
  SpeDriver* driver_;
  MetricProvider::DriverState* state_;
  SimDuration window_;
  std::uint64_t generation_;
};

MetricProvider::MetricProvider() {
  InstallDerived(std::make_unique<QueueSizeMetric>());
  InstallDerived(std::make_unique<CostMetric>());
  InstallDerived(std::make_unique<SelectivityMetric>());
  InstallDerived(std::make_unique<InputRateMetric>());
  InstallDerived(std::make_unique<HighestRateMetric>());
}

void MetricProvider::InstallDerived(std::unique_ptr<DerivedMetric> metric) {
  const MetricId id = metric->id();
  derived_[static_cast<std::size_t>(id)] = std::move(metric);
}

void MetricProvider::DriverState::Reset(std::vector<EntityInfo> snapshot) {
  entities = std::move(snapshot);
  const auto n = static_cast<std::uint32_t>(entities.size());
  index.Clear();
  query_ordinal.Clear();
  query_begin.clear();
  // First index per id; an ordinal per query, with its member count.
  for (std::uint32_t i = 0; i < n; ++i) {
    const EntityInfo& e = entities[i];
    const std::size_t ids = index.size();
    std::uint32_t* first = index.FindOrInsert(e.id);
    if (index.size() != ids) *first = i;
    const std::size_t queries = query_ordinal.size();
    std::uint32_t* ordinal = query_ordinal.FindOrInsert(e.query);
    if (query_ordinal.size() != queries) {
      *ordinal = static_cast<std::uint32_t>(query_begin.size());
      query_begin.push_back(0);
    }
    ++query_begin[*ordinal];
  }
  // Counting sort: counts become end offsets, then filling each query from
  // its end backwards keeps snapshot order and leaves its begin offset.
  for (std::size_t o = 1; o < query_begin.size(); ++o) {
    query_begin[o] += query_begin[o - 1];
  }
  members.resize(n);
  for (std::uint32_t i = n; i-- > 0;) {
    const std::uint32_t ordinal = *query_ordinal.Find(entities[i].query);
    members[--query_begin[ordinal]] = &entities[i];
  }
  query_begin.push_back(n);
  values.resize(static_cast<std::size_t>(n) * kMetricCount);
  ClearValues();
}

void MetricProvider::DriverState::ClearValues() {
  known.assign(entities.size() * kMetricCount, 0);
  in_flight.clear();
}

void MetricProvider::Update(const std::vector<SpeDriver*>& drivers,
                            SimDuration window) {
  for (SpeDriver* driver : drivers) {
    DriverState& state = states_[driver];
    // L4: fresh per-driver cache each period; the entity snapshot and its
    // index are kept while the driver's generation holds.
    const std::uint64_t generation = driver->EntitiesGeneration();
    if (generation == 0 || generation != state.entities_generation) {
      state.Reset(driver->Entities());
      state.entities_generation = generation;
    } else {
      state.ClearValues();
    }
    DriverResolver resolver(*this, *driver, state, window, ++generation_);
    for (const MetricId metric : registered_) {  // L5-7
      for (const EntityInfo& e : state.entities) {
        resolver.Get(metric, e);
      }
    }
  }
}

double MetricProvider::Value(const SpeDriver& driver, MetricId metric,
                             OperatorId entity) const {
  const auto state_it = states_.find(&driver);
  assert(state_it != states_.end() && "Update must run before Value");
  const DriverState& state = state_it->second;
  const std::uint32_t* index = state.index.Find(entity);
  assert(index != nullptr && "entity not in the last snapshot");
  const std::size_t cell = *index * kMetricCount + static_cast<std::size_t>(metric);
  assert(state.known[cell] != 0 && "metric not computed");
  return state.values[cell];
}

const std::vector<EntityInfo>& MetricProvider::EntitiesOf(
    const SpeDriver& driver) const {
  const auto it = states_.find(&driver);
  assert(it != states_.end());
  return it->second.entities;
}

}  // namespace lachesis::core
