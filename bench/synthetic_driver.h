// The synthetic control plane of bench_runner_tick and bench_fault_overhead:
// an in-memory driver and an OS adapter that absorbs every operation, so a
// bench times the runner's tick (provider -> policy -> translator -> delta
// layer -> adapter call) and neither an engine nor a backend.
#ifndef LACHESIS_BENCH_SYNTHETIC_DRIVER_H_
#define LACHESIS_BENCH_SYNTHETIC_DRIVER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/driver.h"
#include "core/os_adapter.h"

namespace lachesis::bench {

// In-memory driver over synthetic entities; queue sizes are scripted so the
// schedule is either constant across ticks or reshuffles every tick.
class SyntheticDriver final : public core::SpeDriver {
 public:
  SyntheticDriver(int queries, int operators_per_query, bool churn)
      : churn_(churn) {
    for (int q = 0; q < queries; ++q) {
      for (int o = 0; o < operators_per_query; ++o) {
        core::EntityInfo e;
        e.id = OperatorId(entities_.size());
        e.path = "spe.q" + std::to_string(q) + ".op" + std::to_string(o);
        e.query = QueryId(q);
        e.query_name = "q" + std::to_string(q);
        e.thread.sim_tid = ThreadId(entities_.size());
        entities_.push_back(e);
      }
    }
  }

  [[nodiscard]] const std::string& name() const override { return name_; }
  void Poll(SimTime) override { ++polls_; }
  std::vector<core::EntityInfo> Entities() override { return entities_; }
  const core::LogicalTopology& Topology(QueryId) override {
    return topology_;
  }
  [[nodiscard]] bool Provides(core::MetricId metric) const override {
    return metric == core::MetricId::kQueueSize;
  }
  double Fetch(core::MetricId, const core::EntityInfo& entity) override {
    // Churn rotates which entity looks busiest, forcing a different
    // schedule (and different nice values) every tick.
    const std::uint64_t id = entity.id.value();
    return churn_ ? static_cast<double>((id + polls_) % entities_.size())
                  : static_cast<double>(id);
  }

 private:
  std::string name_ = "synthetic";
  bool churn_;
  std::uint64_t polls_ = 0;
  std::vector<core::EntityInfo> entities_;
  core::LogicalTopology topology_;
};

// Absorbs operations at near-zero cost so the bench measures the control
// plane, not a backend.
class NullOsAdapter final : public core::OsAdapter {
 public:
  void SetNice(const core::ThreadHandle&, int) override { ++ops; }
  void SetGroupShares(const std::string&, std::uint64_t) override { ++ops; }
  void MoveToGroup(const core::ThreadHandle&, const std::string&) override {
    ++ops;
  }
  std::uint64_t ops = 0;
};

}  // namespace lachesis::bench

#endif  // LACHESIS_BENCH_SYNTHETIC_DRIVER_H_
