#include "core/sim_driver.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace lachesis::core {

SimSpeDriver::SimSpeDriver(spe::SpeInstance& instance,
                           const tsdb::TimeSeriesStore& store,
                           SimDuration delta_window)
    : instance_(&instance),
      store_(&store),
      name_(instance.name()),
      reader_(instance.flavor().exposed_metrics, delta_window) {
  if (delta_window > store.retention()) {
    throw std::invalid_argument(
        "SimSpeDriver: delta window " + std::to_string(delta_window) +
        " ns exceeds the store's retention of " +
        std::to_string(store.retention()) + " ns");
  }
}

std::vector<EntityInfo> SimSpeDriver::Entities() {
  std::vector<EntityInfo> result;
  for (const auto& query : instance_->queries()) {
    for (const spe::DeployedOp& d : query->ops) {
      EntityInfo e;
      e.id = d.id;
      e.path = d.op->config().name;
      e.query = query->id;
      e.query_name = query->name;
      e.logical_indices = d.logical_indices;
      e.replica = d.replica;
      e.is_ingress = d.op->config().role == spe::OperatorRole::kIngress;
      e.is_egress = d.op->config().role == spe::OperatorRole::kEgress;
      e.thread.machine =
          instance_->machines()[static_cast<std::size_t>(d.machine_index)];
      e.thread.sim_tid = d.thread;
      result.push_back(std::move(e));
    }
  }
  return result;
}

std::uint64_t SimSpeDriver::EntitiesGeneration() const {
  const std::size_t queries = instance_->queries().size();
  if (generation_ == 0 || queries != generation_queries_) {
    generation_ = NextEntitiesGeneration();
    generation_queries_ = queries;
  }
  return generation_;
}

const LogicalTopology& SimSpeDriver::Topology(QueryId query) {
  if (const auto it = topologies_.find(query); it != topologies_.end()) {
    return it->second;
  }
  assert(query.value() < instance_->queries().size());
  const spe::DeployedQuery& deployed =
      *instance_->queries()[static_cast<std::size_t>(query.value())];
  return topologies_.emplace(query, TopologyOf(deployed.logical)).first->second;
}

bool SimSpeDriver::Provides(MetricId metric) const {
  // PSI-style pressure comes from the OS, not the SPE: every engine has it.
  return metric == MetricId::kCpuPressure || reader_.Provides(metric);
}

double SimSpeDriver::Fetch(MetricId metric, const EntityInfo& entity) {
  if (metric != MetricId::kCpuPressure) {
    return reader_.Read(*store_, metric, entity);
  }
  // Fresh read from the (simulated) kernel's per-task accounting.
  if (entity.thread.machine == nullptr) return 0.0;
  const auto total = static_cast<double>(
      entity.thread.machine->GetStats(entity.thread.sim_tid).wait_time);
  double& last = last_wait_ns_[entity.id];
  const double delta = std::max(total - last, 0.0);
  last = total;
  return delta;
}

}  // namespace lachesis::core
