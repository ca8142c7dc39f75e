#include "osctl/native_runtime_driver.h"

#include <cassert>

namespace lachesis::osctl {

NativeRuntimeDriver::NativeRuntimeDriver(spe::NativeRuntime& runtime,
                                         SimDuration delta_window)
    : runtime_(&runtime),
      name_(runtime.name()),
      reader_(spe::NativeRuntime::ExposedMetrics(), delta_window),
      store_(delta_window) {}

std::string NativeRuntimeDriver::SeriesPrefix(
    const spe::NativeRuntime& runtime, const spe::NativeOperator& op) {
  return runtime.query_name(static_cast<std::size_t>(op.query_index())) + "." +
         op.name();
}

void NativeRuntimeDriver::Poll(SimTime now) {
  // ForEachRawMetric visits runtime_->ops() in order, one operator's
  // metrics together, so an operator sits at the cursor's position (its
  // entity id) or the next one. Two words of capture keep the callback
  // inside std::function's small buffer.
  struct Cursor {
    SimTime now;
    std::size_t index;
  } cursor{now, 0};
  runtime_->ForEachRawMetric([this, &cursor](const spe::NativeOperator& op,
                                             spe::RawMetric metric,
                                             double value) {
    if (runtime_->ops()[cursor.index].get() != &op) ++cursor.index;
    assert(runtime_->ops()[cursor.index].get() == &op);
    const tsdb::SeriesId series = polled_.Get(
        cursor.index, static_cast<std::size_t>(metric), [&] {
          return store_.Intern(
              tsdb::SeriesName(SeriesPrefix(*runtime_, op), metric));
        });
    store_.Append(series, cursor.now, value);
  });
}

std::vector<core::EntityInfo> NativeRuntimeDriver::Entities() {
  std::vector<core::EntityInfo> result;
  std::uint64_t id = 0;
  for (const auto& op_ptr : runtime_->ops()) {
    const spe::NativeOperator& op = *op_ptr;
    core::EntityInfo e;
    e.id = OperatorId(id++);
    e.path = SeriesPrefix(*runtime_, op);
    e.query = QueryId(static_cast<std::uint64_t>(op.query_index()));
    e.query_name =
        runtime_->query_name(static_cast<std::size_t>(op.query_index()));
    e.logical_indices = {op.logical_index()};
    e.replica = 0;  // native surface: one replica per logical operator
    e.is_ingress = op.role() == spe::OperatorRole::kIngress;
    e.is_egress = op.role() == spe::OperatorRole::kEgress;
    e.thread.os_tid = op.tid();
    result.push_back(std::move(e));
  }
  return result;
}

std::uint64_t NativeRuntimeDriver::EntitiesGeneration() const {
  const auto& ops = runtime_->ops();
  bool changed = generation_ == 0 || ops.size() != generation_tids_.size();
  generation_tids_.resize(ops.size());
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const long tid = ops[i]->tid();
    if (tid != generation_tids_[i]) {
      generation_tids_[i] = tid;
      changed = true;
    }
  }
  if (changed) generation_ = core::NextEntitiesGeneration();
  return generation_;
}

const core::LogicalTopology& NativeRuntimeDriver::Topology(QueryId query) {
  if (const auto it = topologies_.find(query); it != topologies_.end()) {
    return it->second;
  }
  return topologies_
      .emplace(query, core::TopologyOf(runtime_->query(
                          static_cast<std::size_t>(query.value()))))
      .first->second;
}

bool NativeRuntimeDriver::Provides(core::MetricId metric) const {
  return reader_.Provides(metric);
}

double NativeRuntimeDriver::Fetch(core::MetricId metric,
                                  const core::EntityInfo& entity) {
  return reader_.Read(store_, metric, entity);
}

}  // namespace lachesis::osctl
