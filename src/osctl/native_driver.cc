#include "osctl/native_driver.h"

#include <fstream>
#include <sstream>

#include "osctl/procfs.h"

namespace lachesis::osctl {

NativeSpeDriver::NativeSpeDriver(NativeSpeConfig config)
    : config_(std::move(config)),
      name_(config_.name),
      reader_(config_.provided) {
  for (const NativeQueryConfig& query : config_.queries) {
    core::LogicalTopology topo;
    for (int i = 0; i < static_cast<int>(query.operators.size()); ++i) {
      const auto& op = query.operators[static_cast<std::size_t>(i)];
      topo.names.push_back(op.name);
      topo.base_costs.push_back(0);
      if (op.is_ingress) topo.ingress_indices.push_back(i);
      if (op.is_egress) topo.egress_indices.push_back(i);
    }
    topo.edges = query.edges;
    topologies_.push_back(std::move(topo));
  }
}

void NativeSpeDriver::Refresh(SimTime now) {
  // 1. Resolve operator threads via /proc (tolerates engine restarts: a
  //    vanished tid is re-resolved on the next refresh).
  for (std::size_t q = 0; q < config_.queries.size(); ++q) {
    const NativeQueryConfig& query = config_.queries[q];
    if (query.pid < 0) continue;
    const auto threads = ListThreads(query.pid, config_.proc_root);
    for (std::size_t o = 0; o < query.operators.size(); ++o) {
      const long resolved =
          ResolveThreadByName(threads, query.operators[o].thread_pattern);
      const auto [it, inserted] = tids_.try_emplace({q, o}, resolved);
      if (inserted || it->second != resolved) {
        it->second = resolved;
        generation_ = 0;
      }
    }
  }

  // 2. Tail the graphite-plaintext metrics file into the store.
  if (config_.metrics_file.empty()) return;
  std::ifstream in(config_.metrics_file);
  if (!in) return;
  in.seekg(0, std::ios::end);
  const std::streamoff size = in.tellg();
  if (size < metrics_offset_) metrics_offset_ = 0;  // file was rotated
  in.seekg(metrics_offset_);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string series;
    double value = 0;
    double timestamp = 0;
    if (fields >> series >> value) {
      // Timestamp column is optional; default to "now".
      SimTime when = now;
      if (fields >> timestamp) {
        when = static_cast<SimTime>(timestamp * static_cast<double>(kSecond));
      }
      store_.Append(series, when, value);
    }
  }
  in.clear();
  metrics_offset_ =
      in.tellg() == std::streampos(-1) ? size : std::streamoff(in.tellg());
}

std::vector<core::EntityInfo> NativeSpeDriver::Entities() {
  std::vector<core::EntityInfo> result;
  std::uint64_t next_id = 0;
  for (std::size_t q = 0; q < config_.queries.size(); ++q) {
    const NativeQueryConfig& query = config_.queries[q];
    for (std::size_t o = 0; o < query.operators.size(); ++o) {
      const NativeOperatorConfig& op = query.operators[o];
      core::EntityInfo e;
      e.id = OperatorId(next_id++);
      e.path = op.series_prefix;
      e.query = QueryId(q);
      e.query_name = query.name;
      e.logical_indices = {static_cast<int>(o)};
      e.is_ingress = op.is_ingress;
      e.is_egress = op.is_egress;
      const auto it = tids_.find({q, o});
      e.thread.os_tid = it != tids_.end() ? it->second : -1;
      result.push_back(std::move(e));
    }
  }
  return result;
}

std::uint64_t NativeSpeDriver::EntitiesGeneration() const {
  if (generation_ == 0) generation_ = core::NextEntitiesGeneration();
  return generation_;
}

const core::LogicalTopology& NativeSpeDriver::Topology(QueryId query) {
  return topologies_.at(query.value());
}

}  // namespace lachesis::osctl
