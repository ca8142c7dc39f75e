// A scriptable SpeDriver for core-layer tests: declares which metrics it
// provides, serves canned values, and counts Fetch calls (to verify the
// metric provider's per-period cache, Algorithm 3).
#ifndef LACHESIS_TESTS_FAKE_DRIVER_H_
#define LACHESIS_TESTS_FAKE_DRIVER_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/driver.h"
#include "core/os_adapter.h"

namespace lachesis::core::testing {

class FakeDriver final : public SpeDriver {
 public:
  explicit FakeDriver(std::string name = "fake") : name_(std::move(name)) {}

  [[nodiscard]] const std::string& name() const override { return name_; }

  std::vector<EntityInfo> Entities() override { return entities_; }

  // 0 (re-snapshot every period) unless TrackGenerations() was called;
  // then a fresh generation, moved by every AddEntity.
  [[nodiscard]] std::uint64_t EntitiesGeneration() const override {
    return generation_;
  }
  void TrackGenerations() { generation_ = NextEntitiesGeneration(); }

  const LogicalTopology& Topology(QueryId query) override {
    return topologies_.at(query);
  }

  [[nodiscard]] bool Provides(MetricId metric) const override {
    return provided_.count(metric) > 0;
  }

  double Fetch(MetricId metric, const EntityInfo& entity) override {
    ++fetch_count_;
    const auto it = values_.find({metric, entity.id});
    return it != values_.end() ? it->second : 0.0;
  }

  // --- scripting -----------------------------------------------------------
  EntityInfo& AddEntity(QueryId query, std::vector<int> logical_indices,
                        int replica = 0) {
    EntityInfo e;
    e.id = OperatorId(entities_.size());
    e.path = name_ + ".q" + std::to_string(query.value()) + ".op" +
             std::to_string(entities_.size());
    e.query = query;
    e.query_name = "q" + std::to_string(query.value());
    e.logical_indices = std::move(logical_indices);
    e.replica = replica;
    e.thread.sim_tid = ThreadId(entities_.size());
    entities_.push_back(e);
    if (generation_ != 0) generation_ = NextEntitiesGeneration();
    return entities_.back();
  }

  void Provide(MetricId metric) { provided_.insert(metric); }
  void SetValue(MetricId metric, OperatorId entity, double value) {
    values_[{metric, entity}] = value;
  }
  void SetTopology(QueryId query, LogicalTopology topology) {
    topologies_[query] = std::move(topology);
  }
  [[nodiscard]] int fetch_count() const { return fetch_count_; }
  void ResetFetchCount() { fetch_count_ = 0; }

 private:
  std::string name_;
  std::vector<EntityInfo> entities_;
  std::set<MetricId> provided_;
  std::map<std::pair<MetricId, OperatorId>, double> values_;
  std::map<QueryId, LogicalTopology> topologies_;
  int fetch_count_ = 0;
  std::uint64_t generation_ = 0;
};

// Records every OsAdapter call for translator tests. Supports
// SnapshotState so restart-reconciliation tests can treat it as the
// "kernel" surviving a daemon restart.
class RecordingOsAdapter final : public OsAdapter {
 public:
  void SetNice(const ThreadHandle& thread, int nice) override {
    nices[thread.sim_tid.value()] = nice;
    ++nice_calls;
  }
  void SetGroupShares(const std::string& group, std::uint64_t shares) override {
    group_shares[group] = shares;
  }
  void MoveToGroup(const ThreadHandle& thread, const std::string& group) override {
    thread_group[thread.sim_tid.value()] = group;
  }
  void SetRtPriority(const ThreadHandle& thread, int rt_priority) override {
    rt_priorities[thread.sim_tid.value()] = rt_priority;
  }
  void SetGroupQuota(const std::string& group, SimDuration quota,
                     SimDuration period) override {
    group_quota[group] = {quota, period};
  }
  void SetDeadline(const ThreadHandle& thread, SimDuration runtime,
                   SimDuration deadline, SimDuration period) override {
    deadlines[thread.sim_tid.value()] = {runtime, deadline, period};
    ++deadline_calls;
  }
  void SetCpuAffinity(const ThreadHandle& thread, CpuPreference pref) override {
    affinity[thread.sim_tid.value()] = pref;
    ++affinity_calls;
  }

  bool SnapshotState(const std::vector<ThreadHandle>& threads,
                     OsStateSnapshot& out) override {
    out = {};
    for (const ThreadHandle& thread : threads) {
      OsStateSnapshot::ThreadState state;
      state.thread = thread;
      if (const auto it = nices.find(thread.sim_tid.value());
          it != nices.end()) {
        state.nice = it->second;
      }
      if (const auto it = rt_priorities.find(thread.sim_tid.value());
          it != rt_priorities.end()) {
        state.rt_priority = it->second;
      }
      if (const auto it = thread_group.find(thread.sim_tid.value());
          it != thread_group.end()) {
        state.group = it->second;
      }
      if (const auto it = deadlines.find(thread.sim_tid.value());
          it != deadlines.end()) {
        state.deadline =
            sim::DeadlineParams{it->second.runtime, it->second.deadline,
                                it->second.period};
      }
      out.threads.push_back(std::move(state));
    }
    out.group_shares = group_shares;
    out.group_quota = group_quota;
    for (const auto& [group, shares] : group_shares) out.groups.push_back(group);
    return true;
  }

  struct DeadlineTriple {
    SimDuration runtime = 0;
    SimDuration deadline = 0;
    SimDuration period = 0;
  };

  std::map<std::uint64_t, int> nices;
  std::map<std::uint64_t, int> rt_priorities;
  std::map<std::string, std::uint64_t> group_shares;
  std::map<std::uint64_t, std::string> thread_group;
  std::map<std::string, std::pair<SimDuration, SimDuration>> group_quota;
  std::map<std::uint64_t, DeadlineTriple> deadlines;
  std::map<std::uint64_t, CpuPreference> affinity;
  int nice_calls = 0;
  int deadline_calls = 0;
  int affinity_calls = 0;
};

}  // namespace lachesis::core::testing

#endif  // LACHESIS_TESTS_FAKE_DRIVER_H_
