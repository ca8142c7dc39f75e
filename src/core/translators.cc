#include "core/translators.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>

#include "core/normalize.h"

namespace lachesis::core {

void NiceTranslator::Apply(const Schedule& schedule, OsAdapter& os) {
  if (schedule.entries.empty()) return;
  std::vector<double> priorities;
  priorities.reserve(schedule.entries.size());
  for (const ScheduleEntry& entry : schedule.entries) {
    priorities.push_back(entry.priority);
  }

  std::vector<int> nices;
  if (schedule.spacing == PrioritySpacing::kLogarithmic) {
    nices = PrioritiesToNice(priorities, nice_best_);
  } else {
    // Linear: min-max into the nice interval, best priority -> nice_best.
    const auto normalized = MinMaxNormalize(priorities, 0.0, 1.0);
    nices.resize(normalized.size());
    for (std::size_t i = 0; i < normalized.size(); ++i) {
      const double nice =
          nice_worst_ - normalized[i] * (nice_worst_ - nice_best_);
      nices[i] = std::clamp(static_cast<int>(std::lround(nice)), -20, 19);
    }
  }
  for (std::size_t i = 0; i < schedule.entries.size(); ++i) {
    os.SetNice(schedule.entries[i].entity->thread, nices[i]);
  }
}

void EntryGrouping::Build(const Schedule& schedule) {
  const std::size_t n = schedule.entries.size();
  if (keys_.size() < n) keys_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const EntityInfo& entity = *schedule.entries[i].entity;
    if (group_of_) {
      keys_[i] = group_of_(entity);
    } else {
      keys_[i].assign("op-");
      keys_[i].append(entity.path);
    }
  }
  order_.resize(n);
  std::iota(order_.begin(), order_.end(), 0u);
  std::sort(order_.begin(), order_.end(),
            [this](std::uint32_t a, std::uint32_t b) {
              const int c = keys_[a].compare(keys_[b]);
              return c != 0 ? c < 0 : a < b;
            });
  groups_.clear();
  for (std::size_t begin = 0; begin < n;) {
    const std::string& gid = keys_[order_[begin]];
    double priority = schedule.entries[order_[begin]].priority;
    std::size_t end = begin + 1;
    for (; end < n && keys_[order_[end]] == gid; ++end) {
      priority = std::max(priority, schedule.entries[order_[end]].priority);
    }
    groups_.push_back({priority, begin, end});
    begin = end;
  }
}

namespace {

// Min-max normalized group priorities, on their logarithms for log-spaced
// schedules.
std::vector<double> NormalizedGroupPriorities(const EntryGrouping& grouping,
                                              PrioritySpacing spacing) {
  std::vector<double> priorities;
  priorities.reserve(grouping.groups().size());
  for (const EntryGrouping::Group& g : grouping.groups()) {
    priorities.push_back(g.priority);
  }
  return spacing == PrioritySpacing::kLogarithmic
             ? LogMinMaxNormalize(priorities, 0.0, 1.0)
             : MinMaxNormalize(priorities, 0.0, 1.0);
}

// Moves every member of `group` into its cgroup.
void MoveMembers(const Schedule& schedule, const EntryGrouping& grouping,
                 const EntryGrouping::Group& group, OsAdapter& os) {
  const std::string& gid = grouping.gid(group);
  for (const std::uint32_t entry : grouping.members(group)) {
    os.MoveToGroup(schedule.entries[entry].entity->thread, gid);
  }
}

}  // namespace

void CpuSharesTranslator::Apply(const Schedule& schedule, OsAdapter& os) {
  if (schedule.entries.empty()) return;
  grouping_.Build(schedule);
  const auto shares = PrioritiesToShares(
      NormalizedGroupPriorities(grouping_, schedule.spacing));
  for (std::size_t i = 0; i < grouping_.groups().size(); ++i) {
    const EntryGrouping::Group& group = grouping_.groups()[i];
    os.SetGroupShares(grouping_.gid(group), shares[i]);
    MoveMembers(schedule, grouping_, group, os);
  }
}

QuotaTranslator::QuotaTranslator(double min_cores, double max_cores,
                                 SimDuration period, GroupKeyFn group_of)
    : min_cores_(min_cores),
      max_cores_(max_cores),
      period_(period),
      grouping_(std::move(group_of)) {}

void QuotaTranslator::Apply(const Schedule& schedule, OsAdapter& os) {
  if (schedule.entries.empty()) return;
  grouping_.Build(schedule);
  const auto normalized = NormalizedGroupPriorities(grouping_, schedule.spacing);
  for (std::size_t i = 0; i < grouping_.groups().size(); ++i) {
    const EntryGrouping::Group& group = grouping_.groups()[i];
    const double cores =
        min_cores_ + normalized[i] * (max_cores_ - min_cores_);
    os.SetGroupQuota(grouping_.gid(group),
                     static_cast<SimDuration>(cores * static_cast<double>(period_)),
                     period_);
    MoveMembers(schedule, grouping_, group, os);
  }
}

void RtBoostTranslator::Apply(const Schedule& schedule, OsAdapter& os) {
  if (schedule.entries.empty()) return;
  const ScheduleEntry* top = &schedule.entries.front();
  for (const ScheduleEntry& entry : schedule.entries) {
    if (entry.priority > top->priority) top = &entry;
  }
  // Reconcile: demote every previously boosted thread that is not the new
  // top -- using the stored handle, so an entity that was demoted AND
  // dropped from the schedule (operator terminated) cannot keep a stale RT
  // boost. The delta layer skips demotions already applied.
  for (const auto& [path, thread] : boosted_) {
    if (path != top->entity->path) os.SetRtPriority(thread, 0);
  }
  os.SetRtPriority(top->entity->thread, rt_priority_);
  boosted_.clear();
  boosted_.emplace(top->entity->path, top->entity->thread);
  nice_.Apply(schedule, os);
}

void DeadlineTranslator::Apply(const Schedule& schedule, OsAdapter& os) {
  if (schedule.entries.empty()) return;
  // The critical set: tagged entries, or the single top-priority entry.
  std::map<std::string, ThreadHandle> critical;
  for (const ScheduleEntry& entry : schedule.entries) {
    if (entry.criticality == Criticality::kLatencyCritical) {
      critical.emplace(entry.entity->path, entry.entity->thread);
    }
  }
  if (critical.empty()) {
    const ScheduleEntry* top = &schedule.entries.front();
    for (const ScheduleEntry& entry : schedule.entries) {
      if (entry.priority > top->priority) top = &entry;
    }
    critical.emplace(top->entity->path, top->entity->thread);
  }
  // Reconcile: clear every reservation whose holder left the critical set,
  // via the stored handle (the entity may be gone from the schedule). The
  // delta layer elides clears already applied.
  for (const auto& [path, thread] : reserved_) {
    if (critical.find(path) == critical.end()) {
      os.SetDeadline(thread, 0, 0, 0);
    }
  }
  for (const auto& [path, thread] : critical) {
    os.SetDeadline(thread, runtime_, period_, period_);
  }
  reserved_ = std::move(critical);
  nice_.Apply(schedule, os);
}

void CapacityHintTranslator::Apply(const Schedule& schedule, OsAdapter& os) {
  inner_->Apply(schedule, os);
  if (schedule.entries.empty()) return;
  // Big-core set: the top ceil(big_frac * n) entries by priority, plus
  // every latency-critical entry.
  std::vector<const ScheduleEntry*> by_priority;
  by_priority.reserve(schedule.entries.size());
  for (const ScheduleEntry& entry : schedule.entries) {
    by_priority.push_back(&entry);
  }
  std::stable_sort(by_priority.begin(), by_priority.end(),
                   [](const ScheduleEntry* a, const ScheduleEntry* b) {
                     return a->priority > b->priority;
                   });
  const auto big_count = static_cast<std::size_t>(std::min<double>(
      static_cast<double>(by_priority.size()),
      std::ceil(big_frac_ * static_cast<double>(by_priority.size()))));
  std::map<std::string, ThreadHandle> big;
  for (std::size_t i = 0; i < by_priority.size(); ++i) {
    const ScheduleEntry& entry = *by_priority[i];
    if (i < big_count ||
        entry.criticality == Criticality::kLatencyCritical) {
      big.emplace(entry.entity->path, entry.entity->thread);
    }
  }
  for (const auto& [path, thread] : hinted_) {
    if (big.find(path) == big.end()) {
      os.SetCpuAffinity(thread, CpuPreference::kNone);
    }
  }
  for (const auto& [path, thread] : big) {
    os.SetCpuAffinity(thread, CpuPreference::kPreferBig);
  }
  hinted_ = std::move(big);
}

void QuerySharesPlusNiceTranslator::Apply(const Schedule& schedule,
                                          OsAdapter& os) {
  for (const ScheduleEntry& entry : schedule.entries) {
    const std::string gid = "query-" + entry.entity->query_name;
    os.SetGroupShares(gid, query_shares_);
    os.MoveToGroup(entry.entity->thread, gid);
  }
  nice_.Apply(schedule, os);
}

}  // namespace lachesis::core
