#include "core/schedule_delta.h"

#include <cstdio>
#include <exception>
#include <type_traits>

#include "obs/recorder.h"

namespace lachesis::core {
namespace {

// The recorded detail of an op whose value says it all.
std::string_view NoDetail() { return {}; }

}  // namespace

void ScheduleDeltaAdapter::Reset() {
  nice_.Clear();
  rt_.Clear();
  deadline_.Clear();
  affinity_.Clear();
  group_of_.Clear();
  shares_.Clear();
  quota_.Clear();
}

void ScheduleDeltaAdapter::ForgetThread(const ThreadHandle& thread) {
  const ThreadKey key = ThreadKeyOf(thread);
  nice_.Erase(key);
  rt_.Erase(key);
  deadline_.Erase(key);
  affinity_.Erase(key);
  group_of_.Erase(key);
  const auto target = health_.FindTarget(HealthKeyOf(thread));
  if (target != OpHealthTracker::kNoTarget) health_.ForgetTarget(target);
}

std::size_t ScheduleDeltaAdapter::SeedFromSnapshot(
    const OsStateSnapshot& snapshot) {
  std::size_t seeded = 0;
  for (const OsStateSnapshot::ThreadState& ts : snapshot.threads) {
    const ThreadKey key = ThreadKeyOf(ts.thread);
    if (ts.nice) {
      nice_.Insert(key, *ts.nice);
      ++seeded;
    }
    if (ts.rt_priority && *ts.rt_priority > 0) {
      rt_.Insert(key, *ts.rt_priority);
      ++seeded;
    }
    if (ts.group) {
      group_of_.Insert(key, group_ids_.Intern(*ts.group));
      ++seeded;
    }
    if (ts.deadline && !ts.deadline->is_zero()) {
      deadline_.Insert(key, {ts.deadline->runtime, ts.deadline->deadline,
                             ts.deadline->period});
      ++seeded;
    }
  }
  for (const auto& [group, shares] : snapshot.group_shares) {
    shares_.Insert(group_ids_.Intern(group), shares);
    ++seeded;
  }
  for (const auto& [group, quota] : snapshot.group_quota) {
    quota_.Insert(group_ids_.Intern(group), quota);
    ++seeded;
  }
  // Groups the backend still holds from a previous incarnation count as
  // adopted whether or not the next schedule references them: their cached
  // state prevents both a redundant re-create and a fight over values.
  adopted_groups_ = snapshot.groups.size();
  return seeded;
}

std::size_t ScheduleDeltaAdapter::ReconcileFromBackend(
    const std::vector<ThreadHandle>& threads) {
  OsStateSnapshot snapshot;
  if (!next_->SnapshotState(threads, snapshot)) return 0;
  return SeedFromSnapshot(snapshot);
}

std::size_t ScheduleDeltaAdapter::rt_boosted_count() const {
  std::size_t count = 0;
  rt_.ForEach([&](const ThreadKey&, const int& priority) {
    if (priority > 0) ++count;
  });
  return count;
}

std::size_t ScheduleDeltaAdapter::dl_reserved_count() const {
  std::size_t count = 0;
  deadline_.ForEach([&](const ThreadKey&, const std::array<SimDuration, 3>& d) {
    if (d[0] != 0 || d[1] != 0 || d[2] != 0) ++count;
  });
  return count;
}

void ScheduleDeltaAdapter::LogFailureOnce(OpClass cls, const Target& target,
                                          const char* what) {
  // One line per (operation, target): a permanently broken target (e.g. an
  // unwritable cgroup root) must not flood the log every period.
  if (logged_failures_[static_cast<int>(cls)].Insert(target.health)) {
    const std::string_view name = health_.TargetName(target.health);
    std::fprintf(stderr, "lachesis: %s(%.*s) failed: %s\n", OpClassName(cls),
                 static_cast<int>(name.size()), name.data(), what);
  }
}

template <typename K>
ScheduleDeltaAdapter::Target& ScheduleDeltaAdapter::TargetOf(const K& key) {
  Target* target = nullptr;
  if constexpr (std::is_same_v<K, ThreadKey>) {
    target = thread_targets_.FindOrInsert(key);
  } else {
    target = group_targets_.FindOrInsert(key);
  }
  if (target->health == OpHealthTracker::kNoTarget) {
    target->health = health_.InternTarget(HealthKeyOf(key));
  }
  return *target;
}

void ScheduleDeltaAdapter::Record(obs::EventKind kind, OpClass cls,
                                  Target& target, std::int64_t value,
                                  std::string_view detail) {
  if (target.recorded == obs::kNoStr) {
    target.recorded = recorder_->Intern(health_.TargetName(target.health));
  }
  recorder_->Op(now_, kind, static_cast<int>(cls), target.recorded, value,
                detail);
}

template <typename K, typename V, typename Detail, typename Call>
void ScheduleDeltaAdapter::Apply(OpClass cls, FlatMap<K, V>& cache,
                                 const K& key, const V& value, bool clear,
                                 std::int64_t recorded, Detail&& detail,
                                 Call&& call) {
  if (enabled_) {
    const V* cached = cache.Find(key);
    if (cached != nullptr ? *cached == value : clear) {
      Count(&DeltaStats::skipped);
      if (recorder_ != nullptr && recorder_->verbose()) {
        Record(obs::EventKind::kOpElided, cls, TargetOf(key), recorded, {});
      }
      return;
    }
  }
  if (Forward(cls, TargetOf(key), recorded, detail, call)) {
    cache.Insert(key, value);
  }
}

template <typename Detail, typename Call>
bool ScheduleDeltaAdapter::Forward(OpClass cls, Target& target,
                                   std::int64_t recorded, Detail&& detail,
                                   Call&& call) {
  const bool recording = recorder_ != nullptr && recorder_->enabled();
  if (!health_.AllowAttempt(cls, target.health, now_)) {
    Count(&DeltaStats::suppressed);
    if (recording) {
      Record(obs::EventKind::kOpSuppressed, cls, target, recorded, detail());
    }
    return false;
  }
  try {
    call();
  } catch (const std::exception& e) {
    const auto* os_error = dynamic_cast<const OsOperationError*>(&e);
    health_.RecordFailure(cls, target.health, now_,
                          os_error != nullptr ? os_error->severity()
                                              : ErrorSeverity::kTransient);
    Count(&DeltaStats::errors);
    if (recording) {
      Record(obs::EventKind::kOpError, cls, target, recorded, e.what());
    }
    LogFailureOnce(cls, target, e.what());
    return false;
  }
  health_.RecordSuccess(cls, target.health, now_);
  Count(&DeltaStats::applied);
  if (recording) {
    Record(obs::EventKind::kOpApplied, cls, target, recorded, detail());
  }
  return true;
}

void ScheduleDeltaAdapter::SetNice(const ThreadHandle& thread, int nice) {
  Apply(OpClass::kSetNice, nice_, ThreadKeyOf(thread), nice, /*clear=*/false,
        nice, NoDetail, [&] { next_->SetNice(thread, nice); });
}

void ScheduleDeltaAdapter::SetGroupShares(const std::string& group,
                                          std::uint64_t shares) {
  Apply(OpClass::kSetGroupShares, shares_, group_ids_.Intern(group), shares,
        /*clear=*/false, static_cast<std::int64_t>(shares), NoDetail,
        [&] { next_->SetGroupShares(group, shares); });
}

void ScheduleDeltaAdapter::MoveToGroup(const ThreadHandle& thread,
                                       const std::string& group) {
  Apply(OpClass::kMoveToGroup, group_of_, ThreadKeyOf(thread),
        group_ids_.Intern(group), /*clear=*/false, 0,
        [&] { return std::string_view(group); },
        [&] { next_->MoveToGroup(thread, group); });
}

void ScheduleDeltaAdapter::SetRtPriority(const ThreadHandle& thread,
                                         int rt_priority) {
  Apply(OpClass::kSetRtPriority, rt_, ThreadKeyOf(thread), rt_priority,
        rt_priority == 0, rt_priority, NoDetail,
        [&] { next_->SetRtPriority(thread, rt_priority); });
}

void ScheduleDeltaAdapter::SetGroupQuota(const std::string& group,
                                         SimDuration quota, SimDuration period) {
  Apply(OpClass::kSetGroupQuota, quota_, group_ids_.Intern(group),
        std::make_pair(quota, period), /*clear=*/false, quota,
        [&] { return "period_ns=" + std::to_string(period); },
        [&] { next_->SetGroupQuota(group, quota, period); });
}

void ScheduleDeltaAdapter::SetDeadline(const ThreadHandle& thread,
                                       SimDuration runtime,
                                       SimDuration deadline,
                                       SimDuration period) {
  Apply(OpClass::kSetDeadline, deadline_, ThreadKeyOf(thread),
        std::array<SimDuration, 3>{runtime, deadline, period},
        runtime == 0 && deadline == 0 && period == 0, runtime,
        [&] {
          return "deadline_ns=" + std::to_string(deadline) +
                 " period_ns=" + std::to_string(period);
        },
        [&] { next_->SetDeadline(thread, runtime, deadline, period); });
}

void ScheduleDeltaAdapter::SetCpuAffinity(const ThreadHandle& thread,
                                          CpuPreference pref) {
  const auto value = static_cast<std::uint8_t>(pref);
  Apply(OpClass::kSetAffinity, affinity_, ThreadKeyOf(thread), value,
        pref == CpuPreference::kNone, value, NoDetail,
        [&] { next_->SetCpuAffinity(thread, pref); });
}

}  // namespace lachesis::core
