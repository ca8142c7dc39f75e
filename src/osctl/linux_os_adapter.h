// core::OsAdapter backed by real Linux mechanisms.
//
// Lets the exact policy/translator stack that runs against the simulator
// drive a live system: nice via setpriority, groups via cgroupfs. Entities
// must carry os_tid (e.g. resolved by osctl::ResolveThreadByName among the
// SPE process's threads: the thread whose comm equals the pattern, else the
// lowest tid whose comm contains it; the kernel keeps at most 15 bytes of a
// thread name, so a longer pattern matches nothing).
//
// Failures (thread exited between discovery and apply, unwritable cgroup
// root, missing CAP_SYS_NICE) throw core::OsOperationError carrying the
// errno-derived severity: EPERM/EACCES are permanent (capabilities don't
// appear by retrying), ESRCH/ENOENT mean the target vanished, everything
// else is transient. The runner's schedule-delta layer absorbs the
// exception, feeds the severity into its backoff/circuit-breaker state,
// and moves on to the next operation, so a vanished operator never aborts
// a scheduling tick. An entity whose thread the driver never resolved
// (os_tid < 0) fails every thread operation with kVanished before any
// controller is reached: nothing was set, so the delta layer counts an
// error, caches nothing and backs that target off, and since kVanished is
// no class signal the binding's ladder does not degrade.
#ifndef LACHESIS_OSCTL_LINUX_OS_ADAPTER_H_
#define LACHESIS_OSCTL_LINUX_OS_ADAPTER_H_

#include <cerrno>
#include <map>
#include <string>
#include <vector>

#include "core/os_adapter.h"
#include "core/schedule_delta.h"
#include "osctl/cgroupfs.h"
#include "osctl/nice.h"

namespace lachesis::osctl {

// errno -> retry strategy for the delta layer's health tracker.
inline core::ErrorSeverity SeverityFromErrno(int err) {
  switch (err) {
    case EPERM:
    case EACCES:
      return core::ErrorSeverity::kPermanent;
    case ESRCH:
    case ENOENT:
      return core::ErrorSeverity::kVanished;
    default:
      return core::ErrorSeverity::kTransient;
  }
}

// Throws the error every thread operation on an unresolved entity
// (os_tid < 0) fails with; `what` names the operation ("nice", ...).
inline void RequireResolved(const core::ThreadHandle& thread,
                            const char* what) {
  if (thread.os_tid >= 0) return;
  throw core::OsOperationError(
      std::string("thread not resolved: ") + what + " not set",
      core::ErrorSeverity::kVanished);
}

class LinuxOsAdapter final : public core::OsAdapter {
 public:
  LinuxOsAdapter(NiceController& nice, CgroupController& cgroups,
                 RtController* rt = nullptr,
                 DeadlineController* deadline = nullptr,
                 AffinityController* affinity = nullptr)
      : nice_(&nice), cgroups_(&cgroups), rt_(rt), deadline_(deadline),
        affinity_(affinity) {}

  // Explicit core lists behind the CpuPreference hints (big.LITTLE
  // topology, e.g. from DaemonConfig). Empty lists leave the hint a no-op.
  void SetCoreClasses(std::vector<int> big_cores,
                      std::vector<int> little_cores) {
    big_cores_ = std::move(big_cores);
    little_cores_ = std::move(little_cores);
  }

  void SetNice(const core::ThreadHandle& thread, int nice) override {
    RequireResolved(thread, "nice");
    errno = 0;
    if (!nice_->SetNice(thread.os_tid, nice)) {
      const int err = errno;
      throw core::OsOperationError(
          "setpriority(" + std::to_string(thread.os_tid) + ", " +
              std::to_string(nice) + ")",
          SeverityFromErrno(err), err);
    }
  }

  void SetGroupShares(const std::string& group, std::uint64_t shares) override {
    errno = 0;
    if (!cgroups_->SetShares(group, shares)) {
      const int err = errno;
      throw core::OsOperationError("cgroup shares write failed: " + group,
                                   SeverityFromErrno(err), err);
    }
  }

  void MoveToGroup(const core::ThreadHandle& thread,
                   const std::string& group) override {
    RequireResolved(thread, "cgroup");
    errno = 0;
    if (!cgroups_->MoveThread(group, thread.os_tid)) {
      const int err = errno;
      throw core::OsOperationError(
          "cgroup move failed: tid " + std::to_string(thread.os_tid) + " -> " +
              group,
          SeverityFromErrno(err), err);
    }
  }

  void SetRtPriority(const core::ThreadHandle& thread,
                     int rt_priority) override {
    RequireResolved(thread, "SCHED_FIFO");
    if (rt_ == nullptr) return;
    errno = 0;
    if (!rt_->SetRtPriority(thread.os_tid, rt_priority)) {
      const int err = errno;
      throw core::OsOperationError(
          "sched_setscheduler(" + std::to_string(thread.os_tid) + ", " +
              std::to_string(rt_priority) + ")",
          SeverityFromErrno(err), err);
    }
  }

  void SetGroupQuota(const std::string& group, SimDuration quota,
                     SimDuration period) override {
    errno = 0;
    if (!cgroups_->SetQuota(group, static_cast<long>(quota / kMicrosecond),
                            static_cast<long>(period / kMicrosecond))) {
      const int err = errno;
      throw core::OsOperationError("cgroup quota write failed: " + group,
                                   SeverityFromErrno(err), err);
    }
  }

  void SetDeadline(const core::ThreadHandle& thread, SimDuration runtime,
                   SimDuration deadline, SimDuration period) override {
    RequireResolved(thread, "SCHED_DEADLINE");
    if (deadline_ == nullptr) return;
    errno = 0;
    if (!deadline_->SetDeadline(thread.os_tid,
                                static_cast<std::uint64_t>(runtime),
                                static_cast<std::uint64_t>(deadline),
                                static_cast<std::uint64_t>(period))) {
      const int err = errno;
      // EBUSY is the kernel's admission-control rejection: transient by
      // errno classification, which is right -- capacity may free up.
      throw core::OsOperationError(
          "sched_setattr(" + std::to_string(thread.os_tid) + ", " +
              std::to_string(runtime) + "/" + std::to_string(deadline) + "/" +
              std::to_string(period) + ")",
          SeverityFromErrno(err), err);
    }
  }

  void SetCpuAffinity(const core::ThreadHandle& thread,
                      core::CpuPreference pref) override {
    RequireResolved(thread, "affinity");
    if (affinity_ == nullptr) return;
    const std::vector<int>* cpus = nullptr;
    static const std::vector<int> kAll;
    switch (pref) {
      case core::CpuPreference::kPreferBig:
        cpus = &big_cores_;
        break;
      case core::CpuPreference::kPreferLittle:
        cpus = &little_cores_;
        break;
      case core::CpuPreference::kNone:
        cpus = &kAll;
        break;
    }
    if (pref != core::CpuPreference::kNone && cpus->empty()) {
      return;  // topology not configured: the hint is a no-op
    }
    errno = 0;
    if (!affinity_->SetAffinity(thread.os_tid, *cpus)) {
      const int err = errno;
      throw core::OsOperationError(
          "sched_setaffinity(" + std::to_string(thread.os_tid) + ")",
          SeverityFromErrno(err), err);
    }
  }

  // Restart reconciliation: nice via getpriority, RT via sched_getscheduler
  // (when an RT controller is wired), group membership / shares / quota by
  // enumerating the Lachesis cgroup root. Groups found there from a
  // previous incarnation are reported for adoption.
  bool SnapshotState(const std::vector<core::ThreadHandle>& threads,
                     core::OsStateSnapshot& out) override {
    out = {};
    std::map<long, std::string> group_of;
    for (const std::string& group : cgroups_->ListGroups()) {
      out.groups.push_back(group);
      if (const auto shares = cgroups_->ReadShares(group)) {
        out.group_shares[group] = *shares;
      }
      if (const auto quota = cgroups_->ReadQuota(group)) {
        if (quota->first > 0) {
          out.group_quota[group] = {quota->first * kMicrosecond,
                                    quota->second * kMicrosecond};
        }
      }
      for (const long tid : cgroups_->ThreadsOf(group)) {
        group_of[tid] = group;
      }
    }
    for (const core::ThreadHandle& thread : threads) {
      if (thread.os_tid < 0) continue;
      core::OsStateSnapshot::ThreadState state;
      state.thread = thread;
      state.nice = nice_->GetNice(thread.os_tid);
      if (rt_ != nullptr) {
        state.rt_priority = rt_->GetRtPriority(thread.os_tid);
      }
      if (deadline_ != nullptr) {
        if (const auto dl = deadline_->GetDeadline(thread.os_tid)) {
          state.deadline = sim::DeadlineParams{
              static_cast<SimDuration>(dl->runtime_ns),
              static_cast<SimDuration>(dl->deadline_ns),
              static_cast<SimDuration>(dl->period_ns)};
        }
      }
      if (const auto it = group_of.find(thread.os_tid);
          it != group_of.end()) {
        state.group = it->second;
      }
      out.threads.push_back(std::move(state));
    }
    return true;
  }

 private:
  NiceController* nice_;
  CgroupController* cgroups_;
  RtController* rt_;
  DeadlineController* deadline_;
  AffinityController* affinity_;
  std::vector<int> big_cores_;
  std::vector<int> little_cores_;
};

}  // namespace lachesis::osctl

#endif  // LACHESIS_OSCTL_LINUX_OS_ADAPTER_H_
