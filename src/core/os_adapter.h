// OS-mechanism abstraction used by translators.
//
// Lachesis enforces schedules through two Linux mechanisms (paper §2): the
// per-thread nice value and cgroup cpu.shares. Translators speak to this
// interface so the same policy/translator stack drives either the CFS
// simulator (sim_os_adapter.h) or a real Linux host (src/osctl/).
#ifndef LACHESIS_CORE_OS_ADAPTER_H_
#define LACHESIS_CORE_OS_ADAPTER_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/hash_index.h"
#include "core/entities.h"
#include "sim/machine.h"

namespace lachesis::core {

// Capacity-class placement hint on heterogeneous (big.LITTLE) machines.
enum class CpuPreference : std::uint8_t {
  kNone = 0,       // no constraint (clears a previous hint)
  kPreferBig = 1,  // bind/steer toward the highest-capacity cores
  kPreferLittle = 2,
};

// Snapshot of the kernel-side scheduling state an adapter can observe, used
// for crash-safe restart reconciliation: a restarted daemon seeds its
// schedule-delta cache from this instead of starting empty, so it neither
// blindly re-applies a schedule the kernel already holds nor fights
// residual state from a previous incarnation.
struct OsStateSnapshot {
  struct ThreadState {
    ThreadHandle thread;
    std::optional<int> nice;
    std::optional<int> rt_priority;
    std::optional<std::string> group;  // Lachesis group currently holding it
    // Active SCHED_DEADLINE reservation, if the backend can observe one.
    std::optional<sim::DeadlineParams> deadline;
  };
  std::vector<ThreadState> threads;
  std::map<std::string, std::uint64_t> group_shares;
  std::map<std::string, std::pair<SimDuration, SimDuration>> group_quota;
  // Every Lachesis-owned group found on the backend (including orphans left
  // behind by a previous run, which the restarting daemon adopts).
  std::vector<std::string> groups;
};

class OsAdapter {
 public:
  virtual ~OsAdapter() = default;

  virtual void SetNice(const ThreadHandle& thread, int nice) = 0;
  // Creates/updates the named cgroup with the given cpu.shares. Group names
  // are flat, nested under Lachesis' private root group (§6.1: "Lachesis
  // nests the SPE threads under a custom root cgroup").
  virtual void SetGroupShares(const std::string& group, std::uint64_t shares) = 0;
  virtual void MoveToGroup(const ThreadHandle& thread,
                           const std::string& group) = 0;

  // --- additional mechanisms (paper §8 future work) -------------------------
  // SCHED_FIFO-like priority; 0 returns the thread to the fair class.
  // Default no-op so adapters without RT support stay valid.
  virtual void SetRtPriority(const ThreadHandle& thread, int rt_priority) {
    (void)thread;
    (void)rt_priority;
  }
  // CFS bandwidth: the group may use at most `quota` CPU per `period`
  // (cpu.cfs_quota_us / cpu.max). quota = 0 removes the limit.
  virtual void SetGroupQuota(const std::string& group, SimDuration quota,
                             SimDuration period) {
    (void)group;
    (void)quota;
    (void)period;
  }
  // SCHED_DEADLINE reservation (sched_setattr): `runtime` of CPU every
  // `period`, due within `deadline`. The all-zero triple clears the
  // reservation. Backends with admission control may reject by throwing;
  // the schedule-delta layer absorbs and backs off. Default no-op so
  // adapters without deadline support stay valid.
  virtual void SetDeadline(const ThreadHandle& thread, SimDuration runtime,
                           SimDuration deadline, SimDuration period) {
    (void)thread;
    (void)runtime;
    (void)deadline;
    (void)period;
  }
  // Capacity-class placement hint for heterogeneous machines: steer the
  // thread toward big or little cores (sched_setaffinity over a capacity
  // mask on Linux). kNone clears the hint. Default no-op.
  virtual void SetCpuAffinity(const ThreadHandle& thread, CpuPreference pref) {
    (void)thread;
    (void)pref;
  }

  // --- restart reconciliation ----------------------------------------------
  // Fills `out` with the backend's current scheduling state for the given
  // threads plus every Lachesis-owned group it can enumerate. Returns false
  // when the adapter cannot observe state (the default); callers then start
  // from an empty delta cache, which is safe but re-applies in full.
  virtual bool SnapshotState(const std::vector<ThreadHandle>& threads,
                             OsStateSnapshot& out) {
    (void)threads;
    (void)out;
    return false;
  }
};

// Drives the simulated machines. Cgroups are created lazily per (machine,
// name) under a per-machine "lachesis" root group. Groups are indexed by
// a hash of their name, so a shares or quota write touches only that
// name's cgroups.
class SimOsAdapter final : public OsAdapter {
 public:
  void SetNice(const ThreadHandle& thread, int nice) override {
    thread.machine->SetNice(thread.sim_tid, nice);
  }

  void SetGroupShares(const std::string& group, std::uint64_t shares) override {
    NamedGroup& named = GroupNamed(group);
    named.shares = shares;
    for (const auto& [machine, cgroup] : named.cgroups) {
      machine->SetShares(cgroup, shares);
    }
  }

  void MoveToGroup(const ThreadHandle& thread, const std::string& group) override {
    thread.machine->MoveToCgroup(thread.sim_tid,
                                 EnsureGroup(*thread.machine, group));
  }

  void SetRtPriority(const ThreadHandle& thread, int rt_priority) override {
    thread.machine->SetRtPriority(thread.sim_tid, rt_priority);
  }

  void SetGroupQuota(const std::string& group, SimDuration quota,
                     SimDuration period) override {
    NamedGroup& named = GroupNamed(group);
    named.quota = {quota, period};
    for (const auto& [machine, cgroup] : named.cgroups) {
      machine->SetQuota(cgroup, quota, period);
    }
  }

  void SetDeadline(const ThreadHandle& thread, SimDuration runtime,
                   SimDuration deadline, SimDuration period) override {
    if (!thread.machine->SetDeadline(thread.sim_tid,
                                     {runtime, deadline, period})) {
      // Admission control rejected the reservation; surface it as a
      // transient failure so the delta layer backs off and retries after
      // other reservations are released.
      throw std::runtime_error("SetDeadline: admission control rejected " +
                               std::to_string(runtime) + "/" +
                               std::to_string(deadline) + "/" +
                               std::to_string(period));
    }
  }

  // Restart reconciliation against the simulated kernel: reads each
  // thread's actual nice/RT/cgroup/deadline from its Machine and each
  // Lachesis-owned group's shares from machine truth (quota comes from the
  // adapter's desired values -- the sim has no per-group quota getter). This
  // is what lets a rebooted fleet agent seed its delta cache instead of
  // re-applying the whole schedule, mirroring LinuxOsAdapter's procfs/
  // cgroupfs snapshot. A name on several machines reports the shares of
  // its cgroup on the highest machine pointer, and `groups` lists names
  // machine by machine (pointer order), each name once, by name within a
  // machine.
  bool SnapshotState(const std::vector<ThreadHandle>& threads,
                     OsStateSnapshot& out) override {
    out = OsStateSnapshot{};
    for (const ThreadHandle& thread : threads) {
      if (thread.machine == nullptr) continue;
      OsStateSnapshot::ThreadState state;
      state.thread = thread;
      state.nice = thread.machine->GetNice(thread.sim_tid);
      const int rt = thread.machine->GetRtPriority(thread.sim_tid);
      if (rt > 0) state.rt_priority = rt;
      if (thread.machine->IsDeadline(thread.sim_tid)) {
        state.deadline = thread.machine->GetDeadline(thread.sim_tid);
      }
      const CgroupId cgroup = thread.machine->GetCgroup(thread.sim_tid);
      const std::string& name = thread.machine->CgroupName(cgroup);
      const std::uint32_t id = names_.Lookup(name);
      if (id < groups_.size() && names_.View(id) == name &&
          groups_[id].Find(thread.machine) == cgroup) {
        state.group = name;
      }
      out.threads.push_back(std::move(state));
    }
    std::vector<std::pair<sim::Machine*, std::string_view>> first_seen;
    for (std::uint32_t id = 0; id < groups_.size(); ++id) {
      const NamedGroup& named = groups_[id];
      if (named.cgroups.empty()) continue;
      const std::string name(names_.View(id));
      const auto& [last_machine, last_cgroup] = named.cgroups.back();
      out.group_shares[name] = last_machine->GetShares(last_cgroup);
      if (named.quota && named.quota->first > 0) {
        out.group_quota[name] = *named.quota;
      }
      first_seen.emplace_back(named.cgroups.front().first, names_.View(id));
    }
    // Ids follow first use, not names: sort by machine, then by name.
    std::sort(first_seen.begin(), first_seen.end());
    out.groups.reserve(first_seen.size());
    for (const auto& [machine, name] : first_seen) out.groups.emplace_back(name);
    return true;
  }

 private:
  // Everything known about one group name: the desired shares and quota,
  // which also apply to cgroups created later, and the name's cgroup on
  // each machine in machine-pointer order.
  struct NamedGroup {
    std::optional<std::uint64_t> shares;
    std::optional<std::pair<SimDuration, SimDuration>> quota;
    std::vector<std::pair<sim::Machine*, CgroupId>> cgroups;

    [[nodiscard]] std::optional<CgroupId> Find(const sim::Machine* machine) const {
      for (const auto& [m, cgroup] : cgroups) {
        if (m == machine) return cgroup;
      }
      return std::nullopt;
    }
  };

  // The group of that name, created empty on first use.
  NamedGroup& GroupNamed(const std::string& group) {
    const std::uint32_t id = names_.Intern(group);
    if (id >= groups_.size()) groups_.resize(id + 1);
    return groups_[id];
  }

  CgroupId EnsureGroup(sim::Machine& machine, const std::string& group) {
    NamedGroup& named = GroupNamed(group);
    if (const auto existing = named.Find(&machine)) return *existing;
    CgroupId root;
    if (const auto rit = roots_.find(&machine); rit != roots_.end()) {
      root = rit->second;
    } else {
      root = machine.CreateCgroup("lachesis", machine.root_cgroup());
      roots_.emplace(&machine, root);
    }
    const CgroupId cgroup =
        machine.CreateCgroup(group, root, named.shares.value_or(sim::kNice0Weight));
    if (named.quota) machine.SetQuota(cgroup, named.quota->first, named.quota->second);
    const auto pos = std::find_if(
        named.cgroups.begin(), named.cgroups.end(),
        [&machine](const auto& entry) { return entry.first > &machine; });
    named.cgroups.emplace(pos, &machine, cgroup);
    return cgroup;
  }

  // Group names interned to dense ids; groups_[id] is the named group.
  StringInterner names_;
  std::vector<NamedGroup> groups_;
  std::map<sim::Machine*, CgroupId> roots_;
};

}  // namespace lachesis::core

#endif  // LACHESIS_CORE_OS_ADAPTER_H_
