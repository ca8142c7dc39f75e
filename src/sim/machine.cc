#include "sim/machine.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace lachesis::sim {

void WaitChannel::NotifyOne() { machine_->NotifyChannel(*this, 1); }
void WaitChannel::NotifyAll() {
  machine_->NotifyChannel(*this, std::numeric_limits<std::size_t>::max());
}

Machine::Machine(Simulator& sim, int num_cores, CfsParams params,
                 std::string name)
    : sim_(&sim), params_(params), name_(std::move(name)) {
  if (num_cores <= 0) {
    throw std::invalid_argument("Machine: core count must be positive, got " +
                                std::to_string(num_cores));
  }
  params_.Validate();
  cores_.resize(static_cast<std::size_t>(num_cores));
  if (!params_.core_capacities.empty()) {
    ValidateCoreCapacities(params_.core_capacities, num_cores);
    for (std::size_t c = 0; c < cores_.size(); ++c) {
      const auto cap = static_cast<std::uint32_t>(
          std::lround(params_.core_capacities[c] *
                      static_cast<double>(kFullCapacity)));
      cores_[c].capacity = std::clamp<std::uint32_t>(cap, 1, kFullCapacity);
      if (cores_[c].capacity < kFullCapacity) hetero_ = true;
    }
  }
  core_order_.resize(cores_.size());
  for (std::size_t c = 0; c < cores_.size(); ++c) {
    core_order_[c] = static_cast<int>(c);
  }
  // Capacity-blind machines keep the index order: placement must not see
  // the asymmetry (that is the whole point of the control arm).
  if (params_.capacity_aware) {
    std::stable_sort(core_order_.begin(), core_order_.end(),
                     [this](int lhs, int rhs) {
                       return cores_[static_cast<std::size_t>(lhs)].capacity >
                              cores_[static_cast<std::size_t>(rhs)].capacity;
                     });
  }
  CgroupNode& root = cgroups_.Append();
  root.name = "/";
  root.is_root = true;
  root.ent.is_group = true;
  root.ent.id = 0;
}

Machine::~Machine() = default;

// --- cgroups ----------------------------------------------------------------

CgroupId Machine::CreateCgroup(std::string name, CgroupId parent,
                               std::uint64_t shares) {
  assert(parent.value() < cgroups_.size());
#ifndef NDEBUG
  std::size_t depth = 1;
  for (std::uint64_t g = parent.value(); g != 0; g = Group(g).ent.parent) {
    ++depth;
  }
  assert(depth <= kMaxCgroupDepth && "cgroup hierarchy too deep");
#endif
  const std::uint64_t idx = cgroups_.size();
  CgroupNode& node = cgroups_.Append();
  node.name = std::move(name);
  node.ent.is_group = true;
  node.ent.id = idx;
  node.ent.weight = ClampShares(shares);
  node.ent.parent = parent.value();
  // Start at the parent's current pace so a fresh group neither starves
  // others nor is starved.
  node.ent.vruntime = Group(parent.value()).min_vruntime;
  node.min_vruntime = node.ent.vruntime;
  // Cached thread paths stay valid: creating a leaf group never changes an
  // existing entity's ancestor chain (groups are never reparented).
  return CgroupId(idx);
}

void Machine::SetShares(CgroupId group, std::uint64_t shares) {
  assert(group.value() != 0 && group.value() < cgroups_.size());
  CgroupNode& g = Group(group.value());
  const std::uint64_t new_weight = ClampShares(shares);
  if (g.ent.queued) {
    CgroupNode& parent = Group(g.ent.parent);
    assert(parent.total_queued_weight >= g.ent.weight);
    parent.total_queued_weight -= g.ent.weight;
    parent.total_queued_weight += new_weight;
  }
  g.ent.weight = new_weight;
}

std::uint64_t Machine::GetShares(CgroupId group) const {
  return Group(group.value()).ent.weight;
}

const std::string& Machine::CgroupName(CgroupId group) const {
  return Group(group.value()).name;
}

std::uint64_t Machine::QueuedWeight(CgroupId group) const {
  assert(group.value() < cgroups_.size());
  return Group(group.value()).total_queued_weight;
}

SimDuration Machine::TimesliceFor(ThreadId tid) const {
  return SliceFor(Thread(tid.value()));
}

void Machine::SetQuota(CgroupId group, SimDuration quota, SimDuration period) {
  assert(group.value() != 0 && group.value() < cgroups_.size());
  CgroupNode& g = Group(group.value());
  ++g.quota_version;  // cancel any previous refill chain
  g.quota = quota;
  g.quota_period = period;
  g.quota_used = 0;
  if (g.throttled) {
    // Unthrottle immediately under the new configuration.
    g.throttled = false;
    if (!g.rq.empty() && !g.ent.queued && !Group(g.ent.parent).throttled) {
      EnqueueEntity(g.ent, /*sleeper_clamp=*/true);
    }
  }
  if (quota > 0) {
    assert(period > 0);
    sim_->ScheduleAfter(period, this, kQuotaRefill, group.value(),
                        g.quota_version);
  }
}

void Machine::ThrottleGroup(std::uint64_t group_idx) {
  CgroupNode& g = Group(group_idx);
  if (g.throttled) return;
  g.throttled = true;
  if (g.ent.queued) DequeueEntity(g.ent);
  // Deschedule CFS threads currently running under this group at the next
  // scheduling point.
  for (std::size_t c = 0; c < cores_.size(); ++c) {
    if (cores_[c].running < 0) continue;
    const ThreadNode& runner =
        Thread(static_cast<std::uint64_t>(cores_[c].running));
    if (runner.rt_priority > 0) continue;  // RT exempt from CFS bandwidth
    for (std::uint32_t i = 0; i < runner.path_depth; ++i) {
      if (runner.path[i] == group_idx) {
        TruncateCore(static_cast<int>(c));
        break;
      }
    }
  }
}

void Machine::OnQuotaRefill(std::uint64_t group_idx, std::uint64_t version) {
  CgroupNode& g = Group(group_idx);
  if (version != g.quota_version || g.quota <= 0) return;  // stale / disabled
  g.quota_used = 0;
  if (g.throttled) {
    g.throttled = false;
    if (!g.rq.empty() && !g.ent.queued && !Group(g.ent.parent).throttled) {
      EnqueueEntity(g.ent, /*sleeper_clamp=*/true);
      for (const int c : core_order_) {
        if (cores_[static_cast<std::size_t>(c)].running < 0) PickNext(c);
      }
    }
  }
  sim_->ScheduleAfter(g.quota_period, this, kQuotaRefill, group_idx, version);
}

bool Machine::PathThrottled(const ThreadNode& t) const {
  if (t.rt_priority > 0 || t.is_deadline) return false;
  for (std::uint32_t i = 0; i < t.path_depth; ++i) {
    if (Group(t.path[i]).throttled) return true;
  }
  return false;
}

// --- threads ----------------------------------------------------------------

void Machine::BuildPath(ThreadNode& t) {
  std::uint32_t depth = 0;
  for (std::uint64_t g = t.ent.parent; g != 0; g = Group(g).ent.parent) {
    assert(depth < kMaxCgroupDepth);
    t.path[depth++] = static_cast<std::uint32_t>(g);
  }
  t.path_depth = depth;
}

ThreadId Machine::CreateThread(std::string name,
                               std::unique_ptr<ThreadBody> body, CgroupId group,
                               int nice) {
  assert(group.value() < cgroups_.size());
  const std::uint64_t idx = threads_.size();
  ThreadNode& node = threads_.Append();
  node.name = std::move(name);
  node.body = std::move(body);
  node.nice = std::clamp(nice, kMinNice, kMaxNice);
  node.ent.is_group = false;
  node.ent.id = idx;
  node.ent.weight = NiceToWeight(node.nice);
  node.ent.parent = group.value();
  node.ent.vruntime = Group(group.value()).min_vruntime;
  BuildPath(node);
  WakeThread(idx, params_.wakeup_check_cost);
  return ThreadId(idx);
}

void Machine::SetNice(ThreadId tid, int nice) {
  ThreadNode& t = Thread(tid.value());
  nice = std::clamp(nice, kMinNice, kMaxNice);
  if (nice == t.nice) return;
  t.nice = nice;
  const std::uint64_t new_weight = NiceToWeight(nice);
  if (t.ent.queued) {
    CgroupNode& parent = Group(t.ent.parent);
    assert(parent.total_queued_weight >= t.ent.weight);
    parent.total_queued_weight -= t.ent.weight;
    parent.total_queued_weight += new_weight;
  }
  t.ent.weight = new_weight;
}

int Machine::GetNice(ThreadId tid) const { return Thread(tid.value()).nice; }

void Machine::SetRtPriority(ThreadId tid, int rt_priority) {
  rt_priority = std::clamp(rt_priority, 0, 99);
  ThreadNode& t = Thread(tid.value());
  if (rt_priority == t.rt_priority) return;
  if (t.is_deadline) {
    // The deadline class dominates; the new rt priority takes effect when
    // the reservation is cleared.
    t.rt_priority = rt_priority;
    return;
  }
  const int old_priority = t.rt_priority;
  // Remove from whichever queue currently holds the thread.
  if (t.rt_queued) {
    rt_queues_.Erase(old_priority, tid.value());
    t.rt_queued = false;
  } else if (t.ent.queued) {
    DequeueEntity(t.ent);
  }
  t.rt_priority = rt_priority;
  if (t.state == ThreadState::kRunnable) {
    RequeueRunnable(t, /*preempted=*/false);
    TryDispatchWake(tid.value());
  } else if (t.state == ThreadState::kRunning) {
    // Class change takes effect at the next scheduling point.
    TruncateCore(t.core);
  }
}

int Machine::GetRtPriority(ThreadId tid) const {
  return Thread(tid.value()).rt_priority;
}

bool Machine::SetDeadline(ThreadId tid, DeadlineParams dl) {
  ThreadNode& t = Thread(tid.value());
  if (dl.is_zero()) {
    if (!t.is_deadline) return true;
    dl_admitted_util_ = std::max(0.0, dl_admitted_util_ - t.dl.utilization());
    ++t.dl_version;  // cancels the replenishment chain
    if (t.dl_queued) {
      dl_queue_.Erase(tid.value());
      t.dl_queued = false;
    }
    t.is_deadline = false;
    t.dl_throttled = false;
    t.dl = {};
    t.dl_budget = 0;
    t.dl_deadline_at = 0;
    if (t.state == ThreadState::kRunnable) {
      RequeueRunnable(t, /*preempted=*/false);
      TryDispatchWake(tid.value());
    } else if (t.state == ThreadState::kRunning) {
      // Class change takes effect at the next scheduling point.
      TruncateCore(t.core);
    }
    return true;
  }
  dl.Validate();
  const double prior =
      dl_admitted_util_ - (t.is_deadline ? t.dl.utilization() : 0.0);
  if (prior + dl.utilization() > DlUtilizationBound() + 1e-9) {
    return false;  // admission control: would over-commit the machine
  }
  // Leave whichever queue the previous class holds the thread in.
  if (t.dl_queued) {
    dl_queue_.Erase(tid.value());
    t.dl_queued = false;
  } else if (t.rt_queued) {
    rt_queues_.Erase(t.rt_priority, tid.value());
    t.rt_queued = false;
  } else if (t.ent.queued) {
    DequeueEntity(t.ent);
  }
  dl_admitted_util_ = prior + dl.utilization();
  t.is_deadline = true;
  t.dl = dl;
  t.dl_throttled = false;
  t.dl_budget = dl.runtime;
  t.dl_deadline_at = now() + dl.deadline;
  ++t.dl_version;
  sim_->ScheduleAfter(dl.period, this, kDlReplenish, tid.value(),
                      t.dl_version);
  if (t.state == ThreadState::kRunnable) {
    RequeueRunnable(t, /*preempted=*/false);
    TryDispatchWake(tid.value());
  } else if (t.state == ThreadState::kRunning) {
    TruncateCore(t.core);
  }
  return true;
}

DeadlineParams Machine::GetDeadline(ThreadId tid) const {
  return Thread(tid.value()).dl;
}

bool Machine::IsDeadline(ThreadId tid) const {
  return Thread(tid.value()).is_deadline;
}

void Machine::OnDlReplenish(std::uint64_t thread_idx, std::uint64_t version) {
  ThreadNode& t = Thread(thread_idx);
  if (!t.is_deadline || version != t.dl_version) return;  // stale
  if (t.state == ThreadState::kExited) return;  // let the chain die
  const bool was_parked =
      t.dl_throttled && t.state == ThreadState::kRunnable;
  t.dl_throttled = false;
  t.dl_budget = t.dl.runtime;
  t.dl_deadline_at = now() + t.dl.deadline;
  sim_->ScheduleAfter(t.dl.period, this, kDlReplenish, thread_idx, version);
  if (t.dl_queued) {
    // Reposition under the new absolute deadline.
    dl_queue_.Erase(thread_idx);
    dl_queue_.Push(thread_idx, t.dl_deadline_at);
  } else if (was_parked) {
    RequeueRunnable(t, /*preempted=*/false);
    TryDispatchWake(thread_idx);
  } else if (t.state == ThreadState::kRunning) {
    // Fresh budget: re-evaluate the slice at the next scheduling point.
    TruncateCore(t.core);
  }
}

void Machine::MoveToCgroup(ThreadId tid, CgroupId group) {
  ThreadNode& t = Thread(tid.value());
  const std::uint64_t new_parent = group.value();
  assert(new_parent < cgroups_.size());
  if (t.ent.parent == new_parent) return;
  const bool was_queued = t.ent.queued;
  if (was_queued) DequeueEntity(t.ent);
  if (t.state == ThreadState::kRunning) {
    for (std::uint32_t i = 0; i < t.path_depth; ++i) {
      --Group(t.path[i]).running_children;
    }
  }
  // Re-normalize vruntime into the destination group's frame (migration).
  t.ent.vruntime += Group(new_parent).min_vruntime - Group(t.ent.parent).min_vruntime;
  t.ent.parent = new_parent;
  BuildPath(t);
  if (t.state == ThreadState::kRunning) {
    for (std::uint32_t i = 0; i < t.path_depth; ++i) {
      ++Group(t.path[i]).running_children;
    }
  }
  if (was_queued) EnqueueEntity(t.ent, /*sleeper_clamp=*/false);
}

CgroupId Machine::GetCgroup(ThreadId tid) const {
  return CgroupId(Thread(tid.value()).ent.parent);
}

ThreadState Machine::GetState(ThreadId tid) const {
  return Thread(tid.value()).state;
}

const ThreadStats& Machine::GetStats(ThreadId tid) const {
  return Thread(tid.value()).stats;
}

int Machine::IdleCoreCount() const {
  int idle = 0;
  for (const Core& core : cores_) {
    if (core.running < 0) ++idle;
  }
  return idle;
}

int Machine::UnthrottledRunnableCount() const {
  int runnable = 0;
  for (std::size_t i = 0; i < threads_.size(); ++i) {
    const ThreadNode& t = threads_[i];
    if (t.state == ThreadState::kRunnable && !PathThrottled(t) &&
        !(t.is_deadline && t.dl_throttled)) {
      ++runnable;
    }
  }
  return runnable;
}

double Machine::TotalCapacity() const {
  double total = 0.0;
  for (const Core& core : cores_) {
    total += static_cast<double>(core.capacity) /
             static_cast<double>(kFullCapacity);
  }
  return total;
}

SimDuration Machine::RemainingWorkNow(const ThreadNode& t) const {
  assert(t.core >= 0);
  const std::uint32_t cap = cores_[static_cast<std::size_t>(t.core)].capacity;
  const SimDuration consumed = WorkFor(now() - t.run_start, cap);
  const SimDuration left = t.pending_overhead + t.remaining_compute - consumed;
  return std::max<SimDuration>(left, 0);
}

int Machine::MisfitRunnerCount() const {
  if (!hetero_ || !params_.capacity_aware) return 0;
  int misfits = 0;
  for (std::size_t c = 0; c < cores_.size(); ++c) {
    if (cores_[c].running < 0) continue;
    const ThreadNode& t = Thread(static_cast<std::uint64_t>(cores_[c].running));
    if (t.rt_priority > 0 || t.is_deadline) continue;
    const std::uint32_t cap = cores_[c].capacity;
    if (WallFor(RemainingWorkNow(t), cap) <= params_.sched_latency) continue;
    for (std::size_t d = 0; d < cores_.size(); ++d) {
      if (cores_[d].running < 0 && cores_[d].capacity > cap) {
        ++misfits;
        break;
      }
    }
  }
  return misfits;
}

SimDuration Machine::total_busy_time() const {
  SimDuration total = 0;
  for (const Core& core : cores_) {
    total += core.busy;
    if (core.running >= 0) {
      total += now() - Thread(static_cast<std::uint64_t>(core.running)).run_start;
    }
  }
  return total;
}

// --- runqueue maintenance -----------------------------------------------------

void Machine::ClampSleeper(SchedEntity& ent) {
  ent.vruntime = std::max(ent.vruntime,
                          Group(ent.parent).min_vruntime -
                              static_cast<double>(params_.sleeper_bonus));
}

void Machine::EnqueueEntity(SchedEntity& ent, bool sleeper_clamp) {
  assert(!ent.queued);
  CgroupNode& group = Group(ent.parent);
  if (sleeper_clamp) ClampSleeper(ent);
  const bool was_empty = group.rq.empty();
  group.rq.Insert(ent);
  group.total_queued_weight += ent.weight;
  ent.queued = true;
  // A throttled group stays off its parent's runqueue until the refill.
  if (was_empty && !group.is_root && !group.ent.queued && !group.throttled) {
    EnqueueEntity(group.ent, group.running_children == 0);
  }
}

void Machine::DequeueEntity(SchedEntity& ent) {
  assert(ent.queued);
  CgroupNode& group = Group(ent.parent);
  group.rq.Erase(ent);
  assert(group.total_queued_weight >= ent.weight);
  group.total_queued_weight -= ent.weight;
  ent.queued = false;
  if (group.rq.empty() && !group.is_root && group.ent.queued) {
    DequeueEntity(group.ent);
  }
}

void Machine::ReinsertQueued(SchedEntity& ent, double new_vruntime) {
  Group(ent.parent).rq.Update(ent, new_vruntime);
}

void Machine::UpdateMinVruntime(CgroupNode& group, double candidate) {
  double m = candidate;
  if (!group.rq.empty()) m = std::min(m, group.rq.MinVruntime());
  group.min_vruntime = std::max(group.min_vruntime, m);
}

void Machine::ChargeRunning(ThreadNode& t, SimDuration delta) {
  if (delta <= 0) return;
  assert(t.core >= 0);
  // Work retired scales with the core's capacity; vruntime, quota and CPU
  // statistics stay in wall-clock time (weighted fairness is a wall-time
  // property, as in the kernel).
  const SimDuration work =
      WorkFor(delta, cores_[static_cast<std::size_t>(t.core)].capacity);
  const SimDuration overhead = std::min(work, t.pending_overhead);
  t.pending_overhead -= overhead;
  t.remaining_compute -= work - overhead;
  // Events never fire past compute_end and WorkFor/WallFor round-trip
  // exactly, so work is never over-charged.
  assert(t.remaining_compute + t.pending_overhead >= 0);
  t.stats.cpu_time += delta;
  cores_[static_cast<std::size_t>(t.core)].busy += delta;
  if (t.is_deadline) {
    // The CBS budget is wall-clock service time.
    t.dl_budget -= delta;
  }

  // CFS bandwidth: charge the quota of every limited ancestor (RT and
  // deadline threads are exempt, as in the kernel).
  if (t.rt_priority == 0 && !t.is_deadline) {
    for (std::uint32_t i = 0; i < t.path_depth; ++i) {
      CgroupNode& group = Group(t.path[i]);
      if (group.quota <= 0) continue;
      group.quota_used += delta;
      if (group.quota_used >= group.quota) ThrottleGroup(t.path[i]);
    }
  }

  const auto d = static_cast<double>(delta);
  t.ent.vruntime +=
      d * static_cast<double>(kNice0Weight) / static_cast<double>(t.ent.weight);
  UpdateMinVruntime(Group(t.ent.parent), t.ent.vruntime);
  for (std::uint32_t i = 0; i < t.path_depth; ++i) {
    CgroupNode& group = Group(t.path[i]);
    const double new_vr = group.ent.vruntime +
                          d * static_cast<double>(kNice0Weight) /
                              static_cast<double>(group.ent.weight);
    if (group.ent.queued) {
      ReinsertQueued(group.ent, new_vr);
    } else {
      group.ent.vruntime = new_vr;
    }
    UpdateMinVruntime(Group(group.ent.parent), group.ent.vruntime);
  }
}

SimDuration Machine::SliceFor(const ThreadNode& t) const {
  const CgroupNode& group = Group(t.ent.parent);
  const std::uint64_t total = group.total_queued_weight + t.ent.weight;
  const double share = static_cast<double>(t.ent.weight) / static_cast<double>(total);
  const auto slice = static_cast<SimDuration>(
      static_cast<double>(params_.sched_latency) * share);
  return std::clamp(slice, params_.min_granularity, params_.sched_latency);
}

void Machine::ScheduleCoreEvent(int core_idx) {
  Core& core = cores_[static_cast<std::size_t>(core_idx)];
  assert(core.running >= 0);
  const ThreadNode& t = Thread(static_cast<std::uint64_t>(core.running));
  const SimTime compute_end =
      now() + WallFor(t.pending_overhead + t.remaining_compute, core.capacity);
  const SimTime when = std::min(core.slice_end, compute_end);
  sim_->ScheduleAt(std::max(when, now()), this, kCoreEvent,
                   static_cast<std::uint64_t>(core_idx), core.version);
}

// --- dispatch ----------------------------------------------------------------

void Machine::Dispatch(int core_idx, std::uint64_t thread_idx) {
  Core& core = cores_[static_cast<std::size_t>(core_idx)];
  ThreadNode& t = Thread(thread_idx);
  assert(core.running < 0);
  assert(t.state == ThreadState::kRunnable);
  t.state = ThreadState::kRunning;
  t.core = core_idx;
  if (t.last_core >= 0 && t.last_core != core_idx) ++t.stats.nr_migrations;
  t.last_core = core_idx;
  t.run_start = now();
  if (core.last_thread != static_cast<std::int64_t>(thread_idx)) {
    t.pending_overhead = std::max(t.pending_overhead, params_.context_switch_cost);
    ++t.stats.nr_switches;
  }
  if (t.enqueued_at > 0) {
    t.stats.wait_time += now() - t.enqueued_at;
    t.enqueued_at = 0;
  }
  core.running = static_cast<std::int64_t>(thread_idx);
  core.last_thread = static_cast<std::int64_t>(thread_idx);
  ++core.version;
  // Deadline threads run on their CBS budget; RT threads have no timeslice
  // (SCHED_FIFO): they run until they block, exit, or a higher-priority RT
  // thread preempts them.
  if (t.is_deadline) {
    core.slice_end = now() + std::max<SimDuration>(t.dl_budget, 0);
  } else if (t.rt_priority > 0) {
    core.slice_end = std::numeric_limits<SimTime>::max() / 4;
  } else {
    core.slice_end = now() + SliceFor(t);
  }
  Trace(SchedTransition::kDispatch, thread_idx);
  for (std::uint32_t i = 0; i < t.path_depth; ++i) {
    ++Group(t.path[i]).running_children;
  }
  ScheduleCoreEvent(core_idx);
}

void Machine::PickNext(int core_idx) {
  Core& core = cores_[static_cast<std::size_t>(core_idx)];
  assert(core.running < 0);
  // Deadline class above everything: earliest absolute deadline (EDF).
  if (!dl_queue_.empty()) {
    // Capacity-aware EDF (the kernel 5.x capacity-aware SCHED_DEADLINE
    // rule adapted to a shared queue): the CBS budget is wall-clock, so a
    // reservation whose bandwidth exceeds this core's capacity share would
    // throttle every period without retiring the promised work. A small
    // core therefore serves only reservations that fit and leaves the
    // rest for bigger cores whenever one is bound to re-pick soon.
    if (hetero_ && params_.capacity_aware) {
      const DlRunQueue::Entry* fit =
          dl_queue_.EarliestWhere([&](const DlRunQueue::Entry& e) {
            return DlFits(Thread(e.tid), core.capacity);
          });
      if (fit != nullptr) {
        const std::uint64_t thread_idx = fit->tid;
        dl_queue_.Erase(thread_idx);
        Thread(thread_idx).dl_queued = false;
        Dispatch(core_idx, thread_idx);
        return;
      }
      const int bigger = IdleBiggerCore(core_idx);
      if (bigger >= 0) {
        ++core.version;  // stay idle; cancel any stale events
        PickNext(bigger);
        return;
      }
      if (!BiggerCoreReleasesSoon(core_idx)) {
        // No bigger core will free up within a bounded slice: serve the
        // earliest reservation slowly rather than starve it.
        const std::uint64_t thread_idx = dl_queue_.PopEarliest();
        Thread(thread_idx).dl_queued = false;
        Dispatch(core_idx, thread_idx);
        return;
      }
      // Misfit reservations stay queued for a bigger core; fall through
      // to the RT/CFS classes so this small core still does useful work.
    } else {
      const std::uint64_t thread_idx = dl_queue_.PopEarliest();
      Thread(thread_idx).dl_queued = false;
      Dispatch(core_idx, thread_idx);
      return;
    }
  }
  // RT class next: highest priority, FIFO within a level.
  const int rt_priority = rt_queues_.HighestPriority();
  if (rt_priority > 0) {
    const std::uint64_t thread_idx = rt_queues_.PopFront(rt_priority);
    Thread(thread_idx).rt_queued = false;
    Dispatch(core_idx, thread_idx);
    return;
  }
  // Capacity-aware dispatch filter (the kernel's fits_capacity rule adapted
  // to a shared runqueue): a small core skips CFS threads whose pending
  // burst would exceed a latency period of wall time on it, as long as a
  // bigger core is guaranteed to pick them up soon -- one is idle right now
  // (we hand over below) or one is running a slice/budget-bounded thread.
  // Without that guarantee the small core takes the work anyway: slow
  // progress beats starvation.
  const bool filter_misfits =
      hetero_ && params_.capacity_aware &&
      core.capacity <
          cores_[static_cast<std::size_t>(core_order_.front())].capacity;
  CgroupNode* current = &Group(0);
  while (true) {
    if (current->rq.empty()) {
      if (current->is_root && hetero_ && params_.capacity_aware &&
          TryMisfitSteal(core_idx)) {
        return;
      }
      ++core.version;  // stay idle; cancel any stale events
      return;
    }
    const CfsRunQueue::Entry* pick = nullptr;
    if (filter_misfits) {
      pick = current->rq.MinWhere([&](const CfsRunQueue::Entry& e) {
        if (e.ent->is_group) return true;  // contents unknown; descend
        const ThreadNode& t = Thread(e.ent->id);
        return WallFor(t.pending_overhead + t.remaining_compute,
                       core.capacity) <= params_.sched_latency;
      });
      if (pick == nullptr) {
        // Only misfit work here. Hand it to an idle bigger core, or stay
        // idle while a bigger core is due to re-pick within a bounded
        // slice; otherwise run it slowly rather than starve it.
        const int bigger = IdleBiggerCore(core_idx);
        if (bigger >= 0) {
          ++core.version;  // stay idle; cancel any stale events
          PickNext(bigger);
          return;
        }
        if (BiggerCoreReleasesSoon(core_idx)) {
          ++core.version;
          return;
        }
        pick = &current->rq.Min();
      }
    } else {
      pick = &current->rq.Min();
    }
    SchedEntity& ent = *pick->ent;
    if (ent.is_group) {
      current = &Group(ent.id);
      continue;
    }
    DequeueEntity(ent);
    Dispatch(core_idx, ent.id);
    return;
  }
}

int Machine::IdleBiggerCore(int core_idx) const {
  const std::uint32_t cap = cores_[static_cast<std::size_t>(core_idx)].capacity;
  // core_order_ is capacity-descending whenever this is called (the filter
  // only runs in capacity-aware mode), so stop at the first core that is
  // not strictly bigger.
  for (const int c : core_order_) {
    const Core& other = cores_[static_cast<std::size_t>(c)];
    if (other.capacity <= cap) break;
    if (other.running < 0) return c;
  }
  return -1;
}

bool Machine::BiggerCoreReleasesSoon(int core_idx) const {
  const std::uint32_t cap = cores_[static_cast<std::size_t>(core_idx)].capacity;
  for (const int c : core_order_) {
    const Core& other = cores_[static_cast<std::size_t>(c)];
    if (other.capacity <= cap) break;
    if (other.running < 0) continue;
    const ThreadNode& runner =
        Thread(static_cast<std::uint64_t>(other.running));
    if (runner.rt_priority == 0 || runner.is_deadline) return true;
  }
  return false;
}

bool Machine::DlFits(const ThreadNode& t, std::uint32_t capacity) const {
  // runtime / period <= capacity / kFullCapacity, in exact integer math.
  return t.dl.runtime * static_cast<SimDuration>(kFullCapacity) <=
         t.dl.period * static_cast<SimDuration>(capacity);
}

bool Machine::TryMisfitSteal(int core_idx) {
  const Core& self = cores_[static_cast<std::size_t>(core_idx)];
  // Victim: the busy core with the smallest capacity strictly below ours
  // whose CFS runner still has more than a latency period of work ahead of
  // it (the misfit rule). Strictness means symmetric machines never steal
  // and little cores cannot steal back (no ping-pong).
  int victim_core = -1;
  std::uint32_t victim_cap = self.capacity;
  for (std::size_t c = 0; c < cores_.size(); ++c) {
    const Core& other = cores_[c];
    if (static_cast<int>(c) == core_idx || other.running < 0) continue;
    if (other.capacity >= victim_cap) continue;
    // Never migrate the thread whose body is currently executing: its call
    // stack is live on its core.
    if (other.running == current_thread_) continue;
    const ThreadNode& runner =
        Thread(static_cast<std::uint64_t>(other.running));
    if (runner.rt_priority > 0 || runner.is_deadline) continue;
    if (PathThrottled(runner)) continue;
    if (WallFor(RemainingWorkNow(runner), other.capacity) <=
        params_.sched_latency) {
      continue;
    }
    victim_core = static_cast<int>(c);
    victim_cap = other.capacity;
  }
  if (victim_core < 0) return false;
  const auto victim_idx = static_cast<std::uint64_t>(
      cores_[static_cast<std::size_t>(victim_core)].running);
  ThreadNode& victim = Thread(victim_idx);
  ChargeRunning(victim, now() - victim.run_start);
  victim.state = ThreadState::kRunnable;
  ++victim.stats.nr_preemptions;
  Trace(SchedTransition::kPreempt, victim_idx);
  StopRunning(victim_core);
  if (PathThrottled(victim)) {
    // Charging just exhausted an ancestor's quota: the thread must wait for
    // the refill instead of migrating.
    RequeueRunnable(victim, /*preempted=*/true);
    PickNext(victim_core);
    return false;
  }
  Dispatch(core_idx, victim_idx);
  // Refill the smaller core (which may in turn steal from an even smaller
  // one; capacities strictly decrease along the chain, so this terminates).
  PickNext(victim_core);
  return true;
}

bool Machine::TryMisfitUpgrade(int core_idx, std::uint64_t thread_idx) {
  if (!hetero_ || !params_.capacity_aware) return false;
  ThreadNode& t = Thread(thread_idx);
  if (t.rt_priority > 0 || t.is_deadline) return false;
  const std::uint32_t cap = cores_[static_cast<std::size_t>(core_idx)].capacity;
  if (cap == kFullCapacity) return false;
  if (WallFor(t.pending_overhead + t.remaining_compute, cap) <=
      params_.sched_latency) {
    return false;
  }
  int target = -1;
  for (const int c : core_order_) {
    if (cores_[static_cast<std::size_t>(c)].capacity <= cap) break;
    if (cores_[static_cast<std::size_t>(c)].running < 0) {
      target = c;
      break;
    }
  }
  if (target < 0) return false;
  t.state = ThreadState::kRunnable;
  ++t.stats.nr_preemptions;
  Trace(SchedTransition::kPreempt, thread_idx);
  StopRunning(core_idx);
  Dispatch(target, thread_idx);
  PickNext(core_idx);
  return true;
}

void Machine::StopRunning(int core_idx) {
  Core& core = cores_[static_cast<std::size_t>(core_idx)];
  assert(core.running >= 0);
  ThreadNode& t = Thread(static_cast<std::uint64_t>(core.running));
  for (std::uint32_t i = 0; i < t.path_depth; ++i) {
    --Group(t.path[i]).running_children;
  }
  t.core = -1;
  core.running = -1;
  ++core.version;
}

void Machine::AdvanceBody(int core_idx, std::uint64_t thread_idx) {
  Core& core = cores_[static_cast<std::size_t>(core_idx)];
  ThreadNode& t = Thread(thread_idx);
  // Bodies must eventually compute, block, or exit; this guards against a
  // buggy body spinning at one instant of simulated time.
  for (int guard = 0; guard < 1'000'000; ++guard) {
    current_thread_ = static_cast<std::int64_t>(thread_idx);
    const Action action = t.body->Next(*this);
    current_thread_ = -1;
    switch (action.kind) {
      case Action::Kind::kCompute: {
        if (action.duration <= 0) continue;  // free action, ask again
        t.remaining_compute = action.duration;
        if (t.is_deadline && t.dl_budget <= 0) {
          // CBS budget exhausted: park off-CPU until the replenishment.
          t.dl_throttled = true;
          ++t.stats.nr_dl_throttles;
          t.state = ThreadState::kRunnable;
          ++t.stats.nr_preemptions;
          Trace(SchedTransition::kPreempt, thread_idx);
          StopRunning(core_idx);
          PickNext(core_idx);
          return;
        }
        if (TryMisfitUpgrade(core_idx, thread_idx)) return;
        // The burst the body just revealed is misfit for this small core
        // and no bigger core is idle (the upgrade above would have taken
        // it). Requeue instead of serving it slowly whenever a bigger core
        // is bound to re-pick within a bounded slice: the dispatch filter
        // in PickNext routes it there.
                if (hetero_ && params_.capacity_aware && t.rt_priority == 0 &&
            !t.is_deadline &&
            core.capacity <
                cores_[static_cast<std::size_t>(core_order_.front())]
                    .capacity &&
            WallFor(t.pending_overhead + t.remaining_compute,
                    core.capacity) > params_.sched_latency &&
            BiggerCoreReleasesSoon(core_idx)) {
          t.state = ThreadState::kRunnable;
          ++t.stats.nr_preemptions;
          Trace(SchedTransition::kPreempt, thread_idx);
          StopRunning(core_idx);
          RequeueRunnable(t, /*preempted=*/true);
          PickNext(core_idx);
          return;
        }
        if (now() >= core.slice_end) {
          if (!Group(0).rq.empty() || !rt_queues_.empty() ||
              !dl_queue_.empty() || PathThrottled(t)) {
            // Slice exhausted and there is competition: involuntary switch.
            t.state = ThreadState::kRunnable;
            ++t.stats.nr_preemptions;
            Trace(SchedTransition::kPreempt, thread_idx);
            StopRunning(core_idx);
            RequeueRunnable(t, /*preempted=*/true);
            PickNext(core_idx);
            return;
          }
          core.slice_end =
              now() + (t.is_deadline ? t.dl_budget : SliceFor(t));
        }
        ScheduleCoreEvent(core_idx);
        return;
      }
      case Action::Kind::kWait: {
        assert(action.channel != nullptr);
        action.channel->waiters_.PushBack(ThreadId(thread_idx));
        t.waiting = action.channel;
        t.state = ThreadState::kBlocked;
        ++t.version;
        Trace(SchedTransition::kBlock, thread_idx);
        StopRunning(core_idx);
        PickNext(core_idx);
        return;
      }
      case Action::Kind::kSleep: {
        t.state = ThreadState::kSleeping;
        ++t.version;
        Trace(SchedTransition::kSleep, thread_idx);
        sim_->ScheduleAfter(std::max<SimDuration>(action.duration, 0), this,
                            kTimerWake, thread_idx, t.version);
        StopRunning(core_idx);
        PickNext(core_idx);
        return;
      }
      case Action::Kind::kExit: {
        t.state = ThreadState::kExited;
        ++t.version;
        Trace(SchedTransition::kExit, thread_idx);
        StopRunning(core_idx);
        PickNext(core_idx);
        return;
      }
    }
  }
  assert(false && "ThreadBody spun without consuming simulated time");
}

// --- wakeups -----------------------------------------------------------------

void Machine::RequeueRunnable(ThreadNode& t, bool preempted) {
  t.enqueued_at = now();
  if (t.is_deadline) {
    // A budget-exhausted reservation stays parked off-queue until its
    // replenishment event; everything else queues EDF.
    if (t.dl_throttled) return;
    assert(!t.dl_queued);
    dl_queue_.Push(t.ent.id, t.dl_deadline_at);
    t.dl_queued = true;
    return;
  }
  if (t.rt_priority > 0) {
    assert(!t.rt_queued);
    // A preempted RT thread resumes ahead of its FIFO peers (SCHED_FIFO).
    if (preempted) {
      rt_queues_.PushFront(t.rt_priority, t.ent.id);
    } else {
      rt_queues_.PushBack(t.rt_priority, t.ent.id);
    }
    t.rt_queued = true;
    return;
  }
  EnqueueEntity(t.ent, /*sleeper_clamp=*/!preempted);
}

void Machine::TruncateCore(int core_idx) {
  Core& core = cores_[static_cast<std::size_t>(core_idx)];
  if (core.running < 0 || core.slice_end <= now()) return;
  core.slice_end = now();
  ++core.version;
  ScheduleCoreEvent(core_idx);
}

void Machine::WakeThread(std::uint64_t thread_idx, SimDuration startup_cost) {
  ThreadNode& t = Thread(thread_idx);
  assert(t.state == ThreadState::kNew || t.state == ThreadState::kBlocked ||
         t.state == ThreadState::kSleeping);
  ++t.stats.nr_wakeups;
  t.state = ThreadState::kRunnable;
  Trace(SchedTransition::kWake, thread_idx);
  t.remaining_compute += startup_cost;
  // Direct wake. DirectWakeCore finds an idle core only when the root's
  // runqueue, the RT queues and the deadline queue are empty and every
  // group on the thread's path has an empty runqueue and no throttle; as a
  // queued group sits in its parent's runqueue, no path group is queued
  // either. RequeueRunnable would then enqueue the thread and each path
  // group into an empty runqueue, each with its sleeper clamp (a group's
  // only while none of its threads runs), and TryDispatchWake's PickNext on
  // that core would find no deadline or RT thread and take the same chain
  // straight back off. Applying the clamps and dispatching leaves the
  // machine in the same state, without the runqueue operations.
  const int core = DirectWakeCore(t);
  if (core >= 0) {
    assert(t.enqueued_at == 0);  // cleared by the last Dispatch
    ClampSleeper(t.ent);
    for (std::uint32_t i = 0; i < t.path_depth; ++i) {
      CgroupNode& group = Group(t.path[i]);
      if (group.running_children == 0) ClampSleeper(group.ent);
    }
    Dispatch(core, thread_idx);
    return;
  }
  RequeueRunnable(t, /*preempted=*/false);
  TryDispatchWake(thread_idx);
}

int Machine::DirectWakeCore(const ThreadNode& t) const {
  // Symmetric machines only: there the idle-core order is the index order
  // and PickNext applies no capacity filter.
  if (hetero_ || t.rt_priority > 0 || t.is_deadline) return -1;
  if (!Group(0).rq.empty() || !rt_queues_.empty() || !dl_queue_.empty()) {
    return -1;
  }
  for (std::uint32_t i = 0; i < t.path_depth; ++i) {
    const CgroupNode& group = Group(t.path[i]);
    if (group.throttled || !group.rq.empty()) return -1;
  }
  for (std::size_t c = 0; c < cores_.size(); ++c) {
    if (cores_[c].running < 0) return static_cast<int>(c);
  }
  return -1;
}

double Machine::PreemptMargin(const ThreadNode& wakee, const ThreadNode& runner) {
  // Root-first (group, vruntime, weight) paths for both threads; the
  // runner's entities are projected forward by its uncharged runtime. The
  // cached ancestor chains bound the depth, so both paths live in inline
  // arrays -- no allocation on the wakeup path.
  struct Level {
    std::uint64_t group;
    double vruntime;
    std::uint64_t weight;
  };
  using Path = std::array<Level, kMaxCgroupDepth + 1>;
  // Fills `out` root-first and returns the level count: ancestor groups
  // from the top-level group down, then the thread itself.
  auto build = [&](const ThreadNode& t, double extra_runtime, Path& out) {
    const std::uint32_t depth = t.path_depth;
    for (std::uint32_t i = 0; i < depth; ++i) {
      const CgroupNode& group = Group(t.path[depth - 1 - i]);
      out[i] = {group.ent.parent,
                group.ent.vruntime +
                    extra_runtime * static_cast<double>(kNice0Weight) /
                        static_cast<double>(group.ent.weight),
                group.ent.weight};
    }
    out[depth] = {t.ent.parent,
                  t.ent.vruntime + extra_runtime *
                                       static_cast<double>(kNice0Weight) /
                                       static_cast<double>(t.ent.weight),
                  t.ent.weight};
    return static_cast<std::size_t>(depth) + 1;
  };
  const auto delta = static_cast<double>(now() - runner.run_start);
  Path wakee_path, runner_path;
  const std::size_t wakee_levels = build(wakee, 0.0, wakee_path);
  const std::size_t runner_levels = build(runner, delta, runner_path);
  // Find the deepest level where both paths share the containing group.
  std::size_t level = 0;
  const std::size_t max_level = std::min(wakee_levels, runner_levels);
  while (level + 1 < max_level &&
         wakee_path[level + 1].group == runner_path[level + 1].group) {
    ++level;
  }
  if (wakee_path[level].group != runner_path[level].group) return 0.0;
  const double gran = static_cast<double>(params_.wakeup_granularity) *
                      static_cast<double>(kNice0Weight) /
                      static_cast<double>(wakee_path[level].weight);
  return runner_path[level].vruntime - wakee_path[level].vruntime - gran;
}

bool Machine::PreemptForDeadline(std::uint64_t thread_idx, bool fit_only) {
  // Preempt the weakest runner -- prefer any CFS thread, else the
  // lowest-priority RT thread, else the deadline runner with the latest
  // absolute deadline strictly after the wakee's (EDF semantics).
  const ThreadNode& wakee = Thread(thread_idx);
  int cfs_core = -1;
  int rt_core = -1;
  int rt_priority = 100;
  int dl_core = -1;
  SimTime dl_latest = wakee.dl_deadline_at;  // must be strictly later
  for (std::size_t c = 0; c < cores_.size(); ++c) {
    if (cores_[c].running < 0) continue;
    if (fit_only && !DlFits(wakee, cores_[c].capacity)) continue;
    const ThreadNode& runner =
        Thread(static_cast<std::uint64_t>(cores_[c].running));
    if (runner.is_deadline) {
      if (runner.dl_deadline_at > dl_latest) {
        dl_latest = runner.dl_deadline_at;
        dl_core = static_cast<int>(c);
      }
    } else if (runner.rt_priority > 0) {
      if (runner.rt_priority < rt_priority) {
        rt_priority = runner.rt_priority;
        rt_core = static_cast<int>(c);
      }
    } else if (cfs_core < 0) {
      cfs_core = static_cast<int>(c);
    }
  }
  const int target = cfs_core >= 0 ? cfs_core : (rt_core >= 0 ? rt_core : dl_core);
  if (target >= 0) {
    TruncateCore(target);
    return true;
  }
  return false;
}

void Machine::TryDispatchWake(std::uint64_t thread_idx) {
  if (Thread(thread_idx).is_deadline && Thread(thread_idx).dl_throttled) {
    return;  // parked until replenishment; nothing to dispatch
  }
  // Capacity-aware SCHED_DEADLINE placement: a wall-clock CBS budget on a
  // core below the reservation's bandwidth throttles every period, so a
  // deadline wakee on a heterogeneous machine first tries idle cores whose
  // capacity fits, then preempts the weakest runner on a fitting core, and
  // only then falls back to any idle core or any runner at all.
  if (Thread(thread_idx).is_deadline && hetero_ && params_.capacity_aware) {
    const ThreadNode& wakee = Thread(thread_idx);
    int fallback_idle = -1;
    for (const int c : core_order_) {
      if (cores_[static_cast<std::size_t>(c)].running >= 0) continue;
      if (DlFits(wakee, cores_[static_cast<std::size_t>(c)].capacity)) {
        PickNext(c);
        return;
      }
      if (fallback_idle < 0) fallback_idle = c;
    }
    if (PreemptForDeadline(thread_idx, /*fit_only=*/true)) return;
    if (fallback_idle >= 0) {
      PickNext(fallback_idle);
      return;
    }
    PreemptForDeadline(thread_idx, /*fit_only=*/false);
    return;
  }
  // Idle cores are tried biggest-first (core_order_ is the identity on
  // symmetric machines), so misfit-prone work starts on big cores.
  for (const int c : core_order_) {
    if (cores_[static_cast<std::size_t>(c)].running < 0) {
      PickNext(c);
      return;
    }
  }
  if (Thread(thread_idx).is_deadline) {
    PreemptForDeadline(thread_idx, /*fit_only=*/false);
    return;
  }
  // RT wakee: preempt the weakest runner -- prefer any CFS thread, else the
  // lowest-priority RT thread below the wakee (strict priority semantics).
  if (Thread(thread_idx).rt_priority > 0) {
    const int wakee_priority = Thread(thread_idx).rt_priority;
    int best_core = -1;
    int best_priority = wakee_priority;  // must be strictly below wakee
    for (std::size_t c = 0; c < cores_.size(); ++c) {
      const ThreadNode& runner =
          Thread(static_cast<std::uint64_t>(cores_[c].running));
      if (runner.is_deadline) continue;  // RT never preempts deadline
      if (runner.rt_priority < best_priority) {
        best_priority = runner.rt_priority;
        best_core = static_cast<int>(c);
      }
    }
    if (best_core >= 0) TruncateCore(best_core);
    return;
  }
  // No idle core: wakeup preemption. As in the kernel, the wakee contests
  // only its target CPU rather than the globally most-preemptable core:
  // for synchronous wakeups (a producer pushing to its consumer) that is
  // the WAKER's CPU (wake affinity, WF_SYNC) -- the source of the classic
  // pipeline ping-pong -- and otherwise the core the wakee last ran on.
  // A positive margin truncates that core's slice (need_resched); the
  // switch happens at the next scheduling point, picking the fairest
  // queued entity.
  const ThreadNode& wakee = Thread(thread_idx);
  int target = wakee.last_core >= 0
                   ? wakee.last_core
                   : static_cast<int>(thread_idx % cores_.size());
  if (current_thread_ >= 0 &&
      Thread(static_cast<std::uint64_t>(current_thread_)).core >= 0) {
    target = Thread(static_cast<std::uint64_t>(current_thread_)).core;
  }
  Core& core = cores_[static_cast<std::size_t>(target)];
  const ThreadNode& runner = Thread(static_cast<std::uint64_t>(core.running));
  if (runner.is_deadline) return;      // CFS never preempts deadline
  if (runner.rt_priority > 0) return;  // CFS never preempts RT
  if (PreemptMargin(wakee, runner) > 0 && core.slice_end > now()) {
    core.slice_end = now();
    ++core.version;
    ScheduleCoreEvent(target);
  }
}

void Machine::NotifyChannel(WaitChannel& channel, std::size_t max_wakeups) {
  while (max_wakeups > 0 && !channel.waiters_.empty()) {
    const ThreadId tid = channel.waiters_.PopFront();
    ThreadNode& t = Thread(tid.value());
    assert(t.state == ThreadState::kBlocked && t.waiting == &channel);
    t.waiting = nullptr;
    WakeThread(tid.value(), params_.wakeup_check_cost);
    --max_wakeups;
  }
}

// --- event handling ------------------------------------------------------------

void Machine::HandleEvent(std::int32_t code, std::uint64_t a, std::uint64_t b) {
  switch (code) {
    case kCoreEvent:
      OnCoreEvent(a, b);
      break;
    case kTimerWake:
      OnTimerWake(a, b);
      break;
    case kQuotaRefill:
      OnQuotaRefill(a, b);
      break;
    case kDlReplenish:
      OnDlReplenish(a, b);
      break;
    default:
      assert(false && "unknown event code");
  }
}

void Machine::OnCoreEvent(std::uint64_t core_idx, std::uint64_t version) {
  Core& core = cores_[core_idx];
  if (version != core.version || core.running < 0) return;  // stale
  const auto thread_idx = static_cast<std::uint64_t>(core.running);
  ThreadNode& t = Thread(thread_idx);
  ChargeRunning(t, now() - t.run_start);
  t.run_start = now();

  if (t.is_deadline && t.dl_budget <= 0 &&
      (t.pending_overhead > 0 || t.remaining_compute > 0)) {
    // CBS budget exhausted mid-action: park off-CPU until replenishment.
    t.dl_throttled = true;
    ++t.stats.nr_dl_throttles;
    t.state = ThreadState::kRunnable;
    ++t.stats.nr_preemptions;
    Trace(SchedTransition::kPreempt, thread_idx);
    StopRunning(static_cast<int>(core_idx));
    PickNext(static_cast<int>(core_idx));
    return;
  }
  if (t.pending_overhead <= 0 && t.remaining_compute <= 0) {
    AdvanceBody(static_cast<int>(core_idx), thread_idx);
    return;
  }
  if (now() >= core.slice_end) {
    const bool contested = !Group(0).rq.empty() || !rt_queues_.empty() ||
                           !dl_queue_.empty() || PathThrottled(t);
    if (!contested) {
      if (TryMisfitUpgrade(static_cast<int>(core_idx), thread_idx)) return;
      // Nothing else runnable: extend the slice.
      core.slice_end =
          now() + (t.is_deadline ? t.dl_budget : SliceFor(t));
      ++core.version;
      ScheduleCoreEvent(static_cast<int>(core_idx));
      return;
    }
    t.state = ThreadState::kRunnable;
    ++t.stats.nr_preemptions;
    Trace(SchedTransition::kPreempt, thread_idx);
    StopRunning(static_cast<int>(core_idx));
    RequeueRunnable(t, /*preempted=*/true);
    PickNext(static_cast<int>(core_idx));
    return;
  }
  // Spurious wakeup of the core event (e.g. slice extended); rearm.
  ++core.version;
  ScheduleCoreEvent(static_cast<int>(core_idx));
}

void Machine::OnTimerWake(std::uint64_t thread_idx, std::uint64_t version) {
  ThreadNode& t = Thread(thread_idx);
  if (version != t.version || t.state != ThreadState::kSleeping) return;
  WakeThread(thread_idx, params_.wakeup_check_cost);
}

}  // namespace lachesis::sim
