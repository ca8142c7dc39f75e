// A simulated multi-core host running a CFS-like scheduler.
//
// The Machine models exactly the knobs Lachesis turns (paper §2):
//  - per-thread nice values mapped through the kernel's weight table,
//  - a cgroup hierarchy whose cpu.shares act as group-entity weights,
//  - vruntime-ordered fair scheduling with timeslices derived from
//    sched_latency/min_granularity and weight-scaled wakeup preemption.
//
// Idealizations vs. the kernel (documented in DESIGN.md): a single global
// hierarchical runqueue feeds all cores (no per-CPU balancing), and group
// entities are charged the summed runtime of concurrently running children.
// Both preserve the weighted-fairness semantics the paper relies on.
#ifndef LACHESIS_SIM_MACHINE_H_
#define LACHESIS_SIM_MACHINE_H_

#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "common/sim_time.h"
#include "common/stable_pool.h"
#include "sim/cfs_params.h"
#include "sim/event_queue.h"
#include "sim/runqueue.h"
#include "sim/simulator.h"
#include "sim/thread.h"
#include "sim/weights.h"

namespace lachesis::sim {

class Machine;

// Scheduler state transitions observable through SchedTraceObserver. The
// numeric values are part of the golden-trace digest format; do not reorder.
enum class SchedTransition : std::int32_t {
  kWake = 0,      // blocked/sleeping/new -> runnable
  kDispatch = 1,  // runnable -> running on a core
  kPreempt = 2,   // involuntarily descheduled (slice end / need_resched)
  kBlock = 3,     // running -> blocked on a WaitChannel
  kSleep = 4,     // running -> timed sleep
  kExit = 5,      // running -> exited
};

// Observer of scheduler transitions, used by the golden-trace determinism
// tests and schedule debugging. Callbacks fire synchronously on the
// scheduler's hot path; implementations must not mutate the machine.
class SchedTraceObserver {
 public:
  virtual ~SchedTraceObserver() = default;
  virtual void OnSchedTransition(SimTime time, ThreadId tid,
                                 SchedTransition kind) = 0;
};

// Condition-variable-like wakeup channel. Bodies block on it via
// Action::Wait and producers wake them with NotifyOne/NotifyAll; a woken
// body must re-check its predicate.
class WaitChannel {
 public:
  explicit WaitChannel(Machine& machine) : machine_(&machine) {}
  WaitChannel(const WaitChannel&) = delete;
  WaitChannel& operator=(const WaitChannel&) = delete;

  void NotifyOne();
  void NotifyAll();

 private:
  friend class Machine;
  Machine* machine_;
  std::deque<ThreadId> waiters_;
};

class Machine final : public EventSink {
 public:
  // Throws std::invalid_argument for a non-positive core count or CfsParams
  // that fail CfsParams::Validate().
  Machine(Simulator& sim, int num_cores, CfsParams params = {},
          std::string name = "node0");
  ~Machine() override;
  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  // --- cgroups -------------------------------------------------------------
  [[nodiscard]] CgroupId root_cgroup() const { return CgroupId(0); }
  CgroupId CreateCgroup(std::string name, CgroupId parent,
                        std::uint64_t shares = kNice0Weight);
  void SetShares(CgroupId group, std::uint64_t shares);
  [[nodiscard]] std::uint64_t GetShares(CgroupId group) const;
  [[nodiscard]] const std::string& CgroupName(CgroupId group) const;

  // Sets a CFS-bandwidth quota: the group's CFS threads may consume at most
  // `quota` CPU time per `period` (summed over cores); when exhausted the
  // group is throttled until the next refill. quota = 0 disables. Models the
  // kernel's cpu.cfs_quota_us/cpu.cfs_period_us (cpu.max in v2), the
  // additional mechanism the paper's §8 names.
  void SetQuota(CgroupId group, SimDuration quota, SimDuration period);

  // --- threads -------------------------------------------------------------
  // Creates and immediately starts a thread. The machine owns the body.
  ThreadId CreateThread(std::string name, std::unique_ptr<ThreadBody> body,
                        CgroupId group, int nice = 0);
  void SetNice(ThreadId tid, int nice);
  [[nodiscard]] int GetNice(ThreadId tid) const;
  // Real-time scheduling (SCHED_FIFO-like): priority 1..99 preempts all CFS
  // threads; higher beats lower; FIFO within a level; no timeslice. 0
  // returns the thread to CFS. RT threads are exempt from cgroup CPU
  // quotas, as in the kernel.
  void SetRtPriority(ThreadId tid, int rt_priority);
  [[nodiscard]] int GetRtPriority(ThreadId tid) const;
  // SCHED_DEADLINE-like reservation (EDF above RT and CFS, with a CBS-style
  // budget): the thread receives `runtime` of CPU every `period`, replenished
  // periodically, and is throttled off-CPU when the budget is exhausted.
  // Throws std::invalid_argument for a malformed triple; returns false when
  // utilization-based admission control rejects the reservation (the thread
  // keeps its previous scheduling class). A zero triple clears the
  // reservation and returns the thread to its rt_priority/CFS class.
  bool SetDeadline(ThreadId tid, DeadlineParams dl);
  [[nodiscard]] DeadlineParams GetDeadline(ThreadId tid) const;
  [[nodiscard]] bool IsDeadline(ThreadId tid) const;
  void MoveToCgroup(ThreadId tid, CgroupId group);
  [[nodiscard]] CgroupId GetCgroup(ThreadId tid) const;
  [[nodiscard]] ThreadState GetState(ThreadId tid) const;
  [[nodiscard]] const ThreadStats& GetStats(ThreadId tid) const;
  [[nodiscard]] std::size_t thread_count() const { return threads_.size(); }
  // Sum of the weights currently queued in `group`'s runqueue (diagnostic;
  // the denominator of SliceFor for that group's children).
  [[nodiscard]] std::uint64_t QueuedWeight(CgroupId group) const;
  // The CFS timeslice the thread would receive if dispatched now.
  [[nodiscard]] SimDuration TimesliceFor(ThreadId tid) const;

  // --- introspection -------------------------------------------------------
  [[nodiscard]] SimTime now() const { return sim_->now(); }
  [[nodiscard]] Simulator& simulator() { return *sim_; }
  [[nodiscard]] int num_cores() const { return static_cast<int>(cores_.size()); }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const CfsParams& params() const { return params_; }
  // Aggregate busy time over all cores since simulation start.
  [[nodiscard]] SimDuration total_busy_time() const;
  // Scheduler-state introspection for the conformance harness
  // (src/conformance/): raw vruntimes and occupancy counts that invariant
  // checkers sample while a scenario runs. Diagnostic only -- values are in
  // the simulator's internal weighted-nanosecond frame.
  [[nodiscard]] std::size_t cgroup_count() const { return cgroups_.size(); }
  [[nodiscard]] double ThreadVruntime(ThreadId tid) const {
    return Thread(tid.value()).ent.vruntime;
  }
  [[nodiscard]] double GroupMinVruntime(CgroupId group) const {
    return Group(group.value()).min_vruntime;
  }
  // Cores with no thread dispatched right now.
  [[nodiscard]] int IdleCoreCount() const;
  // Threads that are runnable (queued, not running) and not blocked behind a
  // quota-throttled ancestor or an exhausted deadline budget; with
  // work-conserving scheduling this must be 0 whenever IdleCoreCount() > 0.
  [[nodiscard]] int UnthrottledRunnableCount() const;

  // --- heterogeneous capacity ----------------------------------------------
  // The kernel's SCHED_CAPACITY_SCALE: a full-capacity core in the integer
  // capacity frame all work accounting uses.
  static constexpr std::uint32_t kFullCapacity = 1024;
  // Per-core capacity in kFullCapacity units (1024 = full-speed core).
  [[nodiscard]] std::uint32_t CoreCapacity(int core) const {
    return cores_[static_cast<std::size_t>(core)].capacity;
  }
  // Work retired by `wall` nanoseconds on a core of `capacity`, and the
  // wall-clock a core needs to retire `work` (ceiling). The full-capacity
  // fast paths are exact identities, which keeps symmetric machines
  // bit-identical to the pre-heterogeneity scheduler; for smaller cores the
  // pair round-trips exactly (WorkFor(WallFor(w)) == w), so compute never
  // over- or under-runs its scheduled end.
  [[nodiscard]] static SimDuration WorkFor(SimDuration wall,
                                           std::uint32_t capacity) {
    return capacity == kFullCapacity ? wall : wall * capacity / kFullCapacity;
  }
  [[nodiscard]] static SimDuration WallFor(SimDuration work,
                                           std::uint32_t capacity) {
    return capacity == kFullCapacity
               ? work
               : (work * kFullCapacity + capacity - 1) / capacity;
  }
  // Sum of core capacities in full-core units (4.0 for 4 symmetric cores).
  [[nodiscard]] double TotalCapacity() const;
  // Running CFS threads whose remaining work would overrun a latency period
  // on their current core while a strictly bigger core sits idle. With
  // capacity-aware migration this is 0 at every quiescent point; the
  // conformance fuzzer probes it (persistent nonzero = lost misfit task).
  [[nodiscard]] int MisfitRunnerCount() const;

  // --- SCHED_DEADLINE admission introspection ------------------------------
  // Summed runtime/period utilization of admitted reservations, and the
  // bound admission control enforces (dl_admission_frac * TotalCapacity()).
  [[nodiscard]] double DlAdmittedUtilization() const {
    return dl_admitted_util_;
  }
  [[nodiscard]] double DlUtilizationBound() const {
    return params_.dl_admission_frac * TotalCapacity();
  }

  // Installs (or clears, with nullptr) the transition observer.
  void set_trace_observer(SchedTraceObserver* observer) {
    trace_observer_ = observer;
  }

  // EventSink:
  void HandleEvent(std::int32_t code, std::uint64_t a, std::uint64_t b) override;

 private:
  friend class WaitChannel;

  struct CgroupNode {
    std::string name;
    SchedEntity ent;
    // Queued children ordered by (vruntime, key).
    CfsRunQueue rq;
    std::uint64_t total_queued_weight = 0;
    double min_vruntime = 0.0;
    int running_children = 0;  // running threads whose path crosses this group
    bool is_root = false;
    // CFS bandwidth control (0 = no quota).
    SimDuration quota = 0;
    SimDuration quota_period = 0;
    SimDuration quota_used = 0;
    bool throttled = false;
    std::uint64_t quota_version = 0;  // invalidates refill chains
  };

  struct ThreadNode {
    std::string name;
    std::unique_ptr<ThreadBody> body;
    ThreadState state = ThreadState::kNew;
    int nice = 0;
    int rt_priority = 0;        // 0 = CFS, 1..99 = SCHED_FIFO-like
    bool rt_queued = false;     // on an RT runqueue
    // SCHED_DEADLINE state. While is_deadline, the EDF class overrides
    // rt_priority/CFS; dl_budget is the wall-clock service remaining this
    // period and dl_throttled parks the thread (runnable but off-queue)
    // until the next replenishment.
    bool is_deadline = false;
    bool dl_queued = false;     // on the machine's EDF runqueue
    bool dl_throttled = false;  // budget exhausted, awaiting replenishment
    DeadlineParams dl;
    SimDuration dl_budget = 0;
    SimTime dl_deadline_at = 0;    // current absolute deadline
    std::uint64_t dl_version = 0;  // invalidates stale replenish events
    SimTime enqueued_at = 0;    // for runnable-wait (PSI-like) accounting
    SchedEntity ent;
    SimDuration remaining_compute = 0;
    SimDuration pending_overhead = 0;
    int core = -1;       // valid iff state == kRunning
    int last_core = -1;  // for wake affinity (preemption targets this core)
    SimTime run_start = 0;
    std::uint64_t version = 0;  // invalidates stale timer events
    WaitChannel* waiting = nullptr;
    ThreadStats stats;
    // Cached ancestor cgroup chain, deepest (the direct parent) first and
    // excluding the root. Rebuilt eagerly by CreateThread/MoveToCgroup --
    // the only operations that change a thread's containing chain, since
    // cgroups are never reparented. ChargeRunning, PathThrottled, and the
    // running_children walks iterate this instead of chasing parent links.
    std::array<std::uint32_t, kMaxCgroupDepth> path{};
    std::uint32_t path_depth = 0;
  };

  struct Core {
    std::int64_t running = -1;      // thread index, -1 when idle
    std::int64_t last_thread = -1;  // to skip switch cost on re-pick
    SimTime slice_end = 0;
    std::uint64_t version = 0;  // invalidates stale core events
    SimDuration busy = 0;
    std::uint32_t capacity = kFullCapacity;
  };

  // Event codes.
  static constexpr std::int32_t kCoreEvent = 1;
  static constexpr std::int32_t kTimerWake = 2;
  static constexpr std::int32_t kQuotaRefill = 3;
  static constexpr std::int32_t kDlReplenish = 4;

  void Trace(SchedTransition kind, std::uint64_t thread_idx) {
    if (trace_observer_ != nullptr) {
      trace_observer_->OnSchedTransition(now(), ThreadId(thread_idx), kind);
    }
  }

  // Rebuilds t.path from the current cgroup hierarchy.
  void BuildPath(ThreadNode& t);

  CgroupNode& Group(std::uint64_t idx) {
    return cgroups_.at(static_cast<std::uint32_t>(idx));
  }
  const CgroupNode& Group(std::uint64_t idx) const {
    return cgroups_.at(static_cast<std::uint32_t>(idx));
  }
  ThreadNode& Thread(std::uint64_t idx) {
    return threads_.at(static_cast<std::uint32_t>(idx));
  }
  const ThreadNode& Thread(std::uint64_t idx) const {
    return threads_.at(static_cast<std::uint32_t>(idx));
  }

  void EnqueueEntity(SchedEntity& ent, bool sleeper_clamp);
  void DequeueEntity(SchedEntity& ent);
  void ReinsertQueued(SchedEntity& ent, double new_vruntime);
  void UpdateMinVruntime(CgroupNode& group, double candidate);

  void ChargeRunning(ThreadNode& t, SimDuration delta);
  SimDuration SliceFor(const ThreadNode& t) const;
  void ScheduleCoreEvent(int core_idx);

  void Dispatch(int core_idx, std::uint64_t thread_idx);
  void PickNext(int core_idx);
  // Deschedules the running thread of `core_idx` after charging; does not
  // change the thread's state (caller decides requeue/block).
  void StopRunning(int core_idx);
  void AdvanceBody(int core_idx, std::uint64_t thread_idx);

  void WakeThread(std::uint64_t thread_idx, SimDuration startup_cost);
  void TryDispatchWake(std::uint64_t thread_idx);
  // Remaining work (pending overhead + compute) of a running thread after
  // accounting for the wall time consumed since run_start.
  [[nodiscard]] SimDuration RemainingWorkNow(const ThreadNode& t) const;
  // Misfit upgrade: moves the CFS runner of `core_idx` to a strictly bigger
  // idle core when its remaining work would overrun a latency period on the
  // current core. Returns true if it migrated (core_idx was refilled).
  bool TryMisfitUpgrade(int core_idx, std::uint64_t thread_idx);
  // Misfit pull: an idle core steals a long-running CFS task from a
  // strictly smaller core (called by PickNext when the runqueue is empty).
  // Returns true when it stole and dispatched.
  bool TryMisfitSteal(int core_idx);
  // Capacity-aware dispatch filter helpers (PickNext on small cores):
  // the first idle core strictly bigger than `core_idx`, or -1.
  [[nodiscard]] int IdleBiggerCore(int core_idx) const;
  // True when some strictly bigger core runs a slice- or budget-bounded
  // thread (CFS or deadline) and is therefore guaranteed to re-pick from
  // the shared runqueue soon. SCHED_FIFO runners give no such bound.
  [[nodiscard]] bool BiggerCoreReleasesSoon(int core_idx) const;
  // Capacity-aware SCHED_DEADLINE placement: true when `capacity` can
  // serve the reservation's bandwidth (runtime/period <= capacity share).
  // The CBS budget is wall-clock, so a core below this bound throttles the
  // reservation every period without retiring the promised work.
  [[nodiscard]] bool DlFits(const ThreadNode& t, std::uint32_t capacity) const;
  // Preempts the weakest runner for a deadline wakee (CFS first, then the
  // lowest-priority RT runner, then the deadline runner with the latest
  // absolute deadline strictly after the wakee's). With `fit_only`, only
  // cores whose capacity fits the wakee's bandwidth are considered.
  // Returns true when a target core was marked for rescheduling.
  bool PreemptForDeadline(std::uint64_t thread_idx, bool fit_only);
  // Requeues a runnable thread: RT threads to the front of their FIFO level
  // (they were preempted), CFS threads into their group's tree.
  void RequeueRunnable(ThreadNode& t, bool preempted);
  // Marks a core for rescheduling at the current instant (need_resched).
  void TruncateCore(int core_idx);
  // True if any cgroup on the thread's path is quota-throttled.
  [[nodiscard]] bool PathThrottled(const ThreadNode& t) const;
  void ThrottleGroup(std::uint64_t group_idx);
  void OnQuotaRefill(std::uint64_t group_idx, std::uint64_t version);
  // > 0 if `wakee` should preempt `runner` (LCA vruntime comparison with
  // weight-scaled wakeup granularity); value is the margin.
  double PreemptMargin(const ThreadNode& wakee, const ThreadNode& runner);

  void OnCoreEvent(std::uint64_t core_idx, std::uint64_t version);
  void OnTimerWake(std::uint64_t thread_idx, std::uint64_t version);
  void OnDlReplenish(std::uint64_t thread_idx, std::uint64_t version);

  void NotifyChannel(WaitChannel& channel, std::size_t max_wakeups);

  Simulator* sim_;
  CfsParams params_;
  std::string name_;
  // Thread whose body is currently executing (the "waker" during wakeups
  // it triggers); -1 outside body callbacks.
  std::int64_t current_thread_ = -1;
  std::vector<Core> cores_;
  // Entity tables: append-only slot pools (the sim never removes entities),
  // so node addresses are stable across growth, slot indices are dense and
  // equal creation order (== ThreadId/CgroupId values, exactly like the
  // vector-of-unique_ptr these replace), and creating an entity costs one
  // chunked-pool slot instead of a per-node heap allocation.
  StablePool<CgroupNode> cgroups_;
  StablePool<ThreadNode> threads_;
  // RT runqueues: fixed priority levels plus bitmap (SCHED_FIFO).
  RtRunQueue rt_queues_;
  // EDF runqueue (SCHED_DEADLINE class, above RT).
  DlRunQueue dl_queue_;
  double dl_admitted_util_ = 0.0;
  // True when any core runs below full capacity; every heterogeneity-only
  // code path is gated on it so symmetric machines take the exact
  // pre-heterogeneity branches.
  bool hetero_ = false;
  // Core indices ordered by (capacity descending, index ascending): the
  // preference order for idle-core placement. The identity permutation on
  // symmetric machines.
  std::vector<int> core_order_;
  SchedTraceObserver* trace_observer_ = nullptr;
};

}  // namespace lachesis::sim

#endif  // LACHESIS_SIM_MACHINE_H_
