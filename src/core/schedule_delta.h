// Schedule-delta application layer (between translators and the OS).
//
// Policies recompute a full schedule every period, but between consecutive
// periods most of it is unchanged. This adapter decorates the real
// OsAdapter and forwards only operations whose value differs from the last
// one successfully applied to the same target: on the native backend that
// is a syscall/cgroupfs-write count win, on the simulator it shrinks event
// churn.
//
// It is also the control plane's failure boundary. An operation that
// throws (e.g. the target thread or cgroup vanished mid-period on a live
// host) is logged and counted, never aborting the tick, and is not cached
// so it will be retried -- but not blindly: failures feed an
// OpHealthTracker (op_health.h) that classifies errors, backs a failing
// target off exponentially with deterministic jitter, and opens a
// per-operation-class circuit breaker when the whole class is failing, so
// a dead backend costs O(1) operations per tick instead of a re-apply
// storm. Suppressed operations are counted separately from errors.
//
// For crash-safe restarts, the cache can be seeded from an OsStateSnapshot
// taken through the backend (ReconcileFromBackend): a restarted daemon
// whose computed schedule matches the kernel's residual state applies zero
// operations on its first tick.
#ifndef LACHESIS_CORE_SCHEDULE_DELTA_H_
#define LACHESIS_CORE_SCHEDULE_DELTA_H_

#include <array>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

#include "common/hash_index.h"
#include "core/op_health.h"
#include "core/os_adapter.h"
#include "obs/event_ring.h"

namespace lachesis::core {

// Identifies a thread across both backends: sim threads by (machine,
// sim_tid), native threads by os_tid. Padding-free POD so the delta cache
// (and the runner's purge/reconcile scratch sets) can hash the object
// representation directly with PodHash.
struct ThreadKey {
  const void* machine = nullptr;
  std::uint64_t sim_tid = 0;
  long os_tid = 0;

  friend constexpr bool operator==(const ThreadKey&,
                                   const ThreadKey&) = default;
};
static_assert(sizeof(ThreadKey) ==
                  sizeof(const void*) + sizeof(std::uint64_t) + sizeof(long),
              "ThreadKey must stay padding-free: PodHash hashes its bytes");

[[nodiscard]] inline ThreadKey ThreadKeyOf(const ThreadHandle& thread) {
  return ThreadKey{thread.machine, thread.sim_tid.value(), thread.os_tid};
}

// Thrown by backends to signal that one OS operation failed (target
// vanished, permission denied, ...). The delta layer absorbs it and uses
// the severity (derived from errno on the native backend) to pick a retry
// strategy; see op_health.h.
class OsOperationError : public std::runtime_error {
 public:
  explicit OsOperationError(const std::string& what,
                            ErrorSeverity severity = ErrorSeverity::kTransient,
                            int err = 0)
      : std::runtime_error(what), severity_(severity), err_(err) {}

  [[nodiscard]] ErrorSeverity severity() const { return severity_; }
  [[nodiscard]] int err() const { return err_; }

 private:
  ErrorSeverity severity_;
  int err_;
};

struct DeltaStats {
  std::uint64_t applied = 0;     // forwarded to the backend and succeeded
  std::uint64_t skipped = 0;     // identical to the last applied value
  std::uint64_t errors = 0;      // backend threw; value not cached
  std::uint64_t suppressed = 0;  // withheld by backoff / open breaker

  DeltaStats& operator+=(const DeltaStats& other) {
    applied += other.applied;
    skipped += other.skipped;
    errors += other.errors;
    suppressed += other.suppressed;
    return *this;
  }
};

class ScheduleDeltaAdapter final : public OsAdapter {
 public:
  explicit ScheduleDeltaAdapter(OsAdapter& next) : next_(&next) {}

  // Pass-through mode: every operation is forwarded (and still counted /
  // error-contained). Used to measure the delta win in benches.
  void set_enabled(bool enabled) { enabled_ = enabled; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  // Starts a new scheduling period: resets the per-tick counters and
  // anchors the health tracker's notion of "now" (backoff deadlines and
  // breaker probes are evaluated against it).
  void BeginTick(SimTime now = 0) {
    tick_ = {};
    now_ = now;
  }
  [[nodiscard]] const DeltaStats& tick_stats() const { return tick_; }
  [[nodiscard]] const DeltaStats& totals() const { return totals_; }

  // Fault-tolerance state machine (disabled by default for a raw adapter;
  // the runner enables it with its defaults).
  void SetHealthConfig(const HealthConfig& config) {
    health_.set_config(config);
  }

  // Decision-provenance sink for op outcomes (applied/elided/suppressed/
  // error); threaded into the health tracker as well so breaker and backoff
  // transitions land in the same event stream. Null disables (default for a
  // raw adapter; the runner installs its own recorder). Target ids interned
  // in a previous recorder are dropped.
  void SetRecorder(obs::Recorder* recorder) {
    if (recorder != recorder_) {
      thread_targets_.Clear();
      group_targets_.Clear();
    }
    recorder_ = recorder;
    health_.SetRecorder(recorder);
  }
  [[nodiscard]] OpHealthTracker& health() { return health_; }
  [[nodiscard]] const OpHealthTracker& health() const { return health_; }

  // Drops all cached state so the next schedule is applied in full (e.g.
  // after the backend lost state behind our back). Health state is kept:
  // a reset must not forget that a backend is failing.
  void Reset();

  // Drops cached values AND health/backoff state for one thread. Called
  // when the entity is removed from the control plane: retrying a pending
  // failed op against a dead entity would be a leak and a bug.
  void ForgetThread(const ThreadHandle& thread);

  // Seeds the cache from observed kernel state (restart reconciliation).
  // Returns the number of cache entries seeded. Groups present in the
  // snapshot but never referenced by a schedule are "adopted": their state
  // is cached so a matching re-creation costs nothing.
  std::size_t SeedFromSnapshot(const OsStateSnapshot& snapshot);
  // Convenience: snapshots the wrapped backend for `threads` and seeds.
  // Returns 0 when the backend cannot observe state.
  std::size_t ReconcileFromBackend(const std::vector<ThreadHandle>& threads);
  [[nodiscard]] std::size_t adopted_groups() const { return adopted_groups_; }

  // Threads currently in the RT class as far as the delta layer knows
  // (last applied rt priority > 0). Lets tests and translators reconcile
  // against applied -- not merely requested -- state.
  [[nodiscard]] std::size_t rt_boosted_count() const;
  // Threads currently holding a SCHED_DEADLINE reservation as far as the
  // delta layer knows (last applied triple non-zero).
  [[nodiscard]] std::size_t dl_reserved_count() const;

  // Stable per-target health key, also the canonical target string in
  // recorded provenance events and explain queries. Deliberately excludes
  // the machine pointer (addresses vary across runs and would break
  // deterministic jitter); sim_tid + os_tid is unique within a backend.
  // The layer builds it once per target, not per op (see Target).
  static std::string HealthKeyOf(const ThreadHandle& thread) {
    return HealthKeyOf(ThreadKeyOf(thread));
  }
  static std::string HealthKeyOf(std::string_view group) {
    return std::string("g:").append(group);
  }

  void SetNice(const ThreadHandle& thread, int nice) override;
  void SetGroupShares(const std::string& group, std::uint64_t shares) override;
  void MoveToGroup(const ThreadHandle& thread,
                   const std::string& group) override;
  void SetRtPriority(const ThreadHandle& thread, int rt_priority) override;
  void SetGroupQuota(const std::string& group, SimDuration quota,
                     SimDuration period) override;
  void SetDeadline(const ThreadHandle& thread, SimDuration runtime,
                   SimDuration deadline, SimDuration period) override;
  void SetCpuAffinity(const ThreadHandle& thread, CpuPreference pref) override;
  bool SnapshotState(const std::vector<ThreadHandle>& threads,
                     OsStateSnapshot& out) override {
    return next_->SnapshotState(threads, out);
  }

 private:
  // Health keys of Apply's cache keys: a thread's, or an interned group's.
  static std::string HealthKeyOf(const ThreadKey& key) {
    return "t:" + std::to_string(key.sim_tid) + "/" +
           std::to_string(key.os_tid);
  }
  [[nodiscard]] std::string HealthKeyOf(std::uint32_t group_id) const {
    return HealthKeyOf(group_ids_.View(group_id));
  }

  // What the layer keeps of one op target (a cache key): its id in the
  // health tracker, which holds its health key, taken the first time the
  // target is named; and its recorder id, taken at its first recorded
  // event. A forwarded op therefore builds and hashes no string.
  struct Target {
    OpHealthTracker::TargetId health = OpHealthTracker::kNoTarget;
    obs::StrId recorded = obs::kNoStr;
  };
  // The target of a cache key, named on first use. The reference is valid
  // until the next TargetOf.
  template <typename K>
  Target& TargetOf(const K& key);

  // The one op path. Elides the op when `cache` holds `value` for `key`, or
  // when `clear` is set and `key` was never set: clearing an rt priority, a
  // reservation or an affinity hint the layer never applied is a no-op by
  // construction (the fair class, no reservation and no hint are the
  // default state). Otherwise forwards `call` and caches `value` when it
  // succeeds. `recorded` and `detail()` feed only the recorder; `detail`
  // runs only for a forwarded op, so the elide path builds no string.
  template <typename K, typename V, typename Detail, typename Call>
  void Apply(OpClass cls, FlatMap<K, V>& cache, const K& key, const V& value,
             bool clear, std::int64_t recorded, Detail&& detail, Call&& call);
  // Runs `call` (the backend op) under the health tracker; returns true
  // when it succeeded. Failures are counted and logged once per
  // (operation, target); suppressed attempts are counted but not logged.
  template <typename Detail, typename Call>
  bool Forward(OpClass cls, Target& target, std::int64_t recorded,
               Detail&& detail, Call&& call);
  // Records one op event against `target`, interning its name first when
  // no event has named it yet (target before detail, as Recorder::Op
  // does). Precondition: recorder_ records events of `kind`.
  void Record(obs::EventKind kind, OpClass cls, Target& target,
              std::int64_t value, std::string_view detail);
  // Bumps one counter of both the tick stats and the totals.
  void Count(std::uint64_t DeltaStats::*counter) {
    ++(tick_.*counter);
    ++(totals_.*counter);
  }
  // Once-per-(operation, target) stderr logging; O(1), allocation-free once
  // the pair has been seen.
  void LogFailureOnce(OpClass cls, const Target& target, const char* what);

  OsAdapter* next_;
  bool enabled_ = true;
  obs::Recorder* recorder_ = nullptr;
  SimTime now_ = 0;
  DeltaStats tick_;
  DeltaStats totals_;
  OpHealthTracker health_;
  std::size_t adopted_groups_ = 0;
  // The last-applied cache: open-addressing maps keyed by padding-free PODs
  // (threads by ThreadKey, groups by interned id), so the per-tick
  // skip-or-forward decision is an O(1) probe with zero heap traffic once
  // the table is warm. Group names are interned on first sight; cached
  // group state compares dense uint32 ids instead of strings.
  StringInterner group_ids_;
  FlatMap<ThreadKey, int> nice_;
  FlatMap<ThreadKey, int> rt_;
  // Last applied (runtime, deadline, period); the all-zero triple means
  // "reservation cleared" and, like rt demotion, clearing a never-reserved
  // thread is elided by construction.
  FlatMap<ThreadKey, std::array<SimDuration, 3>> deadline_;
  FlatMap<ThreadKey, std::uint8_t> affinity_;   // value: CpuPreference
  FlatMap<ThreadKey, std::uint32_t> group_of_;  // value: interned group id
  FlatMap<std::uint32_t, std::uint64_t> shares_;
  FlatMap<std::uint32_t, std::pair<SimDuration, SimDuration>> quota_;
  // Named targets, by the same keys as the cache.
  FlatMap<ThreadKey, Target> thread_targets_;
  FlatMap<std::uint32_t, Target> group_targets_;
  // Failure-log dedup: health target ids per class (exact, and
  // allocation-free after the first occurrence).
  std::array<FlatSet<OpHealthTracker::TargetId>, kOpClassCount>
      logged_failures_;
};

}  // namespace lachesis::core

#endif  // LACHESIS_CORE_SCHEDULE_DELTA_H_
