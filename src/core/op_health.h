// Per-operation-class health tracking for the control plane's OS boundary.
//
// The schedule-delta layer absorbs backend failures, but absorbing alone
// means a persistently failing operation is re-issued every tick (a blind
// retry storm against a dead backend). This module adds the fault-tolerance
// state machine between "op failed" and "try again":
//
//  - per-(class, target) exponential backoff with deterministic jitter:
//    a failing op's retries spread out as base * 2^k, so a permanently
//    failing single target costs O(log T) syscalls over T ticks instead of
//    O(T);
//  - a per-operation-class circuit breaker: when a whole class fails
//    consecutively (threshold in a row with no intervening success -- the
//    signature of a dead backend, an unwritable cgroupfs, or a missing
//    capability) the breaker opens and every op of the class is suppressed
//    except one half-open probe per probe interval (the interval doubles
//    after each failed probe, so a dead backend costs O(log T) probes over
//    T ticks and O(1) work per tick). A successful probe closes the
//    per-target backoff of the class: an environmental failure ended, so
//    everything is retried promptly (this is what lets schedules reconverge
//    within a few ticks of faults clearing);
//  - error classification: kPermanent (EPERM/EACCES: retrying the same call
//    cannot succeed until the environment changes) deepens backoff twice as
//    fast; kVanished (ESRCH/ENOENT: the target is gone) backs off the
//    target but does NOT count against the class -- one dead thread says
//    nothing about the backend. For the same reason a vanished target in
//    its backoff is not handed a half-open probe, and a probe that fails
//    as vanished leaves the probe due for the next op of the class.
//
// All delays are deterministic: jitter is derived from SplitMix64 over
// (seed, target, attempt), never from a global RNG, so chaos runs replay
// byte-identically.
#ifndef LACHESIS_CORE_OP_HEALTH_H_
#define LACHESIS_CORE_OP_HEALTH_H_

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/hash_index.h"
#include "common/sim_time.h"

namespace lachesis::obs {
class Recorder;
}

namespace lachesis::core {

// The operation classes of the OsAdapter surface. Health is tracked per
// class because failure modes are per-mechanism: RT ops fail together
// (missing CAP_SYS_NICE), cgroup ops fail together (unwritable root), nice
// ops fail together (backend down), deadline ops fail together (no
// sched_setattr / admission disabled), affinity ops fail together (no
// sched_setaffinity or a pinned cpuset).
enum class OpClass {
  kSetNice = 0,
  kSetGroupShares,
  kMoveToGroup,
  kSetRtPriority,
  kSetGroupQuota,
  kSetDeadline,
  kSetAffinity,
};
inline constexpr int kOpClassCount = 7;

[[nodiscard]] const char* OpClassName(OpClass cls);

// Bitmask helpers so translators can declare which classes they depend on
// (drives the capability degradation ladder in the runner).
[[nodiscard]] constexpr std::uint32_t OpClassBit(OpClass cls) {
  return 1u << static_cast<int>(cls);
}

enum class ErrorSeverity {
  kTransient,  // EBUSY/EAGAIN/unknown: retry soon, count against the class
  kVanished,   // ESRCH/ENOENT: target gone; back off, class unaffected
  kPermanent,  // EPERM/EACCES: environment must change; deepen backoff fast
};

enum class BreakerState { kClosed, kOpen, kHalfOpen };

struct HealthConfig {
  bool enabled = false;  // raw delta adapters default off; the runner turns
                         // it on (see LachesisRunner)
  SimDuration backoff_base = Millis(500);  // first retry delay
  // 0 = uncapped doubling (pure O(log T) retries, clamped only by
  // kBackoffCeiling); > 0 must be >= backoff_base.
  SimDuration backoff_cap = 0;
  double jitter_frac = 0.25;  // deterministic jitter in [0, frac * delay)
  int breaker_threshold = 5;  // consecutive class failures that open it
  SimDuration probe_interval = Seconds(2);  // half-open probe cadence
  std::uint64_t seed = 0x1ac4e515;          // jitter stream

  // Throws std::invalid_argument on out-of-range values.
  void Validate() const;
};

// Hard ceiling on any backoff delay so "uncapped" doubling cannot overflow
// or effectively disable a target forever on a long-lived daemon.
inline constexpr SimDuration kBackoffCeiling = Seconds(3600);

class OpHealthTracker {
 public:
  OpHealthTracker() = default;
  explicit OpHealthTracker(HealthConfig config);

  // Validates and swaps the configuration (existing state is kept).
  void set_config(const HealthConfig& config);
  [[nodiscard]] const HealthConfig& config() const { return config_; }

  // Optional decision-provenance sink: breaker transitions and backoff
  // arming are recorded as structured events. Null disables (default).
  void SetRecorder(obs::Recorder* recorder) { recorder_ = recorder; }

  // Targets are named once and then addressed by id: the id of `name`,
  // interned first if new. The name keys the backoff jitter and names the
  // target in recorded events.
  using TargetId = std::uint32_t;
  static constexpr TargetId kNoTarget = 0xffffffffu;
  [[nodiscard]] TargetId InternTarget(std::string_view name) {
    return target_ids_.Intern(name);
  }
  // Read-only lookup: kNoTarget when `name` was never interned.
  [[nodiscard]] TargetId FindTarget(std::string_view name) const;
  [[nodiscard]] std::string_view TargetName(TargetId target) const {
    return target_ids_.View(target);
  }

  // True when an attempt on (cls, target) is allowed at `now`: the class
  // breaker is closed (or due a half-open probe, in which case this call IS
  // the probe) and the target is not backing off. Callers must follow every
  // allowed attempt with RecordSuccess or RecordFailure.
  [[nodiscard]] bool AllowAttempt(OpClass cls, TargetId target, SimTime now);
  void RecordSuccess(OpClass cls, TargetId target, SimTime now);
  void RecordFailure(OpClass cls, TargetId target, SimTime now,
                     ErrorSeverity severity);

  // Drops all health state for `target` across every class (the entity was
  // removed; retrying against it would be a leak and a bug).
  void ForgetTarget(TargetId target);
  void Reset();

  [[nodiscard]] BreakerState class_state(OpClass cls) const {
    return classes_[static_cast<int>(cls)].state;
  }
  [[nodiscard]] int open_breakers() const;
  // True when the class breaker is open and its next probe is due at `now`
  // (the next op of the class will be let through as the probe, unless its
  // target vanished and is still backing off).
  [[nodiscard]] bool ProbeDue(OpClass cls, SimTime now) const;
  [[nodiscard]] std::size_t tracked_targets() const;
  // Introspection by name: consecutive failures / next allowed retry of a
  // target (0 when untracked).
  [[nodiscard]] int target_failures(OpClass cls,
                                    const std::string& target) const;
  [[nodiscard]] SimTime target_next_retry(OpClass cls,
                                          const std::string& target) const;
  [[nodiscard]] std::uint64_t breaker_opens(OpClass cls) const {
    return classes_[static_cast<int>(cls)].times_opened;
  }

 private:
  struct TargetHealth {
    int failures = 0;
    SimTime next_retry = 0;
    bool vanished = false;  // the last failure was kVanished
  };
  struct ClassHealth {
    int consecutive_failures = 0;
    // Failed half-open probes since the breaker opened; doubles the probe
    // interval so a dead class costs O(log T) probes.
    int probe_failures = 0;
    BreakerState state = BreakerState::kClosed;
    SimTime probe_at = 0;
    std::uint64_t times_opened = 0;
  };

  [[nodiscard]] SimDuration BackoffDelay(TargetId target, int failures) const;
  [[nodiscard]] const TargetHealth* Find(OpClass cls,
                                         const std::string& target) const;

  HealthConfig config_;
  obs::Recorder* recorder_ = nullptr;
  std::array<ClassHealth, kOpClassCount> classes_{};
  // Targets are interned once (string -> dense uint32 id); per-class state
  // lives in open-addressing maps keyed by id, so the tick-time
  // AllowAttempt / RecordSuccess / RecordFailure cycle is O(1), hashes no
  // string, and touches the heap only when a target is first named or
  // first fails.
  StringInterner target_ids_;
  std::array<FlatMap<TargetId, TargetHealth>, kOpClassCount> targets_;
};

}  // namespace lachesis::core

#endif  // LACHESIS_CORE_OP_HEALTH_H_
