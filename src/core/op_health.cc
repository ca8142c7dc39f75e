#include "core/op_health.h"

#include <algorithm>
#include <stdexcept>

#include "common/rng.h"
#include "obs/recorder.h"

namespace lachesis::core {

namespace {
// Breaker transitions are recorded with the BreakerState's numeric value so
// obs (which cannot see this enum) renders them consistently.
int StateInt(BreakerState s) { return static_cast<int>(s); }
}  // namespace

const char* OpClassName(OpClass cls) {
  switch (cls) {
    case OpClass::kSetNice:
      return "SetNice";
    case OpClass::kSetGroupShares:
      return "SetGroupShares";
    case OpClass::kMoveToGroup:
      return "MoveToGroup";
    case OpClass::kSetRtPriority:
      return "SetRtPriority";
    case OpClass::kSetGroupQuota:
      return "SetGroupQuota";
    case OpClass::kSetDeadline:
      return "SetDeadline";
    case OpClass::kSetAffinity:
      return "SetAffinity";
  }
  return "?";
}

void HealthConfig::Validate() const {
  if (backoff_base <= 0) {
    throw std::invalid_argument("health: backoff_base must be positive");
  }
  if (backoff_cap < 0 || (backoff_cap > 0 && backoff_cap < backoff_base)) {
    throw std::invalid_argument(
        "health: backoff_cap must be 0 (uncapped) or >= backoff_base");
  }
  if (jitter_frac < 0.0 || jitter_frac >= 1.0) {
    throw std::invalid_argument("health: jitter_frac must be in [0, 1)");
  }
  if (breaker_threshold < 1) {
    throw std::invalid_argument("health: breaker_threshold must be >= 1");
  }
  if (probe_interval <= 0) {
    throw std::invalid_argument("health: probe_interval must be positive");
  }
}

OpHealthTracker::OpHealthTracker(HealthConfig config) {
  set_config(config);
}

void OpHealthTracker::set_config(const HealthConfig& config) {
  config.Validate();
  config_ = config;
}

SimDuration OpHealthTracker::BackoffDelay(TargetId target, int failures) const {
  const SimDuration cap =
      config_.backoff_cap > 0
          ? std::min(config_.backoff_cap, kBackoffCeiling)
          : kBackoffCeiling;
  SimDuration delay = config_.backoff_base;
  for (int i = 1; i < failures && delay < cap; ++i) delay *= 2;
  delay = std::min(delay, cap);
  if (config_.jitter_frac > 0.0) {
    // Deterministic jitter: a SplitMix64 stream keyed by (seed, target,
    // attempt). Identical runs see identical delays; distinct targets
    // desynchronize so a cleared fault is not followed by a retry stampede
    // on one tick.
    std::uint64_t mix = config_.seed;
    for (const char c : TargetName(target)) {
      mix = mix * 1099511628211ULL + static_cast<unsigned char>(c);
    }
    mix ^= static_cast<std::uint64_t>(failures) * 0x9E3779B97F4A7C15ULL;
    const auto span =
        static_cast<std::uint64_t>(static_cast<double>(delay) *
                                   config_.jitter_frac);
    if (span > 0) {
      delay += static_cast<SimDuration>(SplitMix64(mix) % span);
    }
  }
  return delay;
}

OpHealthTracker::TargetId OpHealthTracker::FindTarget(
    std::string_view name) const {
  const TargetId id = target_ids_.Lookup(name);
  // Lookup reports both "never interned" and "" as 0; only the latter is a
  // real id (the interner's reserved slot).
  if (id == 0 && !name.empty()) return kNoTarget;
  return id;
}

bool OpHealthTracker::AllowAttempt(OpClass cls, TargetId target, SimTime now) {
  if (!config_.enabled) return true;
  ClassHealth& ch = classes_[static_cast<int>(cls)];
  if (ch.state == BreakerState::kOpen) {
    if (now < ch.probe_at) return false;
    // A vanished target says nothing about the class (see RecordFailure):
    // while it backs off it is not handed the probe, so the next op of the
    // class takes it.
    const TargetHealth* t = targets_[static_cast<int>(cls)].Find(target);
    if (t != nullptr && t->vanished && now < t->next_retry) return false;
    ch.state = BreakerState::kHalfOpen;  // this attempt is the probe
    if (recorder_ != nullptr) {
      recorder_->BreakerTransition(now, static_cast<int>(cls),
                                   StateInt(BreakerState::kOpen),
                                   StateInt(BreakerState::kHalfOpen));
    }
    return true;
  }
  if (ch.state == BreakerState::kHalfOpen) {
    // A probe is in flight (its outcome is recorded synchronously, so this
    // only triggers if a caller skipped Record*); stay conservative.
    return false;
  }
  const TargetHealth* t = targets_[static_cast<int>(cls)].Find(target);
  return t == nullptr || now >= t->next_retry;
}

void OpHealthTracker::RecordSuccess(OpClass cls, TargetId target, SimTime now) {
  if (!config_.enabled) return;
  auto& per_target = targets_[static_cast<int>(cls)];
  per_target.Erase(target);
  ClassHealth& ch = classes_[static_cast<int>(cls)];
  ch.consecutive_failures = 0;
  ch.probe_failures = 0;
  if (ch.state == BreakerState::kHalfOpen) {
    // The probe succeeded: the class-wide failure was environmental and has
    // ended. Close the breaker and clear every backoff of the class so the
    // next tick re-applies everything that was suppressed.
    ch.state = BreakerState::kClosed;
    per_target.Clear();
    if (recorder_ != nullptr) {
      recorder_->BreakerTransition(now, static_cast<int>(cls),
                                   StateInt(BreakerState::kHalfOpen),
                                   StateInt(BreakerState::kClosed));
    }
  }
}

void OpHealthTracker::RecordFailure(OpClass cls, TargetId target, SimTime now,
                                    ErrorSeverity severity) {
  if (!config_.enabled) return;
  TargetHealth& t = *targets_[static_cast<int>(cls)].FindOrInsert(target);
  t.failures += severity == ErrorSeverity::kPermanent ? 2 : 1;
  t.next_retry = now + BackoffDelay(target, t.failures);
  t.vanished = severity == ErrorSeverity::kVanished;
  if (recorder_ != nullptr) {
    recorder_->BackoffArmed(now, static_cast<int>(cls), TargetName(target),
                            t.failures, t.next_retry);
  }

  ClassHealth& ch = classes_[static_cast<int>(cls)];
  if (ch.state == BreakerState::kHalfOpen) {
    // Probe failed: reopen, and double the probe interval (up to the
    // ceiling). A permanently dead class therefore costs O(log T) probes
    // over T ticks, not O(T / probe_interval); a fault that clears after a
    // few intervals is still picked up within a couple of probes. A probe
    // whose target vanished is inconclusive: it neither doubles the interval
    // nor moves the probe time, so the next op of the class probes. Else a
    // gone (or never resolved) thread listed first in every tick would take
    // every probe and hold the breaker open for good.
    ch.state = BreakerState::kOpen;
    if (severity != ErrorSeverity::kVanished) {
      ++ch.probe_failures;
      SimDuration interval = config_.probe_interval;
      for (int i = 0; i < ch.probe_failures && interval < kBackoffCeiling;
           ++i) {
        interval *= 2;
      }
      ch.probe_at = now + std::min(interval, kBackoffCeiling);
    }
    if (recorder_ != nullptr) {
      recorder_->BreakerTransition(now, static_cast<int>(cls),
                                   StateInt(BreakerState::kHalfOpen),
                                   StateInt(BreakerState::kOpen));
    }
    return;
  }
  if (severity == ErrorSeverity::kVanished) return;  // not a class signal
  if (++ch.consecutive_failures >= config_.breaker_threshold &&
      ch.state == BreakerState::kClosed) {
    ch.state = BreakerState::kOpen;
    ch.probe_failures = 0;
    ch.probe_at = now + config_.probe_interval;
    ++ch.times_opened;
    if (recorder_ != nullptr) {
      recorder_->BreakerTransition(now, static_cast<int>(cls),
                                   StateInt(BreakerState::kClosed),
                                   StateInt(BreakerState::kOpen));
    }
  }
}

void OpHealthTracker::ForgetTarget(TargetId target) {
  for (auto& per_target : targets_) per_target.Erase(target);
}

void OpHealthTracker::Reset() {
  classes_ = {};
  // The interner is deliberately kept: ids are internal, stable, and
  // bounded by the set of distinct targets ever seen, so a Reset leaves a
  // warmed tracker allocation-free.
  for (auto& per_target : targets_) per_target.Clear();
}

int OpHealthTracker::open_breakers() const {
  int count = 0;
  for (const ClassHealth& ch : classes_) {
    if (ch.state != BreakerState::kClosed) ++count;
  }
  return count;
}

bool OpHealthTracker::ProbeDue(OpClass cls, SimTime now) const {
  const ClassHealth& ch = classes_[static_cast<int>(cls)];
  return ch.state == BreakerState::kOpen && now >= ch.probe_at;
}

std::size_t OpHealthTracker::tracked_targets() const {
  std::size_t count = 0;
  for (const auto& per_target : targets_) count += per_target.size();
  return count;
}

const OpHealthTracker::TargetHealth* OpHealthTracker::Find(
    OpClass cls, const std::string& target) const {
  const TargetId id = FindTarget(target);
  return id == kNoTarget ? nullptr : targets_[static_cast<int>(cls)].Find(id);
}

int OpHealthTracker::target_failures(OpClass cls,
                                     const std::string& target) const {
  const TargetHealth* t = Find(cls, target);
  return t == nullptr ? 0 : t->failures;
}

SimTime OpHealthTracker::target_next_retry(OpClass cls,
                                           const std::string& target) const {
  const TargetHealth* t = Find(cls, target);
  return t == nullptr ? 0 : t->next_retry;
}

}  // namespace lachesis::core
