#include "core/fault.h"

#include <algorithm>
#include <cerrno>
#include <cmath>

#include "common/rng.h"
#include "core/schedule_delta.h"
#include "obs/recorder.h"

namespace lachesis::core {

const char* FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kEperm: return "eperm";
    case FaultKind::kVanish: return "vanish";
    case FaultKind::kEbusy: return "ebusy";
    case FaultKind::kSlowCall: return "slow-call";
  }
  return "?";
}

namespace {

std::uint64_t HashString(std::uint64_t h, const std::string& s) {
  for (const char c : s) {
    h = h * 1099511628211ULL + static_cast<unsigned char>(c);
  }
  return h;
}

// The fault-rule target of a thread op: "<os_tid>/<sim_tid>".
std::string ThreadTarget(const ThreadHandle& thread) {
  return std::to_string(thread.os_tid) + "/" +
         std::to_string(thread.sim_tid.value());
}

}  // namespace

bool FaultChance(std::uint64_t seed, std::uint64_t salt, double probability) {
  if (probability >= 1.0) return true;
  if (probability <= 0.0) return false;
  std::uint64_t mix = seed ^ (salt * 0x9E3779B97F4A7C15ULL);
  const double draw =
      static_cast<double>(SplitMix64(mix) >> 11) * 0x1.0p-53;
  return draw < probability;
}

bool FaultPlan::QuietAfter(SimTime time) const {
  for (const OsFaultRule& rule : os_rules) {
    if (rule.until > time) return false;
  }
  for (const DriverFaultRule& rule : driver_rules) {
    if (rule.until > time) return false;
  }
  return true;
}

void FaultInjectingOsAdapter::MaybeInject(OpClass cls,
                                          const std::string& target) {
  const SimTime now = clock_->Now();
  for (std::size_t i = 0; i < plan_.os_rules.size(); ++i) {
    const OsFaultRule& rule = plan_.os_rules[i];
    if (rule.op && *rule.op != cls) continue;
    if (now < rule.from || now >= rule.until) continue;
    if (!rule.target_substr.empty() &&
        target.find(rule.target_substr) == std::string::npos) {
      continue;
    }
    const std::uint64_t salt = HashString(
        (i + 1) * 0xD1B54A32D192ED03ULL + static_cast<std::uint64_t>(now),
        target);
    if (!FaultChance(plan_.seed, salt, rule.probability)) continue;
    ++injected_[static_cast<int>(rule.kind)];
    if (recorder_ != nullptr) {
      recorder_->FaultInjected(now, static_cast<int>(cls), target,
                               FaultKindName(rule.kind));
    }
    switch (rule.kind) {
      case FaultKind::kEperm:
        throw OsOperationError(
            std::string("injected EPERM: ") + OpClassName(cls) + "(" +
                target + ")",
            ErrorSeverity::kPermanent, EPERM);
      case FaultKind::kVanish:
        throw OsOperationError(
            std::string("injected vanish: ") + OpClassName(cls) + "(" +
                target + ")",
            ErrorSeverity::kVanished, ESRCH);
      case FaultKind::kEbusy:
        throw OsOperationError(
            std::string("injected EBUSY: ") + OpClassName(cls) + "(" +
                target + ")",
            ErrorSeverity::kTransient, EBUSY);
      case FaultKind::kSlowCall:
        injected_latency_ += rule.slow_latency;
        break;  // charged, not thrown: the call still goes through
    }
  }
}

std::uint64_t FaultInjectingOsAdapter::total_injected() const {
  std::uint64_t total = 0;
  for (const std::uint64_t count : injected_) total += count;
  return total;
}

void FaultInjectingOsAdapter::SetNice(const ThreadHandle& thread, int nice) {
  MaybeInject(OpClass::kSetNice, ThreadTarget(thread));
  next_->SetNice(thread, nice);
}

void FaultInjectingOsAdapter::SetGroupShares(const std::string& group,
                                             std::uint64_t shares) {
  MaybeInject(OpClass::kSetGroupShares, group);
  next_->SetGroupShares(group, shares);
}

void FaultInjectingOsAdapter::MoveToGroup(const ThreadHandle& thread,
                                          const std::string& group) {
  MaybeInject(OpClass::kMoveToGroup, group);
  next_->MoveToGroup(thread, group);
}

void FaultInjectingOsAdapter::SetRtPriority(const ThreadHandle& thread,
                                            int rt_priority) {
  MaybeInject(OpClass::kSetRtPriority, ThreadTarget(thread));
  next_->SetRtPriority(thread, rt_priority);
}

void FaultInjectingOsAdapter::SetGroupQuota(const std::string& group,
                                            SimDuration quota,
                                            SimDuration period) {
  MaybeInject(OpClass::kSetGroupQuota, group);
  next_->SetGroupQuota(group, quota, period);
}

void FaultInjectingOsAdapter::SetDeadline(const ThreadHandle& thread,
                                          SimDuration runtime,
                                          SimDuration deadline,
                                          SimDuration period) {
  MaybeInject(OpClass::kSetDeadline, ThreadTarget(thread));
  next_->SetDeadline(thread, runtime, deadline, period);
}

void FaultInjectingOsAdapter::SetCpuAffinity(const ThreadHandle& thread,
                                             CpuPreference pref) {
  MaybeInject(OpClass::kSetAffinity, ThreadTarget(thread));
  next_->SetCpuAffinity(thread, pref);
}

std::vector<EntityInfo> FaultInjectingDriver::Entities() {
  std::vector<EntityInfo> entities = next_->Entities();
  for (std::size_t i = 0; i < plan_.driver_rules.size(); ++i) {
    const DriverFaultRule& rule = plan_.driver_rules[i];
    if (rule.kind != DriverFaultRule::Kind::kVanishEntity) continue;
    if (now_ < rule.from || now_ >= rule.until) continue;
    std::vector<EntityInfo> kept;
    kept.reserve(entities.size());
    for (EntityInfo& entity : entities) {
      const std::uint64_t salt =
          (i + 1) * 0xD1B54A32D192ED03ULL + entity.id.value() * 31 +
          static_cast<std::uint64_t>(now_);
      if (FaultChance(plan_.seed, salt, rule.probability)) {
        ++entities_vanished_;
        continue;
      }
      kept.push_back(std::move(entity));
    }
    entities = std::move(kept);
  }
  return entities;
}

std::uint64_t FaultInjectingDriver::EntitiesGeneration() const {
  const bool vanishes = std::any_of(
      plan_.driver_rules.begin(), plan_.driver_rules.end(),
      [](const DriverFaultRule& rule) {
        return rule.kind == DriverFaultRule::Kind::kVanishEntity;
      });
  return vanishes ? 0 : next_->EntitiesGeneration();
}

double FaultInjectingDriver::Fetch(MetricId metric, const EntityInfo& entity) {
  for (std::size_t i = 0; i < plan_.driver_rules.size(); ++i) {
    const DriverFaultRule& rule = plan_.driver_rules[i];
    if (now_ < rule.from || now_ >= rule.until) continue;
    if (rule.metric && *rule.metric != metric) continue;
    const std::uint64_t salt =
        (i + 1) * 0xBF58476D1CE4E5B9ULL +
        static_cast<std::uint64_t>(metric) * 131 + entity.id.value() * 31 +
        static_cast<std::uint64_t>(now_);
    switch (rule.kind) {
      case DriverFaultRule::Kind::kNanMetric:
        if (FaultChance(plan_.seed, salt, rule.probability)) {
          ++nan_injected_;
          return std::numeric_limits<double>::quiet_NaN();
        }
        break;
      case DriverFaultRule::Kind::kStaleMetric:
        if (FaultChance(plan_.seed, salt, rule.probability)) {
          ++stale_served_;
          const auto it = last_real_.find({metric, entity.id});
          return it != last_real_.end() ? it->second : 0.0;
        }
        break;
      case DriverFaultRule::Kind::kVanishEntity:
        break;  // handled in Entities()
    }
  }
  const double value = next_->Fetch(metric, entity);
  last_real_[{metric, entity.id}] = value;
  return value;
}

// --------------------------------------------------------------------------
// Fleet fault director.

namespace {

constexpr std::uint64_t kEpochMax = std::numeric_limits<std::uint64_t>::max();

std::uint64_t SaturatingAdd(std::uint64_t a, std::uint64_t b) {
  return a > kEpochMax - b ? kEpochMax : a + b;
}

// Pure per-epoch decision hash: rule index, entity key (machine or link),
// epoch. Independent of evaluation order and worker count.
std::uint64_t FleetSalt(std::size_t rule, std::uint64_t key,
                        std::uint64_t epoch) {
  return (rule + 1) * 0xA24BAED4963EE407ULL +
         (key + 1) * 0x9FB21C651E98DF25ULL + epoch * 0xD1B54A32D192ED03ULL;
}

}  // namespace

std::uint64_t FleetFaultPlan::QuietAfterEpoch() const {
  std::uint64_t quiet = 0;
  for (const FleetFaultRule& rule : rules) {
    if (rule.until_epoch == kEpochMax) return kEpochMax;
    std::uint64_t end = rule.until_epoch;
    if (rule.kind == FleetFaultKind::kMachineCrash) {
      if (rule.down_epochs == 0) return kEpochMax;  // dark forever
      // Last possible crash is at until_epoch - 1; the machine is revived
      // down_epochs later and its restart hook fires one epoch after that.
      end = SaturatingAdd(end, SaturatingAdd(rule.down_epochs, 2));
    }
    quiet = std::max(quiet, end);
  }
  return quiet;
}

FleetFaultDirector::FleetFaultDirector(sim::FleetSimulator& fleet,
                                       FleetFaultPlan plan, Hooks hooks)
    : fleet_(&fleet), plan_(std::move(plan)), hooks_(std::move(hooks)) {}

void FleetFaultDirector::Arm(SimTime until) {
  until_ = until;
  const SimTime start = fleet_->now();
  fleet_->CallAtBarrier(start, [this, start] { OnBarrier(start); });
}

bool FleetFaultDirector::AllClear() const {
  if (!down_until_.empty() || pending_restart_hooks_ != 0) return false;
  const std::size_t shards = fleet_->shard_count();
  for (std::size_t s = 0; s < shards; ++s) {
    if (fleet_->ShardDark(s) || fleet_->ShardSlow(s) != 0) return false;
    for (std::size_t d = 0; d < shards; ++d) {
      if (s != d && fleet_->LinkDown(s, d)) return false;
    }
  }
  return true;
}

void FleetFaultDirector::OnBarrier(SimTime now) {
  const std::size_t shards = fleet_->shard_count();
  const auto epoch_len = static_cast<std::uint64_t>(fleet_->epoch());
  const std::uint64_t epoch = static_cast<std::uint64_t>(now) / epoch_len;

  // 1. Restarts due this epoch: revive the shard now (it catches up in the
  //    next step), deliver the control-plane hook one epoch later so the
  //    reboot schedules work in the shard's present, not its replayed past.
  for (auto it = down_until_.begin(); it != down_until_.end();) {
    if (it->second <= epoch) {
      const std::size_t machine = it->first;
      fleet_->SetShardDark(machine, false);
      rebooting_.insert(machine);
      ++pending_restart_hooks_;
      const SimTime hook_at = now + fleet_->epoch();
      fleet_->CallAtBarrier(hook_at, [this, machine, hook_at] {
        ++restarts_;
        --pending_restart_hooks_;
        rebooting_.erase(machine);
        if (hooks_.on_restart) hooks_.on_restart(machine, hook_at);
      });
      it = down_until_.erase(it);
    } else {
      ++it;
    }
  }

  // 2. Crash decisions, per (rule, machine), pure hash of (seed, rule,
  //    machine, epoch). A machine already dark cannot crash again.
  for (std::size_t r = 0; r < plan_.rules.size(); ++r) {
    const FleetFaultRule& rule = plan_.rules[r];
    if (rule.kind != FleetFaultKind::kMachineCrash) continue;
    if (epoch < rule.from_epoch || epoch >= rule.until_epoch) continue;
    for (std::size_t m = 0; m < shards; ++m) {
      if (rule.machine >= 0 && static_cast<std::size_t>(rule.machine) != m) {
        continue;
      }
      if (fleet_->ShardDark(m) || rebooting_.count(m) != 0) continue;
      if (!FaultChance(plan_.seed, FleetSalt(r, m, epoch), rule.probability)) {
        continue;
      }
      fleet_->SetShardDark(m, true);
      down_until_[m] = rule.down_epochs == 0
                           ? kEpochMax
                           : SaturatingAdd(epoch, rule.down_epochs);
      ++crashes_;
      if (hooks_.on_crash) hooks_.on_crash(m, now);
    }
  }

  // 3. Partitions: desired state per directed link is recomputed from
  //    scratch each epoch (OR over matching rules), so links heal the
  //    moment no rule holds them down.
  for (std::size_t from = 0; from < shards; ++from) {
    for (std::size_t to = 0; to < shards; ++to) {
      if (from == to) continue;
      bool down = false;
      for (std::size_t r = 0; r < plan_.rules.size() && !down; ++r) {
        const FleetFaultRule& rule = plan_.rules[r];
        if (rule.kind != FleetFaultKind::kPartition) continue;
        if (epoch < rule.from_epoch || epoch >= rule.until_epoch) continue;
        if (rule.machine >= 0 &&
            static_cast<std::size_t>(rule.machine) != from) {
          continue;
        }
        if (rule.dest >= 0 && static_cast<std::size_t>(rule.dest) != to) {
          continue;
        }
        down = FaultChance(plan_.seed, FleetSalt(r, from * shards + to, epoch),
                           rule.probability);
      }
      if (fleet_->LinkDown(from, to) != down) {
        fleet_->SetLinkDown(from, to, down);
      }
      if (down) ++partition_epochs_;
    }
  }

  // 4. Slow shards: desired penalty is the max over matching rules.
  for (std::size_t m = 0; m < shards; ++m) {
    std::uint32_t penalty = 0;
    for (std::size_t r = 0; r < plan_.rules.size(); ++r) {
      const FleetFaultRule& rule = plan_.rules[r];
      if (rule.kind != FleetFaultKind::kSlowShard) continue;
      if (epoch < rule.from_epoch || epoch >= rule.until_epoch) continue;
      if (rule.machine >= 0 && static_cast<std::size_t>(rule.machine) != m) {
        continue;
      }
      if (FaultChance(plan_.seed, FleetSalt(r, m, epoch), rule.probability)) {
        penalty = std::max(penalty, rule.slow_micros);
      }
    }
    if (fleet_->ShardSlow(m) != penalty) fleet_->SetShardSlow(m, penalty);
    if (penalty > 0) ++slow_epochs_;
  }

  const SimTime next = now + fleet_->epoch();
  if (next <= until_) {
    fleet_->CallAtBarrier(next, [this, next] { OnBarrier(next); });
  }
}

}  // namespace lachesis::core
