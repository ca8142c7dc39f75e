// Deterministic fault injection for the control plane.
//
// Lachesis steers CFS through a fallible interface: setpriority and
// cgroupfs writes fail with EPERM when capabilities are missing, threads
// and cgroups vanish mid-tick as queries terminate, metric exporters stall
// or emit garbage. Reproducing those failure modes on demand -- and
// DETERMINISTICALLY, so a chaos run replays byte-identically -- is what
// this module does:
//
//  - FaultInjectingOsAdapter decorates any OsAdapter and injects
//    EPERM/ESRCH/EBUSY errors and slow calls according to a scriptable
//    FaultPlan (per-operation-class rules with time windows, target
//    filters and per-call probabilities);
//  - FaultInjectingDriver decorates any SpeDriver and injects vanishing
//    entities, NaN metrics and stale (frozen) metrics.
//
// Every probabilistic decision is a pure hash of (seed, rule, target,
// time): no RNG state, so outcomes are independent of call order and
// identical across replays. Time comes from the backend's Clock (the
// SimControlExecutor in simulation, the native executor on a live host),
// which is what makes sim chaos runs exactly reproducible.
#ifndef LACHESIS_CORE_FAULT_H_
#define LACHESIS_CORE_FAULT_H_

#include <array>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <set>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/driver.h"
#include "core/executor.h"
#include "core/op_health.h"
#include "core/os_adapter.h"
#include "sim/fleet.h"

namespace lachesis::core {

enum class FaultKind {
  kEperm = 0,  // permission denied (permanent severity)
  kVanish,     // target disappeared (ESRCH/ENOENT, vanished severity)
  kEbusy,      // transient resource contention
  kSlowCall,   // call succeeds but is charged a latency penalty
};
inline constexpr int kFaultKindCount = 4;

[[nodiscard]] const char* FaultKindName(FaultKind kind);

// One OS-operation fault rule. A call matches when its class matches `op`
// (or `op` is unset), the clock is inside [from, until), and the target
// contains `target_substr` (when non-empty); a matching call then faults
// with `probability` (decided by a deterministic hash).
struct OsFaultRule {
  std::optional<OpClass> op;
  FaultKind kind = FaultKind::kEperm;
  SimTime from = 0;
  SimTime until = std::numeric_limits<SimTime>::max();
  double probability = 1.0;
  std::string target_substr;
  SimDuration slow_latency = Millis(1);  // kSlowCall only
};

// Driver-side fault rules: entities vanishing from discovery, NaN metric
// values, and stale metrics (the exporter froze: Fetch keeps returning the
// last pre-fault value).
struct DriverFaultRule {
  enum class Kind { kVanishEntity, kNanMetric, kStaleMetric };
  Kind kind = Kind::kVanishEntity;
  SimTime from = 0;
  SimTime until = std::numeric_limits<SimTime>::max();
  double probability = 1.0;
  std::optional<MetricId> metric;  // metric rules only; unset = any metric
};

struct FaultPlan {
  std::uint64_t seed = 1;
  std::vector<OsFaultRule> os_rules;
  std::vector<DriverFaultRule> driver_rules;

  // True when no rule's window extends to or past `time` (used by chaos
  // tests to find the reconvergence point).
  [[nodiscard]] bool QuietAfter(SimTime time) const;
};

// Deterministic Bernoulli: hash(seed, salt) < probability. Exposed so
// tests can predict injection decisions.
[[nodiscard]] bool FaultChance(std::uint64_t seed, std::uint64_t salt,
                               double probability);

class FaultInjectingOsAdapter final : public OsAdapter {
 public:
  FaultInjectingOsAdapter(OsAdapter& next, const Clock& clock, FaultPlan plan)
      : next_(&next), clock_(&clock), plan_(std::move(plan)) {}

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

  // Provenance sink: every injected fault is recorded as a kFaultInjected
  // event, so a chaos trace shows the cause next to the breaker/backoff
  // effects. Null disables (default).
  void SetRecorder(obs::Recorder* recorder) { recorder_ = recorder; }

  [[nodiscard]] std::uint64_t injected(FaultKind kind) const {
    return injected_[static_cast<int>(kind)];
  }
  [[nodiscard]] std::uint64_t total_injected() const;
  // Latency charged by kSlowCall rules (not slept: the simulator's clock
  // is discrete and the chaos soak must stay fast; native harnesses can
  // read it and sleep if they want wall-clock slowness).
  [[nodiscard]] SimDuration injected_latency() const {
    return injected_latency_;
  }

 private:
  // Throws when a rule injects an error fault for (cls, target) at Now().
  void MaybeInject(OpClass cls, const std::string& target);

  OsAdapter* next_;
  const Clock* clock_;
  FaultPlan plan_;
  obs::Recorder* recorder_ = nullptr;
  std::array<std::uint64_t, kFaultKindCount> injected_{};
  SimDuration injected_latency_ = 0;
};

class FaultInjectingDriver final : public SpeDriver {
 public:
  FaultInjectingDriver(SpeDriver& next, FaultPlan plan)
      : next_(&next), plan_(std::move(plan)) {}

  [[nodiscard]] const std::string& name() const override {
    return next_->name();
  }
  void Poll(SimTime now) override {
    now_ = now;
    next_->Poll(now);
  }
  std::vector<EntityInfo> Entities() override;
  // 0 (re-snapshot every period) while the plan can vanish entities;
  // otherwise the wrapped driver's.
  [[nodiscard]] std::uint64_t EntitiesGeneration() const override;
  const LogicalTopology& Topology(QueryId query) override {
    return next_->Topology(query);
  }
  [[nodiscard]] bool Provides(MetricId metric) const override {
    return next_->Provides(metric);
  }
  double Fetch(MetricId metric, const EntityInfo& entity) override;

  [[nodiscard]] std::uint64_t entities_vanished() const {
    return entities_vanished_;
  }
  [[nodiscard]] std::uint64_t nan_injected() const { return nan_injected_; }
  [[nodiscard]] std::uint64_t stale_served() const { return stale_served_; }

 private:
  SpeDriver* next_;
  FaultPlan plan_;
  SimTime now_ = 0;
  std::uint64_t entities_vanished_ = 0;
  std::uint64_t nan_injected_ = 0;
  std::uint64_t stale_served_ = 0;
  // Last genuine value per (metric, entity), served while a stale rule is
  // active.
  std::map<std::pair<MetricId, OperatorId>, double> last_real_;
};

// ---------------------------------------------------------------------------
// Fleet-scoped faults: whole machines and links misbehaving, decided -- like
// every fault above -- by pure hashes of (seed, rule, machine, epoch), so a
// fleet chaos run replays byte-identically at any worker count.

enum class FleetFaultKind {
  kMachineCrash = 0,  // shard goes dark; optional restart after down_epochs
  kSlowShard,         // epoch step inflated (wall clock only)
  kPartition,         // directed (machine, dest) mailbox link drops
};
inline constexpr int kFleetFaultKindCount = 3;

// One fleet fault rule, evaluated once per epoch per candidate machine (or
// per directed link for kPartition). `machine`/`dest` of -1 mean "any";
// epochs count barriers since time zero (epoch e covers simulated time
// [e*epoch, (e+1)*epoch)).
struct FleetFaultRule {
  FleetFaultKind kind = FleetFaultKind::kMachineCrash;
  std::uint64_t from_epoch = 0;
  std::uint64_t until_epoch = std::numeric_limits<std::uint64_t>::max();
  double probability = 1.0;
  int machine = -1;  // crash/slow: the machine; partition: the sender
  int dest = -1;     // partition only: the receiving machine
  // kMachineCrash: epochs the machine stays dark before the director
  // revives it (0 = down forever -- no restart).
  std::uint64_t down_epochs = 2;
  // kSlowShard: wall-clock penalty per epoch step while the rule matches.
  std::uint32_t slow_micros = 200;
};

struct FleetFaultPlan {
  std::uint64_t seed = 1;
  std::vector<FleetFaultRule> rules;

  [[nodiscard]] bool empty() const { return rules.empty(); }

  // First epoch from which no rule can fire and every crash window's
  // restarts have landed (windows + down time + the director's one-epoch
  // restart deferral). max() when any window is unbounded. Chaos tests use
  // this as the reconvergence anchor, mirroring FaultPlan::QuietAfter.
  [[nodiscard]] std::uint64_t QuietAfterEpoch() const;
};

// Drives a FleetFaultPlan against a FleetSimulator from the barrier lane.
// Each epoch it decides crashes, restarts, partitions and slowdowns by pure
// hash, applies them through the barrier-lane-only toggles, and invokes the
// caller's hooks so the control plane can model agent death (stop the
// runner) and reboot (fresh runner + ReconcileWithBackend). Restart hooks
// run one epoch AFTER the shard is revived: the revived shard first
// catches up its backlog, so the hook schedules control work in the
// present, not the past.
class FleetFaultDirector {
 public:
  struct Hooks {
    // Called at the crash barrier, after the shard went dark.
    std::function<void(std::size_t shard, SimTime now)> on_crash;
    // Called one epoch after the shard was revived (it has caught up).
    std::function<void(std::size_t shard, SimTime now)> on_restart;
  };

  FleetFaultDirector(sim::FleetSimulator& fleet, FleetFaultPlan plan,
                     Hooks hooks = {});

  // Registers the per-epoch decision callback from now() through `until`.
  // Call once, from the barrier lane, before RunUntil.
  void Arm(SimTime until);

  [[nodiscard]] std::uint64_t crashes() const { return crashes_; }
  [[nodiscard]] std::uint64_t restarts() const { return restarts_; }
  [[nodiscard]] std::uint64_t partition_epochs() const {
    return partition_epochs_;
  }
  [[nodiscard]] std::uint64_t slow_epochs() const { return slow_epochs_; }
  // True when every crashed machine has been revived (pending restarts all
  // delivered) and no links are down or shards slowed.
  [[nodiscard]] bool AllClear() const;

 private:
  void OnBarrier(SimTime now);

  sim::FleetSimulator* fleet_;
  FleetFaultPlan plan_;
  Hooks hooks_;
  SimTime until_ = 0;
  // Epoch at which each dark machine is due back (max() = never).
  std::map<std::size_t, std::uint64_t> down_until_;
  // Machines revived but whose restart hook has not yet fired: exempt from
  // crash decisions, or the deferred hook would boot an agent onto a shard
  // that went dark again in the meantime.
  std::set<std::size_t> rebooting_;
  std::uint64_t pending_restart_hooks_ = 0;
  std::uint64_t crashes_ = 0;
  std::uint64_t restarts_ = 0;
  std::uint64_t partition_epochs_ = 0;
  std::uint64_t slow_epochs_ = 0;
};

}  // namespace lachesis::core

#endif  // LACHESIS_CORE_FAULT_H_
