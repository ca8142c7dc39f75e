// Lachesis' main loop (paper §4, Algorithm 1).
//
// K policies, each with its own period, translator, driver set and optional
// entity filter, are evaluated at their periods: the metric provider is
// updated, each due policy computes a schedule, and its translator applies
// it through the schedule-delta layer onto the OS adapter. The runner wakes
// at the GCD of the policy periods and only works when at least one policy
// is due (Algorithm 1 L9).
//
// The runner is backend-agnostic: it talks only to a ControlExecutor
// (clock + deferred calls), an OsAdapter, and SpeDrivers. The identical
// loop therefore drives the discrete-event simulator (SimControlExecutor)
// and a live Linux host (osctl::NativeControlExecutor + LinuxOsAdapter),
// and queries can attach/detach while it runs (paper §6.5): AddQuery /
// RemoveQuery incrementally re-derive the GCD wake interval and the
// provider's required-metric registrations.
#ifndef LACHESIS_CORE_RUNNER_H_
#define LACHESIS_CORE_RUNNER_H_

#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/sim_time.h"
#include "core/driver.h"
#include "core/executor.h"
#include "core/metric_provider.h"
#include "core/policy.h"
#include "core/schedule_delta.h"
#include "core/translators.h"
#include "obs/explain.h"
#include "obs/recorder.h"
#include "obs/self_metrics.h"

namespace lachesis::core {

struct PolicyBinding {
  std::unique_ptr<SchedulingPolicy> policy;
  std::unique_ptr<Translator> translator;
  // Capability degradation ladder: when a mechanism the active translator
  // requires is persistently failing (its circuit breaker is open), the
  // runner demotes the binding to the first fallback whose mechanisms are
  // healthy (e.g. rt+nice -> cpu.shares -> nice), and promotes it back
  // automatically once a half-open probe succeeds. Ordered best-first.
  std::vector<std::unique_ptr<Translator>> fallback_translators;
  SimDuration period = Seconds(1);
  std::vector<SpeDriver*> drivers;  // non-owning
  std::function<bool(const EntityInfo&)> filter;  // optional (G3)
};

// Per-wakeup summary handed to the optional tick observer (daemon logging,
// cadence tests).
struct RunnerTickInfo {
  SimTime now = 0;
  int policies_run = 0;   // bindings that were due and executed
  DeltaStats delta;       // delta-layer counters for this tick
  int open_breakers = 0;  // op classes whose circuit breaker is not closed
  int degraded_bindings = 0;  // bindings running below their primary
                              // translator (capability ladder)
};

class LachesisRunner {
 public:
  LachesisRunner(ControlExecutor& executor, OsAdapter& os,
                 std::uint64_t seed = 7);

  // Attaches a query binding (policy + translator + drivers). Works both
  // before Start and while the loop runs: a runtime attach registers the
  // policy's required metrics and re-derives the wake interval, scheduling
  // an earlier wakeup when the GCD shrank (paper §6.5, queries arriving
  // dynamically). Returns the binding's index, usable with
  // SetBindingEnabled / RemoveQuery.
  std::size_t AddQuery(PolicyBinding binding);

  // Detaches a binding: it stops running, and metrics no remaining
  // attached binding requires are unregistered from the provider, as is
  // the entity snapshot of every driver no attached binding references
  // (such a driver may be destroyed after this returns). The index stays
  // valid (tombstoned) so other indices are unaffected.
  void RemoveQuery(std::size_t index);
  [[nodiscard]] bool query_attached(std::size_t index) const {
    return bindings_.at(index).attached;
  }

  // Enables/disables a policy at runtime (paper §4: switching policies "by
  // enabling one policy and disabling another"). Disabled bindings are
  // skipped by the loop but keep their schedule cadence for re-enablement.
  void SetBindingEnabled(std::size_t index, bool enabled);
  [[nodiscard]] bool binding_enabled(std::size_t index) const {
    return bindings_.at(index).enabled;
  }

  // Registers required metrics (Algorithm 1 L1) and starts the loop.
  void Start(SimTime until);

  // Kills the loop: pending wakeups become no-ops (the stale-wakeup guard
  // supersedes them) and the runner never ticks again. This models agent
  // death in fleet chaos runs -- it is NOT a pause: a stopped runner is not
  // restartable. A machine reboot builds a fresh runner over the same
  // backend and seeds it through ReconcileWithBackend, exactly like a
  // restarted lachesisd (docs/OPERATIONS.md, "Restart semantics").
  void Stop() {
    ++tick_seq_;
    started_ = false;
  }
  [[nodiscard]] bool started() const { return started_; }

  // Called once per wakeup, after due policies ran (also on idle wakeups,
  // with policies_run == 0).
  void SetTickObserver(std::function<void(const RunnerTickInfo&)> observer) {
    observer_ = std::move(observer);
  }

  // Disables the delta layer (every translator operation is forwarded to
  // the OS adapter); for measuring the delta win.
  void SetDeltaEnabled(bool enabled) { delta_.set_enabled(enabled); }

  // Overrides the fault-tolerance parameters (backoff, circuit breaker).
  // The runner enables health tracking by default with HealthConfig
  // defaults, seeded from its own seed; pass enabled=false to opt out.
  void SetHealthConfig(const HealthConfig& config) {
    delta_.SetHealthConfig(config);
  }

  // Restart reconciliation: snapshots actual kernel state for every thread
  // visible through the attached bindings' drivers and seeds the delta
  // cache from it, so a restarted daemon whose first computed schedule
  // matches the residual kernel state applies zero operations. Returns the
  // number of cache entries seeded (0 when the backend cannot observe
  // state). Call after the drivers' first Poll, before Start.
  std::size_t ReconcileWithBackend();

  // Current rung of the binding's capability ladder: 0 = primary
  // translator, i>0 = fallback_translators[i-1].
  [[nodiscard]] std::size_t binding_level(std::size_t index) const {
    return bindings_.at(index).level;
  }

  // Decision-provenance recorder (always on by default; disable or turn on
  // verbose per-elision/per-sample recording through it). Every layer below
  // the runner -- delta adapter, health tracker -- feeds the same ring.
  [[nodiscard]] obs::Recorder& recorder() { return recorder_; }
  [[nodiscard]] const obs::Recorder& recorder() const { return recorder_; }

  // "Why is thread T scheduled the way it is at time `at`?" -- replays the
  // provenance ring for the thread's health key ("t:<sim_tid>/<os_tid>").
  // ExplainTarget takes the raw key, so group targets ("g:<name>") work too.
  [[nodiscard]] obs::Explanation ExplainThread(const ThreadHandle& thread,
                                               SimTime at) const;
  [[nodiscard]] obs::Explanation ExplainTarget(const std::string& health_key,
                                               SimTime at) const;

  // Adapts core's OpClassName to the obs function-pointer shape; pass to
  // obs::ExplainTarget / RenderChromeTrace when calling them directly.
  [[nodiscard]] static const char* OpClassNameForObs(int cls);

  // Snapshot of the full self-metrics catalog (obs/self_metrics.h): one
  // MetricValue per cataloged metric, suitable for RenderPrometheusTextfile
  // or PublishSelfMetrics into a tsdb store.
  [[nodiscard]] obs::SelfMetricsSnapshot CollectSelfMetrics() const;

  [[nodiscard]] std::uint64_t ticks_total() const { return ticks_total_; }

  [[nodiscard]] MetricProvider& provider() { return provider_; }
  [[nodiscard]] std::uint64_t schedules_applied() const {
    return schedules_applied_;
  }
  [[nodiscard]] const DeltaStats& delta_totals() const {
    return delta_.totals();
  }
  [[nodiscard]] ScheduleDeltaAdapter& delta() { return delta_; }

  // Current GCD wake interval over attached bindings (Algorithm 1 L9);
  // re-derived as queries attach/detach.
  [[nodiscard]] SimDuration WakeInterval() const;

 private:
  struct Bound {
    PolicyBinding binding;
    // The policy's view of the binding, built at AddQuery; a tick sets
    // only `now`.
    PolicyContext context;
    bool enabled = true;
    bool attached = true;
    SimTime next_run = 0;
    // Active ladder rung (0 = primary translator).
    std::size_t level = 0;
    // Recorder ids of the policy's name and of each rung's translator
    // name; kNoStr until a tick first records them.
    obs::StrId policy_name = obs::kNoStr;
    std::vector<obs::StrId> rung_names;
  };

  void Tick();
  void ScheduleNext(SimTime at);
  void RegisterMetrics(const PolicyBinding& binding);
  void UnregisterMetrics(const PolicyBinding& binding);
  // Selects the ladder rung for this tick (stores it in bound.level) and
  // returns the translator to apply with. `index` labels the binding in
  // recorded degradation events.
  Translator* PickTranslator(std::size_t index, Bound& bound, SimTime now);

  ControlExecutor* executor_;
  ScheduleDeltaAdapter delta_;
  MetricProvider provider_;
  Rng rng_;
  std::vector<Bound> bindings_;
  // Drivers of the bindings due this tick, in pointer order, each once;
  // reused across ticks.
  std::vector<SpeDriver*> due_drivers_;
  std::map<MetricId, int> metric_refs_;
  bool started_ = false;
  SimTime until_ = 0;
  SimTime next_wake_ = 0;
  // Stale-wakeup guard: rescheduling (e.g. after a runtime AddQuery shrank
  // the GCD) bumps the sequence so superseded callbacks become no-ops.
  std::uint64_t tick_seq_ = 0;
  std::uint64_t schedules_applied_ = 0;
  std::uint64_t ticks_total_ = 0;
  std::uint64_t idle_ticks_total_ = 0;
  std::uint64_t policies_run_total_ = 0;
  std::size_t last_reconcile_seeded_ = 0;
  obs::Recorder recorder_;
  std::function<void(const RunnerTickInfo&)> observer_;
};

}  // namespace lachesis::core

#endif  // LACHESIS_CORE_RUNNER_H_
