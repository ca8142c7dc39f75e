#include "core/runner.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <tuple>

namespace lachesis::core {

LachesisRunner::LachesisRunner(ControlExecutor& executor, OsAdapter& os,
                               std::uint64_t seed)
    : executor_(&executor), delta_(os), rng_(seed) {
  // The runner is the daemon path, so fault tolerance (backoff + circuit
  // breaking, op_health.h) is on by default; a raw ScheduleDeltaAdapter
  // keeps it off to preserve plain retry-next-tick semantics. Jitter is
  // derived from the runner seed so chaos runs replay exactly.
  HealthConfig health;
  health.enabled = true;
  health.seed = seed;
  delta_.SetHealthConfig(health);
  // Provenance is on by default for the same reason: the runner IS the
  // daemon path, and the recorder's steady-state cost is two ring pushes
  // per tick. Layers below share the runner's ring.
  delta_.SetRecorder(&recorder_);
}

const char* LachesisRunner::OpClassNameForObs(int cls) {
  if (cls < 0 || cls >= kOpClassCount) return "?";
  return OpClassName(static_cast<OpClass>(cls));
}

obs::Explanation LachesisRunner::ExplainTarget(const std::string& health_key,
                                               SimTime at) const {
  return obs::ExplainTarget(recorder_, health_key, at, OpClassNameForObs);
}

obs::Explanation LachesisRunner::ExplainThread(const ThreadHandle& thread,
                                               SimTime at) const {
  return ExplainTarget(ScheduleDeltaAdapter::HealthKeyOf(thread), at);
}

void LachesisRunner::RegisterMetrics(const PolicyBinding& binding) {
  for (const MetricId m : binding.policy->RequiredMetrics()) {
    if (++metric_refs_[m] == 1) provider_.Register(m);
  }
}

void LachesisRunner::UnregisterMetrics(const PolicyBinding& binding) {
  for (const MetricId m : binding.policy->RequiredMetrics()) {
    const auto it = metric_refs_.find(m);
    assert(it != metric_refs_.end() && it->second > 0);
    if (--it->second == 0) {
      metric_refs_.erase(it);
      provider_.Unregister(m);
    }
  }
}

std::size_t LachesisRunner::AddQuery(PolicyBinding binding) {
  assert(binding.policy && binding.translator);
  assert(binding.period > 0);
  assert(!binding.drivers.empty());
  Bound bound;
  bound.binding = std::move(binding);
  bound.context.provider = &provider_;
  bound.context.drivers = bound.binding.drivers;
  bound.context.filter = bound.binding.filter;
  bound.context.rng = &rng_;
  bindings_.push_back(std::move(bound));
  const std::size_t index = bindings_.size() - 1;
  if (started_) {
    // Runtime attach (Algorithm 1 L1, incrementally): register the new
    // policy's metrics and re-derive the wakeup cadence. First run aligns
    // with the (possibly shrunk) wake interval, like Start does.
    RegisterMetrics(bindings_[index].binding);
    const SimTime now = executor_->Now();
    const SimDuration interval = WakeInterval();
    bindings_[index].next_run = now + interval;
    if (now + interval < next_wake_) ScheduleNext(now + interval);
  }
  recorder_.QueryAttached(executor_->Now(), static_cast<int>(index));
  return index;
}

void LachesisRunner::RemoveQuery(std::size_t index) {
  Bound& bound = bindings_.at(index);
  if (!bound.attached) return;
  bound.attached = false;
  if (started_) UnregisterMetrics(bound.binding);
  // Drop cached values AND pending health/backoff state for threads only
  // this binding could reach. A failed op against a detached query's
  // thread must not keep being retried (or hold tracker entries) forever;
  // threads still visible through another attached binding keep theirs.
  // The scratch sets are hash sets over the padding-free ThreadKey, so the
  // purge costs one O(1) probe per entity instead of an O(log n) tree walk.
  FlatSet<ThreadKey> still_visible;
  for (const Bound& other : bindings_) {
    if (!other.attached) continue;
    for (SpeDriver* driver : other.binding.drivers) {
      for (const EntityInfo& entity : driver->Entities()) {
        if (other.binding.filter && !other.binding.filter(entity)) continue;
        still_visible.Insert(ThreadKeyOf(entity.thread));
      }
    }
  }
  FlatSet<ThreadKey> forgotten;
  for (SpeDriver* driver : bound.binding.drivers) {
    for (const EntityInfo& entity : driver->Entities()) {
      if (bound.binding.filter && !bound.binding.filter(entity)) continue;
      const ThreadKey key = ThreadKeyOf(entity.thread);
      if (still_visible.Contains(key) || !forgotten.Insert(key)) continue;
      delta_.ForgetThread(entity.thread);
    }
  }
  // The provider keeps a snapshot per driver address: drop those no
  // attached binding reaches, before their drivers can be destroyed.
  for (SpeDriver* driver : bound.binding.drivers) {
    const bool referenced = std::any_of(
        bindings_.begin(), bindings_.end(), [driver](const Bound& other) {
          return other.attached &&
                 std::find(other.binding.drivers.begin(),
                           other.binding.drivers.end(),
                           driver) != other.binding.drivers.end();
        });
    if (!referenced) provider_.Forget(*driver);
  }
  // The wake interval may have grown; the loop naturally adopts it at the
  // next wakeup, so no reschedule is needed (a too-early wakeup is just an
  // idle tick).
  recorder_.QueryDetached(executor_->Now(), static_cast<int>(index));
}

void LachesisRunner::SetBindingEnabled(std::size_t index, bool enabled) {
  bindings_.at(index).enabled = enabled;
}

std::size_t LachesisRunner::ReconcileWithBackend() {
  FlatSet<ThreadKey> seen;
  std::vector<ThreadHandle> threads;
  for (const Bound& bound : bindings_) {
    if (!bound.attached) continue;
    for (SpeDriver* driver : bound.binding.drivers) {
      for (const EntityInfo& entity : driver->Entities()) {
        if (bound.binding.filter && !bound.binding.filter(entity)) continue;
        const ThreadHandle& t = entity.thread;
        if (seen.Insert(ThreadKeyOf(t))) threads.push_back(t);
      }
    }
  }
  const std::size_t seeded = delta_.ReconcileFromBackend(threads);
  last_reconcile_seeded_ = seeded;
  recorder_.Reconcile(executor_->Now(), static_cast<std::int64_t>(seeded),
                      static_cast<std::int64_t>(delta_.adopted_groups()));
  return seeded;
}

Translator* LachesisRunner::PickTranslator(std::size_t index, Bound& bound,
                                           SimTime now) {
  PolicyBinding& b = bound.binding;
  const std::size_t rungs = 1 + b.fallback_translators.size();
  const auto rung = [&](std::size_t i) -> Translator* {
    return i == 0 ? b.translator.get() : b.fallback_translators[i - 1].get();
  };
  const OpHealthTracker& health = delta_.health();
  std::size_t pick = rungs - 1;  // nothing healthy: apply the last resort
  for (std::size_t i = 0; i < rungs; ++i) {
    const std::uint32_t mask = rung(i)->required_op_classes();
    bool healthy = true;
    bool probe_due = false;
    for (int c = 0; c < kOpClassCount; ++c) {
      const OpClass cls = static_cast<OpClass>(c);
      if (!(mask & OpClassBit(cls))) continue;
      if (health.class_state(cls) == BreakerState::kClosed) continue;
      healthy = false;
      if (health.ProbeDue(cls, now)) probe_due = true;
    }
    // A rung is usable when every mechanism it needs is healthy -- or when
    // an open mechanism is due for its half-open probe: applying the
    // better translator IS the probe, and a success closes the breaker and
    // promotes the binding back automatically.
    if (healthy || probe_due) {
      pick = i;
      break;
    }
  }
  if (pick != bound.level) {
    recorder_.DegradationMove(now, static_cast<int>(index),
                              static_cast<int>(bound.level),
                              static_cast<int>(pick), rung(pick)->name());
  }
  bound.level = pick;
  return rung(pick);
}

SimDuration LachesisRunner::WakeInterval() const {
  SimDuration gcd = 0;
  for (const Bound& bound : bindings_) {
    if (!bound.attached) continue;
    gcd = std::gcd(gcd, bound.binding.period);
  }
  return gcd > 0 ? gcd : Seconds(1);
}

void LachesisRunner::Start(SimTime until) {
  until_ = until;
  started_ = true;
  // Algorithm 1 L1: register the union of required metrics.
  for (const Bound& bound : bindings_) {
    if (bound.attached) RegisterMetrics(bound.binding);
  }
  const SimTime first = executor_->Now() + WakeInterval();
  for (Bound& bound : bindings_) bound.next_run = first;
  ScheduleNext(first);
}

void LachesisRunner::ScheduleNext(SimTime at) {
  const std::uint64_t seq = ++tick_seq_;
  next_wake_ = at;
  executor_->CallAt(at, [this, seq] {
    if (seq == tick_seq_) Tick();
  });
}

void LachesisRunner::Tick() {
  const SimTime now = executor_->Now();
  // Cadence is anchored on the scheduled wake time: on the native backend
  // `now` is the (slightly late) dispatch time, and anchoring next_run on
  // it would let periods drift past their wakeups. In the simulator both
  // are equal.
  const SimTime anchor = next_wake_;  // == now in the simulator
  const auto due = [now](const Bound& bound) {
    return bound.attached && bound.enabled && bound.next_run <= now;
  };
  bool any_due = false;
  for (Bound& bound : bindings_) {
    if (!bound.attached) continue;
    if (!bound.enabled) {
      // Keep cadence while disabled so re-enabling resumes on period
      // boundaries instead of firing a burst of missed runs.
      if (bound.next_run <= now) bound.next_run = anchor + bound.binding.period;
      continue;
    }
    if (bound.next_run <= now) any_due = true;
  }
  delta_.BeginTick(now);
  recorder_.TickBegin(now, ticks_total_);
  ++ticks_total_;
  int policies_run = 0;
  if (any_due) {
    // Algorithm 1 L4: update metrics for all drivers of due policies. On
    // the native backend the drivers poll their engine first (re-scan
    // /proc, tail the metric file); the sim drivers read the scraped store
    // and poll nothing.
    due_drivers_.clear();
    SimDuration window = 0;
    for (const Bound& bound : bindings_) {
      if (!due(bound)) continue;
      due_drivers_.insert(due_drivers_.end(), bound.binding.drivers.begin(),
                          bound.binding.drivers.end());
      window = window == 0 ? bound.binding.period
                           : std::min(window, bound.binding.period);
    }
    std::sort(due_drivers_.begin(), due_drivers_.end(),
              std::less<SpeDriver*>());
    due_drivers_.erase(std::unique(due_drivers_.begin(), due_drivers_.end()),
                       due_drivers_.end());
    for (SpeDriver* driver : due_drivers_) driver->Poll(now);
    provider_.Update(due_drivers_, window);
    if (recorder_.verbose()) {
      // Per-entity metric samples are provenance gold but O(entities) per
      // tick, so they ride behind the same verbose gate as elisions.
      for (SpeDriver* driver : due_drivers_) {
        for (const EntityInfo& entity : provider_.EntitiesOf(*driver)) {
          for (const MetricId metric : provider_.registered()) {
            recorder_.MetricSample(now, entity.path, MetricName(metric),
                                   provider_.Value(*driver, metric, entity.id));
          }
        }
      }
    }

    // L5-8: run each due policy and apply through its translator (which
    // issues only changed operations thanks to the delta layer).
    for (std::size_t index = 0; index < bindings_.size(); ++index) {
      Bound& bound = bindings_[index];
      if (!due(bound)) continue;
      PolicyBinding& b = bound.binding;
      bound.context.now = now;
      // The schedule borrows the provider's snapshot: valid this tick only.
      const Schedule schedule = b.policy->ComputeSchedule(bound.context);
      recorder_.ScheduleComputed(now, static_cast<int>(index),
                                 static_cast<int>(schedule.entries.size()),
                                 b.policy->name());
      Translator* translator = PickTranslator(index, bound, now);
      recorder_.TranslatorPicked(now, static_cast<int>(index),
                                 static_cast<int>(bound.level),
                                 translator->name());
      translator->Apply(schedule, delta_);
      ++schedules_applied_;
      ++policies_run;
      bound.next_run = anchor + b.period;
    }
  }
  policies_run_total_ += static_cast<std::uint64_t>(policies_run);
  if (policies_run == 0) ++idle_ticks_total_;
  RunnerTickInfo info;
  info.now = now;
  info.policies_run = policies_run;
  info.delta = delta_.tick_stats();
  info.open_breakers = delta_.health().open_breakers();
  for (const Bound& bound : bindings_) {
    if (bound.attached && bound.enabled && bound.level > 0) {
      ++info.degraded_bindings;
    }
  }
  obs::TickSummary summary;
  summary.policies_run = info.policies_run;
  summary.ops_applied = info.delta.applied;
  summary.ops_skipped = info.delta.skipped;
  summary.ops_errors = info.delta.errors;
  summary.ops_suppressed = info.delta.suppressed;
  summary.open_breakers = info.open_breakers;
  summary.degraded_bindings = info.degraded_bindings;
  recorder_.TickEnd(now, summary);
  if (observer_) observer_(info);
  // L9: sleep until the next check. Anchoring on the scheduled wake time
  // (not the dispatch time) keeps the native backend drift-free; in the
  // simulator the two are identical. If a tick overran a whole interval,
  // fall back to "now" instead of firing a catch-up burst.
  SimTime next = next_wake_ + WakeInterval();
  if (next <= now) next = now + WakeInterval();
  if (next <= until_) ScheduleNext(next);
}

obs::SelfMetricsSnapshot LachesisRunner::CollectSelfMetrics() const {
  const DeltaStats& totals = delta_.totals();
  const OpHealthTracker& health = delta_.health();
  std::uint64_t breaker_opens = 0;
  for (int c = 0; c < kOpClassCount; ++c) {
    breaker_opens += health.breaker_opens(static_cast<OpClass>(c));
  }
  double attached = 0, degraded = 0;
  for (const Bound& bound : bindings_) {
    if (!bound.attached || !bound.enabled) continue;
    ++attached;
    if (bound.level > 0) ++degraded;
  }
  // Must report every metric in obs::kSelfMetricCatalog exactly once: the
  // self-metrics test pins CatalogDiff(CollectSelfMetrics()) to empty.
  return {
      {"lachesis_ticks_total", static_cast<double>(ticks_total_)},
      {"lachesis_idle_ticks_total", static_cast<double>(idle_ticks_total_)},
      {"lachesis_policies_run_total",
       static_cast<double>(policies_run_total_)},
      {"lachesis_schedules_applied_total",
       static_cast<double>(schedules_applied_)},
      {"lachesis_ops_applied_total", static_cast<double>(totals.applied)},
      {"lachesis_ops_skipped_total", static_cast<double>(totals.skipped)},
      {"lachesis_ops_errors_total", static_cast<double>(totals.errors)},
      {"lachesis_ops_suppressed_total",
       static_cast<double>(totals.suppressed)},
      {"lachesis_open_breakers", static_cast<double>(health.open_breakers())},
      {"lachesis_breaker_opens_total", static_cast<double>(breaker_opens)},
      {"lachesis_degraded_bindings", degraded},
      {"lachesis_attached_queries", attached},
      {"lachesis_wake_interval_seconds",
       static_cast<double>(WakeInterval()) / 1e9},
      {"lachesis_tracked_backoff_targets",
       static_cast<double>(health.tracked_targets())},
      {"lachesis_reconcile_seeded_entries",
       static_cast<double>(last_reconcile_seeded_)},
      {"lachesis_adopted_cgroups",
       static_cast<double>(delta_.adopted_groups())},
      {"lachesis_obs_events_recorded_total",
       static_cast<double>(recorder_.total_recorded())},
      {"lachesis_obs_events_dropped_total",
       static_cast<double>(recorder_.dropped())},
  };
}

}  // namespace lachesis::core
