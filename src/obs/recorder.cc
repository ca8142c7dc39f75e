#include "obs/recorder.h"

#include <algorithm>

namespace lachesis::obs {

const char* EventKindName(EventKind kind) {
  switch (kind) {
    case EventKind::kTickBegin: return "TickBegin";
    case EventKind::kTickEnd: return "TickEnd";
    case EventKind::kMetricSample: return "MetricSample";
    case EventKind::kScheduleComputed: return "ScheduleComputed";
    case EventKind::kTranslatorPicked: return "TranslatorPicked";
    case EventKind::kOpApplied: return "OpApplied";
    case EventKind::kOpElided: return "OpElided";
    case EventKind::kOpSuppressed: return "OpSuppressed";
    case EventKind::kOpError: return "OpError";
    case EventKind::kBreakerTransition: return "BreakerTransition";
    case EventKind::kBackoffArmed: return "BackoffArmed";
    case EventKind::kDegradationMove: return "DegradationMove";
    case EventKind::kReconcile: return "Reconcile";
    case EventKind::kFaultInjected: return "FaultInjected";
    case EventKind::kQueryAttached: return "QueryAttached";
    case EventKind::kQueryDetached: return "QueryDetached";
  }
  return "?";
}

StrId Recorder::Intern(std::string_view s) {
  if (s.empty()) return kNoStr;
  std::lock_guard<std::mutex> lock(mutex_);
  return interner_.Intern(s);
}

StrId Recorder::Lookup(std::string_view s) const {
  if (s.empty()) return kNoStr;
  std::lock_guard<std::mutex> lock(mutex_);
  return interner_.Lookup(s);
}

std::string Recorder::Name(StrId id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return std::string(interner_.View(id));
}

void Recorder::SetRingCapacity(std::size_t capacity) {
  std::lock_guard<std::mutex> lock(mutex_);
  EventRing fresh(capacity);
  const std::vector<Event> events = ring_.Snapshot();
  const std::size_t keep = std::min(events.size(), fresh.capacity());
  for (std::size_t i = events.size() - keep; i < events.size(); ++i) {
    fresh.Push(events[i]);
  }
  ring_ = std::move(fresh);
}

void Recorder::Push(Event event) {
  std::lock_guard<std::mutex> lock(mutex_);
  event.seq = next_seq_++;
  ring_.Push(event);
}

// Interning takes the same mutex as Push, so hooks intern first and push
// second (two short critical sections instead of one recursive one).
void Recorder::TickBegin(SimTime now, std::uint64_t tick_index) {
  if (!enabled_) return;
  Event e;
  e.time = now;
  e.kind = EventKind::kTickBegin;
  e.i0 = static_cast<std::int32_t>(tick_index & 0x7fffffff);
  e.v0 = static_cast<std::int64_t>(tick_index);
  Push(e);
}

void Recorder::TickEnd(SimTime now, const TickSummary& summary) {
  if (!enabled_) return;
  Event e;
  e.time = now;
  e.kind = EventKind::kTickEnd;
  e.i0 = summary.policies_run;
  e.i1 = (summary.open_breakers & 0xffff) |
         ((summary.degraded_bindings & 0x7fff) << 16);
  e.v0 = PackTickCounts(summary.ops_applied, summary.ops_skipped,
                        summary.ops_errors, summary.ops_suppressed);
  Push(e);
}

void Recorder::MetricSample(SimTime now, std::string_view entity,
                            std::string_view metric, double value) {
  if (!verbose()) return;
  Event e;
  e.time = now;
  e.kind = EventKind::kMetricSample;
  e.d0 = value;
  e.target = Intern(entity);
  e.detail = Intern(metric);
  Push(e);
}

void Recorder::ScheduleComputed(SimTime now, int binding, int entries,
                                StrId policy) {
  if (!enabled_) return;
  Event e;
  e.time = now;
  e.kind = EventKind::kScheduleComputed;
  e.i0 = binding;
  e.i1 = entries;
  e.detail = policy;
  Push(e);
}

void Recorder::TranslatorPicked(SimTime now, int binding, int rung,
                                StrId translator) {
  if (!enabled_) return;
  Event e;
  e.time = now;
  e.kind = EventKind::kTranslatorPicked;
  e.i0 = binding;
  e.i1 = rung;
  e.detail = translator;
  Push(e);
}

void Recorder::Op(SimTime now, EventKind kind, int op_class,
                  std::string_view target, std::int64_t value,
                  std::string_view detail) {
  if (!enabled_) return;
  if (kind == EventKind::kOpElided && !verbose_) return;
  Op(now, kind, op_class, Intern(target), value, detail);
}

void Recorder::Op(SimTime now, EventKind kind, int op_class, StrId target,
                  std::int64_t value, std::string_view detail) {
  if (!enabled_) return;
  if (kind == EventKind::kOpElided && !verbose_) return;
  Event e;
  e.time = now;
  e.kind = kind;
  e.op_class = static_cast<std::uint8_t>(op_class);
  e.v0 = value;
  e.target = target;
  e.detail = Intern(detail);
  Push(e);
}

void Recorder::BreakerTransition(SimTime now, int op_class, int from_state,
                                 int to_state) {
  if (!enabled_) return;
  Event e;
  e.time = now;
  e.kind = EventKind::kBreakerTransition;
  e.op_class = static_cast<std::uint8_t>(op_class);
  e.i0 = from_state;
  e.i1 = to_state;
  Push(e);
}

void Recorder::BackoffArmed(SimTime now, int op_class, std::string_view target,
                            int failures, SimTime next_retry) {
  if (!enabled_) return;
  Event e;
  e.time = now;
  e.kind = EventKind::kBackoffArmed;
  e.op_class = static_cast<std::uint8_t>(op_class);
  e.i0 = failures;
  e.v0 = next_retry;
  e.target = Intern(target);
  Push(e);
}

void Recorder::DegradationMove(SimTime now, int binding, int from_rung,
                               int to_rung, std::string_view translator) {
  if (!enabled_) return;
  Event e;
  e.time = now;
  e.kind = EventKind::kDegradationMove;
  e.i0 = binding;
  e.i1 = to_rung;
  e.v0 = from_rung;
  e.detail = Intern(translator);
  Push(e);
}

void Recorder::Reconcile(SimTime now, std::int64_t seeded,
                         std::int64_t adopted) {
  if (!enabled_) return;
  Event e;
  e.time = now;
  e.kind = EventKind::kReconcile;
  e.i0 = static_cast<std::int32_t>(adopted);
  e.v0 = seeded;
  Push(e);
}

void Recorder::FaultInjected(SimTime now, int op_class,
                             std::string_view target,
                             std::string_view fault_kind) {
  if (!enabled_) return;
  Event e;
  e.time = now;
  e.kind = EventKind::kFaultInjected;
  e.op_class = static_cast<std::uint8_t>(op_class);
  e.target = Intern(target);
  e.detail = Intern(fault_kind);
  Push(e);
}

void Recorder::QueryAttached(SimTime now, int binding) {
  if (!enabled_) return;
  Event e;
  e.time = now;
  e.kind = EventKind::kQueryAttached;
  e.i0 = binding;
  Push(e);
}

void Recorder::QueryDetached(SimTime now, int binding) {
  if (!enabled_) return;
  Event e;
  e.time = now;
  e.kind = EventKind::kQueryDetached;
  e.i0 = binding;
  Push(e);
}

std::vector<Event> Recorder::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return ring_.Snapshot();
}

// Both counters derive from next_seq_ (events ever recorded), not the
// ring's own accounting, so a SetRingCapacity resize cannot skew them.
std::uint64_t Recorder::total_recorded() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return next_seq_;
}

std::uint64_t Recorder::dropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return next_seq_ - ring_.size();
}

}  // namespace lachesis::obs
