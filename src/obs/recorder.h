// Decision-provenance recorder for the control plane.
//
// One Recorder instance is owned by each LachesisRunner (always on by
// default) and threaded by pointer into the layers below it: the
// schedule-delta adapter records op outcomes, the health tracker records
// breaker transitions and backoff arming, fault injectors record injected
// faults. Every hook is a single branch when recording is disabled and a
// mutex-guarded fixed-size ring push when enabled, so the steady-state cost
// is a few tens of nanoseconds per recorded event -- and the steady state
// of a healthy deployment records almost nothing beyond the two tick
// boundary events (elided ops are aggregated into the tick summary unless
// verbose mode is on).
//
// Strings (targets, policy/translator names, error texts) are interned into
// StrIds so ring entries stay fixed-size; the intern table only grows when
// a never-seen-before string appears, which in practice means during
// warmup. The recorder is thread-safe: the native backend may run several
// runners (or a signal-triggered exporter) against one process.
#ifndef LACHESIS_OBS_RECORDER_H_
#define LACHESIS_OBS_RECORDER_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/hash_index.h"
#include "common/sim_time.h"
#include "obs/event_ring.h"

namespace lachesis::obs {

inline constexpr std::size_t kDefaultRingCapacity = 8192;

// Per-tick summary mirrored from core::RunnerTickInfo (obs sits below core,
// so it declares its own POD).
struct TickSummary {
  int policies_run = 0;
  std::uint64_t ops_applied = 0;
  std::uint64_t ops_skipped = 0;
  std::uint64_t ops_errors = 0;
  std::uint64_t ops_suppressed = 0;
  int open_breakers = 0;
  int degraded_bindings = 0;
};

class Recorder {
 public:
  explicit Recorder(std::size_t capacity = kDefaultRingCapacity)
      : ring_(capacity) {}  // StrId 0 = none (the interner's "" slot)

  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  void set_enabled(bool enabled) { enabled_ = enabled; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  // Verbose mode additionally records one kOpElided event per delta-layer
  // elision and per-entity metric samples. Off by default: a stable 1k-
  // entity deployment would otherwise push 1k events per tick into the ring
  // for decisions that are, by definition, "nothing changed".
  void set_verbose(bool verbose) { verbose_ = verbose; }
  [[nodiscard]] bool verbose() const { return enabled_ && verbose_; }

  // Replaces the ring with one of the given capacity, keeping the newest
  // events that fit. Sequence numbers and drop accounting carry over.
  void SetRingCapacity(std::size_t capacity);

  // --- string interning ----------------------------------------------------
  [[nodiscard]] StrId Intern(std::string_view s);
  // Read-only lookup: kNoStr when the string was never interned.
  [[nodiscard]] StrId Lookup(std::string_view s) const;
  // Resolves an id to its string ("" for kNoStr / unknown ids).
  [[nodiscard]] std::string Name(StrId id) const;

  // --- hooks (each is a no-op when disabled) -------------------------------
  void TickBegin(SimTime now, std::uint64_t tick_index);
  void TickEnd(SimTime now, const TickSummary& summary);
  void MetricSample(SimTime now, std::string_view entity,
                    std::string_view metric, double value);
  // The policy's and the translator's names come interned (Intern(name)),
  // so a runner that keeps the ids records each tick without hashing them.
  void ScheduleComputed(SimTime now, int binding, int entries, StrId policy);
  void TranslatorPicked(SimTime now, int binding, int rung, StrId translator);
  void Op(SimTime now, EventKind kind, int op_class, std::string_view target,
          std::int64_t value, std::string_view detail = {});
  // The same with the target already interned (Intern(target)), so a
  // caller that keeps the id records its ops without hashing the name.
  void Op(SimTime now, EventKind kind, int op_class, StrId target,
          std::int64_t value, std::string_view detail = {});
  void BreakerTransition(SimTime now, int op_class, int from_state,
                         int to_state);
  void BackoffArmed(SimTime now, int op_class, std::string_view target,
                    int failures, SimTime next_retry);
  void DegradationMove(SimTime now, int binding, int from_rung, int to_rung,
                       std::string_view translator);
  void Reconcile(SimTime now, std::int64_t seeded, std::int64_t adopted);
  void FaultInjected(SimTime now, int op_class, std::string_view target,
                     std::string_view fault_kind);
  void QueryAttached(SimTime now, int binding);
  void QueryDetached(SimTime now, int binding);

  // --- introspection / export ----------------------------------------------
  [[nodiscard]] std::vector<Event> Snapshot() const;
  [[nodiscard]] std::uint64_t total_recorded() const;
  [[nodiscard]] std::uint64_t dropped() const;
  [[nodiscard]] std::size_t capacity() const { return ring_.capacity(); }

 private:
  void Push(Event event);

  mutable std::mutex mutex_;
  bool enabled_ = true;
  bool verbose_ = false;
  std::uint64_t next_seq_ = 0;
  EventRing ring_;
  // Dense ids in intern-call order (StrId == StringInterner id; both
  // reserve 0 for ""). The interner keeps its own copy of each string, so
  // Lookup never copies the probe string to the heap the way the old
  // unordered_map did.
  StringInterner interner_;
};

}  // namespace lachesis::obs

#endif  // LACHESIS_OBS_RECORDER_H_
