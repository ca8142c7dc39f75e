// Simulation driver: global clock plus event dispatch loop.
//
// Multiple Machines (simulated hosts) can share one Simulator, which models
// NTP-synchronized clocks in distributed deployments (paper §3.2).
#ifndef LACHESIS_SIM_SIMULATOR_H_
#define LACHESIS_SIM_SIMULATOR_H_

#include <cassert>
#include <functional>
#include <utility>

#include "common/sim_time.h"
#include "sim/event_queue.h"

namespace lachesis::sim {

class FleetSimulator;

class Simulator {
 public:
  [[nodiscard]] SimTime now() const { return now_; }

  // Pre-sizes the event queue's lanes so steady-state runs never reallocate.
  void ReserveEvents(std::size_t hot_events, std::size_t cold_events = 0) {
    queue_.Reserve(hot_events, cold_events);
  }

  void ScheduleAt(SimTime time, EventSink* sink, std::int32_t code,
                  std::uint64_t a, std::uint64_t b) {
    assert(time >= now_);
    queue_.Push(time, sink, code, a, b);
  }

  void ScheduleAfter(SimDuration delay, EventSink* sink, std::int32_t code,
                     std::uint64_t a, std::uint64_t b) {
    ScheduleAt(now_ + delay, sink, code, a, b);
  }

  void ScheduleAt(SimTime time, std::function<void()> fn) {
    assert(time >= now_);
    queue_.Push(time, std::move(fn));
  }

  void ScheduleAfter(SimDuration delay, std::function<void()> fn) {
    ScheduleAt(now_ + delay, std::move(fn));
  }

  // Runs events until the queue is exhausted or the clock passes `end`.
  // Events at exactly `end` are executed. The clock is left at `end` (or at
  // the last event if the queue drained first).
  void RunUntil(SimTime end) {
    while (!queue_.empty() && queue_.next_time() <= end) {
      // The clock must advance before dispatch so handlers see the event's
      // own timestamp via now().
      now_ = queue_.next_time();
      queue_.PopAndDispatch();
      ++dispatched_;
    }
    if (now_ < end) now_ = end;
  }

  // Runs until no events remain. Only safe for workloads that terminate.
  void RunToCompletion() {
    while (!queue_.empty()) {
      now_ = queue_.next_time();
      queue_.PopAndDispatch();
      ++dispatched_;
    }
  }

  [[nodiscard]] bool idle() const { return queue_.empty(); }
  // Total events dispatched; useful for performance diagnostics.
  [[nodiscard]] std::uint64_t dispatched() const { return dispatched_; }

  // --- fleet context ---------------------------------------------------------
  // Set by FleetSimulator when this queue is one shard of a parallel fleet
  // (sim/fleet.h). Code that may run in either mode (e.g. the SPE's remote
  // tuple push) routes cross-simulator interactions through the fleet's
  // mailboxes when `fleet()` is non-null; machines sharing one Simulator
  // are unaffected.
  void SetFleetContext(FleetSimulator* fleet, std::size_t shard_index) {
    fleet_ = fleet;
    shard_index_ = shard_index;
  }
  [[nodiscard]] FleetSimulator* fleet() const { return fleet_; }
  [[nodiscard]] std::size_t shard_index() const { return shard_index_; }

 private:
  SimTime now_ = 0;
  std::uint64_t dispatched_ = 0;
  EventQueue queue_;
  FleetSimulator* fleet_ = nullptr;
  std::size_t shard_index_ = 0;
};

}  // namespace lachesis::sim

#endif  // LACHESIS_SIM_SIMULATOR_H_
