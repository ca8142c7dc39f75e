// Control-plane executor abstraction (backend-agnostic main loop).
//
// Lachesis runs as a standalone middleware process that attaches to live
// queries (paper §4): the same control loop must tick on simulated time in
// experiments and on monotonic wall time when deployed against a real
// Linux host. The runner therefore talks only to this interface; the
// simulation backend wraps sim::Simulator (sim_executor.h) and the native
// backend runs a monotonic-clock sleep loop (src/osctl/native_executor.h).
#ifndef LACHESIS_CORE_EXECUTOR_H_
#define LACHESIS_CORE_EXECUTOR_H_

#include <functional>

#include "common/sim_time.h"

namespace lachesis::core {

// Read-only time source. SimTime is nanoseconds since the backend's epoch
// (simulation start or executor construction).
class Clock {
 public:
  virtual ~Clock() = default;
  [[nodiscard]] virtual SimTime Now() const = 0;
};

// Deferred execution on the backend's timeline. Callbacks run on the
// backend's dispatch loop, strictly ordered by time (FIFO within a
// timestamp); `time` must be >= Now().
class ControlExecutor : public Clock {
 public:
  virtual void CallAt(SimTime time, std::function<void()> fn) = 0;
};

}  // namespace lachesis::core

#endif  // LACHESIS_CORE_EXECUTOR_H_
