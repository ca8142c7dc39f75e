// ControlExecutor on real, monotonic time.
//
// Runs the identical LachesisRunner loop that the simulator drives, but
// against the host clock: callbacks are kept in a (time, insertion order)
// min-heap and dispatched from Run(), which sleeps on a condition variable
// between deadlines (the portable equivalent of a timerfd wait; the wait
// is interruptible so Stop() takes effect immediately). Time is
// SimTime-shaped: nanoseconds since construction of the executor, so
// control-plane code is oblivious to which backend it runs on.
//
// Threading: CallAt may be called from the dispatch thread (the runner
// rescheduling itself) or from other threads (dynamic attach, Stop); both
// are protected by the internal mutex. Callbacks run on the thread that
// called Run(), never concurrently.
#ifndef LACHESIS_OSCTL_NATIVE_EXECUTOR_H_
#define LACHESIS_OSCTL_NATIVE_EXECUTOR_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <queue>
#include <vector>

#include "core/executor.h"

namespace lachesis::osctl {

class NativeControlExecutor final : public core::ControlExecutor {
 public:
  NativeControlExecutor();

  // Nanoseconds of monotonic time since construction.
  [[nodiscard]] SimTime Now() const override;

  void CallAt(SimTime time, std::function<void()> fn) override;

  // Dispatches callbacks in (time, insertion) order until the pending queue
  // is empty, the next deadline lies past `until`, or Stop() is called.
  // Returns the number of callbacks dispatched.
  std::uint64_t Run(SimTime until);

  // Makes Run() return promptly (callable from another thread or a
  // callback). A later Run() call resumes dispatching.
  void Stop();

  [[nodiscard]] std::size_t pending() const;

 private:
  struct Pending {
    SimTime time;
    std::uint64_t seq;  // FIFO tiebreak within a timestamp
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Pending& a, const Pending& b) const {
      return a.time != b.time ? a.time > b.time : a.seq > b.seq;
    }
  };

  const std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::condition_variable wake_;
  std::priority_queue<Pending, std::vector<Pending>, Later> queue_;
  std::uint64_t next_seq_ = 0;
  bool stop_ = false;
};

}  // namespace lachesis::osctl

#endif  // LACHESIS_OSCTL_NATIVE_EXECUTOR_H_
