// Sleep and wake on a 32-bit atomic word with the futex syscall directly.
//
// The native executor's parks (NativeSpscQueue's eventcount generations and
// NativeRuntime::Start's registration latch) go through these calls
// instead of std::atomic::wait/notify. libstdc++ 12 implements wait as 12
// `pause`s, then 4 sched_yield()s, and only then a futex sleep, and it
// counts waiters in a process-wide table of 16 buckets that every ring
// shares. On a CPU shared by pinned operator threads each of those yields
// can hand the CPU to another runnable thread before the waiter has even
// slept; callers here already spin on their own condition first, so they
// sleep in the kernel at once.
//
// Not on Linux, the calls fall back to std::atomic::wait/notify.
#ifndef LACHESIS_SPE_FUTEX_H_
#define LACHESIS_SPE_FUTEX_H_

#include <atomic>
#include <climits>
#include <cstdint>

#ifdef __linux__
#include <linux/futex.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

namespace lachesis::spe::internal {

// The kernel reads and compares the word itself, so the atomic must be a
// plain, lock-free 32-bit integer at the address the syscall receives.
static_assert(sizeof(std::atomic<std::uint32_t>) == sizeof(std::uint32_t));
static_assert(alignof(std::atomic<std::uint32_t>) == alignof(std::uint32_t));
static_assert(std::atomic<std::uint32_t>::is_always_lock_free);

// Blocks while `word` holds `expected`. The loop re-reads the word after
// every return, so EINTR, EAGAIN and spurious wakeups are harmless; the
// caller re-checks its own condition after this returns.
inline void FutexWait(std::atomic<std::uint32_t>& word,
                      std::uint32_t expected) {
#ifdef __linux__
  while (word.load(std::memory_order_acquire) == expected) {
    syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(&word),
            FUTEX_WAIT_PRIVATE, expected, nullptr, nullptr, 0);
  }
#else
  word.wait(expected, std::memory_order_acquire);
#endif
}

// Wakes one thread blocked in FutexWait on `word`. The caller changes the
// word before waking, or the woken thread goes straight back to sleep.
inline void FutexWakeOne(std::atomic<std::uint32_t>& word) {
#ifdef __linux__
  syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(&word),
          FUTEX_WAKE_PRIVATE, 1, nullptr, nullptr, 0);
#else
  word.notify_one();
#endif
}

// Wakes every thread blocked in FutexWait on `word`.
inline void FutexWakeAll(std::atomic<std::uint32_t>& word) {
#ifdef __linux__
  syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(&word),
          FUTEX_WAKE_PRIVATE, INT_MAX, nullptr, nullptr, 0);
#else
  word.notify_all();
#endif
}

}  // namespace lachesis::spe::internal

#endif  // LACHESIS_SPE_FUTEX_H_
