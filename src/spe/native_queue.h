// Lock-free bounded SPSC ring queue with futex-style sleep/wake.
//
// This is the native counterpart of spe/queue.h: it connects one producer
// operator thread to one consumer operator thread through a power-of-two
// ring of slots. The fast path is wait-free for both sides (one cache line
// each, no RMW, no syscalls); when a side runs dry/full it parks on a
// futex (spe/futex.h) after a short bounded spin. The wake
// handshake is an eventcount (worm-hole's sender_notify waiter-channel
// shape): the sleeper advertises itself with a waiter flag, re-checks the
// condition across a seq_cst fence, then sleeps on a generation counter.
// A waker that sees the flag claims it with an exchange before it bumps
// the generation, so one advertisement costs at most one FUTEX_WAKE however
// many pushes or pops land before the sleeper runs again.
//
// Memory-order argument (documented in docs/SPE_RUNTIME.md):
//  * head_/tail_ are monotonic uint64 positions; slot index = pos & mask.
//    Only the producer writes tail_, only the consumer writes head_, so a
//    release store on the writer side and an acquire load on the reader
//    side are sufficient to publish slot contents (no CAS needed -- this is
//    the whole point of SPSC).
//  * head_cache_/tail_cache_ are single-thread-private copies of the
//    opposite side's position, refreshed only when the cached value says
//    the ring is full/empty. This keeps steady-state push/pop from
//    ping-ponging the other side's cache line.
//  * The sleep path needs a StoreLoad edge in both directions (classic
//    Dekker): the sleeper's "waiter flag" store must be ordered before its
//    final emptiness re-check, and the publisher's position store before
//    its flag check. Two seq_cst fences provide exactly that; every other
//    access stays acquire/release.
//  * Waiters sleep on a generation counter (not on head_/tail_ directly)
//    so Close() can wake them without forging queue positions.
//  * Each side has one waker (SPSC), so a claim that reads 1 consumes
//    exactly one advertisement; one that reads 0 found the sleeper already
//    past that advertisement (re-check succeeded, or it woke), and any
//    later advertisement's re-check sees the publisher's position.
//  * The sleeper loads the generation with acquire before it sets its flag.
//    The waker bumps the generation (release) after its claim, so a load
//    that reads a bump also orders that claim before the flag store: the
//    claim cannot read the store that follows the load, and the sleeper
//    never waits on a generation whose wake took the flag it is about to
//    set. Relaxed would allow exactly that on a weakly ordered CPU; on x86
//    both compile to the same plain load.
#ifndef LACHESIS_SPE_NATIVE_QUEUE_H_
#define LACHESIS_SPE_NATIVE_QUEUE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>

#include "spe/futex.h"

namespace lachesis::spe {

template <typename T>
class NativeSpscQueue {
 public:
  // Capacity is rounded up to a power of two, minimum 2.
  explicit NativeSpscQueue(std::size_t min_capacity) {
    std::size_t cap = 2;
    while (cap < min_capacity) cap <<= 1;
    capacity_ = cap;
    mask_ = cap - 1;
    slots_ = std::make_unique<T[]>(cap);
  }

  NativeSpscQueue(const NativeSpscQueue&) = delete;
  NativeSpscQueue& operator=(const NativeSpscQueue&) = delete;

  // ---- producer side -------------------------------------------------------

  // Wait-free. False when the ring is full (or closed).
  bool TryPush(T value) { return TryPushRef(value); }

  // Blocks while full; false once the queue is closed. `value` is consumed
  // only on success.
  bool Push(T value) {
    for (;;) {
      if (TryPushRef(value)) return true;
      if (closed_.load(std::memory_order_acquire)) return false;
      for (int i = 0; i < kSpinIters; ++i) {
        if (TryPushRef(value)) return true;
      }
      const std::uint32_t seq = not_full_seq_.load(std::memory_order_acquire);
      producer_waiting_.store(1, std::memory_order_relaxed);
      producer_advertisements_.fetch_add(1, std::memory_order_relaxed);
      std::atomic_thread_fence(std::memory_order_seq_cst);
      if (TryPushRef(value)) {
        producer_waiting_.store(0, std::memory_order_relaxed);
        return true;
      }
      if (closed_.load(std::memory_order_acquire)) {
        producer_waiting_.store(0, std::memory_order_relaxed);
        return false;
      }
      producer_sleeps_.fetch_add(1, std::memory_order_relaxed);
      internal::FutexWait(not_full_seq_, seq);
      producer_waiting_.store(0, std::memory_order_relaxed);
    }
  }

  // ---- consumer side -------------------------------------------------------

  // Wait-free. False when the ring is empty.
  bool TryPop(T& out) {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    if (head == tail_cache_) {
      tail_cache_ = tail_.load(std::memory_order_acquire);
      if (head == tail_cache_) return false;
      // Exact occupancy sample: head only advances on this thread, so at
      // the refresh instant the ring holds exactly tail_cache_ - head.
      const std::uint64_t depth = tail_cache_ - head;
      if (depth > high_water_.load(std::memory_order_relaxed)) {
        high_water_.store(depth, std::memory_order_relaxed);
      }
    }
    out = std::move(slots_[head & mask_]);
    head_.store(head + 1, std::memory_order_release);
    WakeProducer();
    return true;
  }

  // Blocks while empty; false once the queue is closed AND drained.
  bool Pop(T& out) {
    for (;;) {
      if (TryPop(out)) return true;
      for (int i = 0; i < kSpinIters; ++i) {
        if (TryPop(out)) return true;
      }
      const std::uint32_t seq = not_empty_seq_.load(std::memory_order_acquire);
      consumer_waiting_.store(1, std::memory_order_relaxed);
      consumer_advertisements_.fetch_add(1, std::memory_order_relaxed);
      std::atomic_thread_fence(std::memory_order_seq_cst);
      if (TryPop(out)) {
        consumer_waiting_.store(0, std::memory_order_relaxed);
        return true;
      }
      if (closed_.load(std::memory_order_acquire)) {
        consumer_waiting_.store(0, std::memory_order_relaxed);
        return TryPop(out);
      }
      consumer_sleeps_.fetch_add(1, std::memory_order_relaxed);
      internal::FutexWait(not_empty_seq_, seq);
      consumer_waiting_.store(0, std::memory_order_relaxed);
    }
  }

  // ---- shutdown & observation ---------------------------------------------

  // Idempotent; may be called from any thread. Blocked producers fail
  // immediately; the consumer still drains buffered items before Pop
  // returns false.
  void Close() {
    closed_.store(true, std::memory_order_release);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    not_empty_seq_.fetch_add(1, std::memory_order_release);
    not_full_seq_.fetch_add(1, std::memory_order_release);
    internal::FutexWakeAll(not_empty_seq_);
    internal::FutexWakeAll(not_full_seq_);
  }

  [[nodiscard]] bool closed() const {
    return closed_.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::uint64_t pushed() const {
    return tail_.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::uint64_t popped() const {
    return head_.load(std::memory_order_acquire);
  }
  // Racy-but-monotonic-per-side snapshot; callers treat it as a gauge.
  [[nodiscard]] std::size_t size() const {
    const std::uint64_t t = tail_.load(std::memory_order_acquire);
    const std::uint64_t h = head_.load(std::memory_order_acquire);
    return t >= h ? static_cast<std::size_t>(t - h) : 0;
  }
  // Peak occupancy observed by the consumer at its tail refresh points.
  [[nodiscard]] std::uint64_t high_water() const {
    return high_water_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t producer_sleeps() const {
    return producer_sleeps_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t consumer_sleeps() const {
    return consumer_sleeps_.load(std::memory_order_relaxed);
  }
  // Times a side set its waiter flag: every park, plus every advertisement
  // whose re-check found the ring ready (or closed) and did not sleep.
  [[nodiscard]] std::uint64_t producer_advertisements() const {
    return producer_advertisements_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t consumer_advertisements() const {
    return consumer_advertisements_.load(std::memory_order_relaxed);
  }
  // Generation bumps (each with one FUTEX_WAKE) the other side issued to
  // wake this side; Close()'s are not counted. At most one per
  // advertisement.
  [[nodiscard]] std::uint64_t producer_wakes() const {
    return producer_wakes_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t consumer_wakes() const {
    return consumer_wakes_.load(std::memory_order_relaxed);
  }

 private:
  static constexpr int kSpinIters = 64;

  // Moves from `value` only when a slot was claimed, so blocking Push can
  // retry with the same object after a failed attempt.
  bool TryPushRef(T& value) {
    if (closed_.load(std::memory_order_acquire)) return false;
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    if (tail - head_cache_ >= capacity_) {
      head_cache_ = head_.load(std::memory_order_acquire);
      if (tail - head_cache_ >= capacity_) return false;
    }
    slots_[tail & mask_] = std::move(value);
    tail_.store(tail + 1, std::memory_order_release);
    WakeConsumer();
    return true;
  }

  // The plain load keeps the fast path free of RMWs; the exchange claims
  // the advertisement, so every later push (pop) before the sleeper runs
  // again finds the flag clear and skips the syscall.
  void WakeConsumer() {
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (consumer_waiting_.load(std::memory_order_relaxed) != 0 &&
        consumer_waiting_.exchange(0, std::memory_order_relaxed) != 0) {
      not_empty_seq_.fetch_add(1, std::memory_order_release);
      consumer_wakes_.fetch_add(1, std::memory_order_relaxed);
      internal::FutexWakeOne(not_empty_seq_);
    }
  }

  void WakeProducer() {
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (producer_waiting_.load(std::memory_order_relaxed) != 0 &&
        producer_waiting_.exchange(0, std::memory_order_relaxed) != 0) {
      not_full_seq_.fetch_add(1, std::memory_order_release);
      producer_wakes_.fetch_add(1, std::memory_order_relaxed);
      internal::FutexWakeOne(not_full_seq_);
    }
  }

  std::size_t capacity_ = 0;
  std::size_t mask_ = 0;
  std::unique_ptr<T[]> slots_;

  // Producer-owned line: position it writes plus its private view of head.
  alignas(64) std::atomic<std::uint64_t> tail_{0};
  std::uint64_t head_cache_ = 0;

  // Consumer-owned line.
  alignas(64) std::atomic<std::uint64_t> head_{0};
  std::uint64_t tail_cache_ = 0;
  std::atomic<std::uint64_t> high_water_{0};

  // Wake state for "ring became non-empty" (consumer parks here).
  alignas(64) std::atomic<std::uint32_t> consumer_waiting_{0};
  std::atomic<std::uint32_t> not_empty_seq_{0};
  std::atomic<std::uint64_t> consumer_sleeps_{0};
  std::atomic<std::uint64_t> consumer_advertisements_{0};
  std::atomic<std::uint64_t> consumer_wakes_{0};

  // Wake state for "ring has room again" (producer parks here).
  alignas(64) std::atomic<std::uint32_t> producer_waiting_{0};
  std::atomic<std::uint32_t> not_full_seq_{0};
  std::atomic<std::uint64_t> producer_sleeps_{0};
  std::atomic<std::uint64_t> producer_advertisements_{0};
  std::atomic<std::uint64_t> producer_wakes_{0};

  alignas(64) std::atomic<bool> closed_{false};
};

}  // namespace lachesis::spe

#endif  // LACHESIS_SPE_NATIVE_QUEUE_H_
