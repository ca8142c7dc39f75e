// NativeSpscQueue: the lock-free bounded ring under the native executor.
//
// The single-threaded sections drive the ring against a mutex-guarded
// reference model (deque + running high-water) through seeded random
// operation sequences; the concurrent sections check the SPSC contract the
// hard way -- every popped value must be exactly the next one pushed
// (FIFO linearization), across wraparound, full/empty boundaries and the
// sleep/wake protocol. Runs under TSan via ci/run_tsan.sh.
#include "spe/native_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <deque>
#include <thread>
#include <vector>

#ifdef __linux__
#include <sched.h>
#include <sys/resource.h>
#endif

namespace lachesis::spe {
namespace {

std::uint64_t SplitMix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

TEST(NativeQueueTest, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(NativeSpscQueue<int>(0).capacity(), 2u);
  EXPECT_EQ(NativeSpscQueue<int>(1).capacity(), 2u);
  EXPECT_EQ(NativeSpscQueue<int>(2).capacity(), 2u);
  EXPECT_EQ(NativeSpscQueue<int>(3).capacity(), 4u);
  EXPECT_EQ(NativeSpscQueue<int>(1000).capacity(), 1024u);
  EXPECT_EQ(NativeSpscQueue<int>(1024).capacity(), 1024u);
}

TEST(NativeQueueTest, FullAndEmptyBoundaries) {
  NativeSpscQueue<int> queue(4);
  int out = 0;
  EXPECT_FALSE(queue.TryPop(out));  // empty
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(queue.TryPush(i));
  EXPECT_FALSE(queue.TryPush(99));  // full
  EXPECT_EQ(queue.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(queue.TryPop(out));
    EXPECT_EQ(out, i);  // FIFO
  }
  EXPECT_FALSE(queue.TryPop(out));
  EXPECT_EQ(queue.pushed(), 4u);
  EXPECT_EQ(queue.popped(), 4u);
}

TEST(NativeQueueTest, WraparoundAtMinimumCapacity) {
  NativeSpscQueue<std::uint64_t> queue(2);
  std::uint64_t out = 0;
  // Many laps around a 2-slot ring: indices wrap, values must not.
  for (std::uint64_t i = 0; i < 1000; ++i) {
    ASSERT_TRUE(queue.TryPush(2 * i));
    ASSERT_TRUE(queue.TryPush(2 * i + 1));
    ASSERT_FALSE(queue.TryPush(777));
    ASSERT_TRUE(queue.TryPop(out));
    ASSERT_EQ(out, 2 * i);
    ASSERT_TRUE(queue.TryPop(out));
    ASSERT_EQ(out, 2 * i + 1);
  }
}

TEST(NativeQueueTest, CloseRejectsPushAndDrainsPop) {
  NativeSpscQueue<int> queue(8);
  EXPECT_TRUE(queue.TryPush(1));
  EXPECT_TRUE(queue.TryPush(2));
  queue.Close();
  EXPECT_TRUE(queue.closed());
  EXPECT_FALSE(queue.TryPush(3));
  EXPECT_FALSE(queue.Push(3));
  // Buffered items still drain.
  int out = 0;
  ASSERT_TRUE(queue.Pop(out));
  EXPECT_EQ(out, 1);
  ASSERT_TRUE(queue.Pop(out));
  EXPECT_EQ(out, 2);
  EXPECT_FALSE(queue.Pop(out));
  queue.Close();  // idempotent
}

// Mutex-guarded reference model the randomized test compares against.
struct ReferenceQueue {
  explicit ReferenceQueue(std::size_t cap) : capacity(cap) {}
  bool TryPush(std::uint64_t v) {
    if (items.size() >= capacity) return false;
    items.push_back(v);
    return true;
  }
  bool TryPop(std::uint64_t& out) {
    if (items.empty()) return false;
    out = items.front();
    items.pop_front();
    return true;
  }
  std::size_t capacity;
  std::deque<std::uint64_t> items;
};

// Seeded random push/pop sequences: the ring and the reference must agree
// on every operation's outcome, every popped value, the final size and the
// high-water mark. Consumer-side high-water sampling is exact in the
// single-threaded regime (every TryPop that refreshes sees true depth), so
// the marks can only disagree if occupancy accounting is broken.
TEST(NativeQueueTest, RandomizedAgainstReferenceModel) {
  for (const std::uint64_t seed : {1ULL, 42ULL, 777ULL, 123456789ULL}) {
    for (const std::size_t cap : {2ULL, 4ULL, 16ULL, 64ULL}) {
      NativeSpscQueue<std::uint64_t> queue(cap);
      ReferenceQueue ref(queue.capacity());
      std::uint64_t rng = seed;
      std::uint64_t next_value = 0;
      std::uint64_t ref_high_water = 0;
      for (int step = 0; step < 20000; ++step) {
        if ((SplitMix64(rng) & 1) == 0) {
          const std::uint64_t v = next_value;
          const bool pushed = queue.TryPush(v);
          ASSERT_EQ(pushed, ref.TryPush(v)) << "step " << step;
          if (pushed) ++next_value;
        } else {
          std::uint64_t got = 0;
          std::uint64_t expected = 0;
          const bool popped = queue.TryPop(got);
          ASSERT_EQ(popped, ref.TryPop(expected)) << "step " << step;
          if (popped) {
            ASSERT_EQ(got, expected) << "step " << step;
            // The ring samples depth when its tail cache refreshes; in
            // single-threaded use that is every transition out of
            // apparent-empty, and the reference's max occupancy bounds it.
            ref_high_water = std::max<std::uint64_t>(
                ref_high_water, ref.items.size() + 1);
          }
        }
        ASSERT_EQ(queue.size(), ref.items.size()) << "step " << step;
      }
      EXPECT_LE(queue.high_water(), ref_high_water);
      EXPECT_LE(queue.high_water(), queue.capacity());
    }
  }
}

// Cross-thread FIFO linearization: a producer streams a strictly
// increasing sequence; the consumer asserts it receives exactly 0,1,2,...
// with no gap, duplicate or reorder. Random spin-stalls on both sides
// push the pair through full (producer parks) and empty (consumer parks)
// transitions, so the futex protocol's lost-wake and missed-publish races
// are on the tested path. Tiny capacity maximizes wraparounds.
TEST(NativeQueueTest, ConcurrentTransferIsExactFifo) {
  for (const std::size_t cap : {2ULL, 8ULL, 256ULL}) {
    constexpr std::uint64_t kCount = 200000;
    NativeSpscQueue<std::uint64_t> queue(cap);
    std::thread producer([&queue] {
      std::uint64_t rng = 99;
      for (std::uint64_t i = 0; i < kCount; ++i) {
        ASSERT_TRUE(queue.Push(i));
        if ((SplitMix64(rng) & 0xfff) == 0) {
          // Occasional stall so the consumer drains and parks.
          for (int spin = 0; spin < 2000; ++spin) {
            asm volatile("");
          }
        }
      }
      queue.Close();
    });
    std::uint64_t expected = 0;
    std::uint64_t out = 0;
    std::uint64_t rng = 7;
    while (queue.Pop(out)) {
      ASSERT_EQ(out, expected);
      ++expected;
      if ((SplitMix64(rng) & 0xfff) == 0) {
        // Occasional stall so the producer fills the ring and parks.
        for (int spin = 0; spin < 2000; ++spin) {
          asm volatile("");
        }
      }
    }
    producer.join();
    EXPECT_EQ(expected, kCount);
    EXPECT_EQ(queue.pushed(), kCount);
    EXPECT_EQ(queue.popped(), kCount);
    EXPECT_LE(queue.high_water(), queue.capacity());
  }
}

TEST(NativeQueueTest, CloseWakesBlockedConsumer) {
  NativeSpscQueue<int> queue(4);
  std::thread consumer([&queue] {
    int out = 0;
    // Blocks on empty until Close.
    EXPECT_FALSE(queue.Pop(out));
  });
  // Give the consumer time to park (not strictly required: Close is
  // correct whether it races the spin phase or the futex wait).
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  queue.Close();
  consumer.join();
}

TEST(NativeQueueTest, CloseWakesBlockedProducer) {
  NativeSpscQueue<int> queue(2);
  ASSERT_TRUE(queue.TryPush(1));
  ASSERT_TRUE(queue.TryPush(2));
  std::thread producer([&queue] {
    // Ring is full; blocks until Close, then fails.
    EXPECT_FALSE(queue.Push(3));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  queue.Close();
  producer.join();
}

// A consumer that only drains after the producer has parked: exercises the
// producer-side wake path (WakeProducer) rather than Close.
TEST(NativeQueueTest, ConsumerWakesParkedProducer) {
  NativeSpscQueue<std::uint64_t> queue(2);
  constexpr std::uint64_t kCount = 50000;
  std::thread producer([&queue] {
    for (std::uint64_t i = 0; i < kCount; ++i) ASSERT_TRUE(queue.Push(i));
    queue.Close();
  });
  std::uint64_t expected = 0;
  std::uint64_t out = 0;
  while (queue.Pop(out)) {
    ASSERT_EQ(out, expected);
    ++expected;
    if ((expected & 0x3ff) == 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  producer.join();
  EXPECT_EQ(expected, kCount);
  // A 2-slot ring against a sleeping consumer must have parked at least
  // once; the counter proves the sleep path actually ran.
  EXPECT_GT(queue.producer_sleeps(), 0u);
}

// A park must sleep in the kernel, not hand its CPU to the other side
// with sched_yield: on a CPU shared by pinned operator threads, a yield
// loop turns every park into an involuntary context switch that the
// operators pay for. The producer and consumer share one CPU and bounce
// each item through two rings, so the consumer parks on nearly every
// item; each park that really sleeps is one voluntary context switch.
TEST(NativeQueueTest, ParkedConsumerSleepsInTheKernel) {
#ifndef __linux__
  GTEST_SKIP() << "needs Linux CPU pinning and per-thread rusage";
#else
  cpu_set_t original;
  CPU_ZERO(&original);
  if (sched_getaffinity(0, sizeof(original), &original) != 0 ||
      CPU_COUNT(&original) == 0) {
    GTEST_SKIP() << "cannot read CPU affinity";
  }
  int pin_cpu = 0;
  while (!CPU_ISSET(pin_cpu, &original)) ++pin_cpu;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(pin_cpu, &one);
  // The consumer inherits the pin from this thread, which then produces.
  if (sched_setaffinity(0, sizeof(one), &one) != 0) {
    GTEST_SKIP() << "host refused sched_setaffinity";
  }

  constexpr std::uint64_t kItems = 20000;
  NativeSpscQueue<std::uint64_t> to_consumer(8);
  NativeSpscQueue<std::uint64_t> to_producer(8);
  long consumer_nvcsw = 0;
  std::thread consumer([&] {
    rusage before{};
    getrusage(RUSAGE_THREAD, &before);
    std::uint64_t item = 0;
    while (to_consumer.Pop(item)) {
      if (!to_producer.Push(item)) break;
    }
    rusage after{};
    getrusage(RUSAGE_THREAD, &after);
    consumer_nvcsw = after.ru_nvcsw - before.ru_nvcsw;
  });
  std::uint64_t echoed = 0;
  for (std::uint64_t i = 0; i < kItems; ++i) {
    std::uint64_t echo = 0;
    if (!to_consumer.Push(i) || !to_producer.Pop(echo) || echo != i) break;
    ++echoed;
  }
  to_consumer.Close();
  consumer.join();
  sched_setaffinity(0, sizeof(original), &original);

  EXPECT_EQ(echoed, kItems);
  const std::uint64_t sleeps = to_consumer.consumer_sleeps();
  EXPECT_GT(sleeps, 0u);
  EXPECT_GE(2 * static_cast<std::uint64_t>(consumer_nvcsw), sleeps)
      << consumer_nvcsw << " voluntary context switches for " << sleeps
      << " consumer parks";
#endif
}

// A parked side costs its waker at most one FUTEX_WAKE per advertisement,
// however many items land before it runs again. Each round the consumer
// has drained the ring and parked; then a burst of pushes lands while it
// wakes, and every push takes the wake path.
TEST(NativeQueueTest, BurstIntoParkedConsumerWakesItOncePerAdvertisement) {
  constexpr int kRounds = 200;
  constexpr std::uint64_t kBurst = 32;
  NativeSpscQueue<std::uint64_t> queue(64);
  std::atomic<std::uint64_t> received{0};
  std::thread consumer([&] {
    std::uint64_t item = 0;
    while (queue.Pop(item)) {
      EXPECT_EQ(item, received.load(std::memory_order_relaxed));
      received.fetch_add(1, std::memory_order_release);
    }
  });
  std::uint64_t sent = 0;
  for (int round = 0; round < kRounds; ++round) {
    const std::uint64_t parks = queue.consumer_sleeps();
    for (std::uint64_t i = 0; i < kBurst; ++i) EXPECT_TRUE(queue.Push(sent++));
    while (received.load(std::memory_order_acquire) != sent ||
           queue.consumer_sleeps() == parks) {
      std::this_thread::yield();
    }
  }
  queue.Close();
  consumer.join();
  EXPECT_EQ(received.load(), kRounds * kBurst);
  EXPECT_GT(queue.consumer_wakes(), 0u);
  EXPECT_LE(queue.consumer_wakes(), queue.consumer_advertisements())
      << queue.consumer_sleeps() << " parks";
}

// The producer side of the same bound: each round the producer has filled
// the ring and parked, then the test thread pops a full ring's worth, and
// every pop takes the wake path.
TEST(NativeQueueTest, BurstOutOfFullRingWakesProducerOncePerAdvertisement) {
  constexpr int kRounds = 200;
  constexpr std::uint64_t kCapacity = 32;
  NativeSpscQueue<std::uint64_t> queue(kCapacity);
  std::thread producer([&] {
    for (std::uint64_t i = 0; queue.Push(i); ++i) {
    }
  });
  std::uint64_t expected = 0;
  std::uint64_t parks = 0;
  for (int round = 0; round < kRounds; ++round) {
    // Wait until the producer has refilled the ring and parked since the
    // last burst began.
    while (queue.size() != kCapacity || queue.producer_sleeps() == parks) {
      std::this_thread::yield();
    }
    parks = queue.producer_sleeps();
    for (std::uint64_t i = 0; i < kCapacity; ++i) {
      std::uint64_t out = 0;
      EXPECT_TRUE(queue.TryPop(out));
      EXPECT_EQ(out, expected++);
    }
  }
  queue.Close();
  producer.join();
  EXPECT_GT(queue.producer_wakes(), 0u);
  EXPECT_LE(queue.producer_wakes(), queue.producer_advertisements())
      << queue.producer_sleeps() << " parks";
}

TEST(NativeQueueTest, HighWaterTracksBacklogPeak) {
  NativeSpscQueue<int> queue(16);
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(queue.TryPush(i));
  int out = 0;
  ASSERT_TRUE(queue.TryPop(out));  // refresh samples depth 10
  EXPECT_EQ(queue.high_water(), 10u);
  // Draining does not lower the mark.
  while (queue.TryPop(out)) {
  }
  EXPECT_EQ(queue.high_water(), 10u);
}

}  // namespace
}  // namespace lachesis::spe
