// Native SPE executor micro-bench: what the lock-free ring and the
// thread-per-operator runtime cost on this host.
//
// Three measurements, written to BENCH_native.json:
//   queue/same-thread   push+pop pairs on one thread -- pure ring cost, no
//                       contention, no wakeups
//   queue/cross-thread  a producer thread streams through the ring to a
//                       consumer -- the real SPSC regime, including the
//                       futex sleep/wake protocol under full/empty races
//   executor/N-op       tuples/sec through 1-, 2- and 4-operator chains at
//                       zero emulated cost: the per-tuple framework
//                       overhead (ring hop + bookkeeping) per chain stage,
//                       with the parks and the process's voluntary and
//                       involuntary context switches per tuple that explain
//                       it (getrusage(RUSAGE_SELF) deltas around each run;
//                       the bench thread's 1 ms polls add a few hundred
//                       voluntary switches per run)
//
// The cross-thread ring and every chain also report their wakes (FUTEX_WAKE
// generation bumps) and waiter advertisements. A waker claims the waiter
// flag, so wakes can never exceed advertisements; the bench exits non-zero
// if any run counted more. The counts are exact, so the gate does not
// depend on host noise. It repeats, on the executor's chains, the bound
// that native_queue_test's burst cases check on a bare ring.
//
// On a 1-core host the cross-thread and executor numbers include mandatory
// context switches; hw_cores in the json says which regime produced them.
//
//   LACHESIS_BENCH_MODE=full   ~5x more tuples per point
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>

#include "bench/bench_json.h"
#include "exp/report.h"
#include "spe/native_queue.h"
#include "spe/native_runtime.h"

using namespace lachesis;

namespace {

double WallSeconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

// Sleep/wake counts of one or more rings, both sides summed.
struct WakeCounts {
  std::uint64_t parks = 0;
  std::uint64_t wakes = 0;
  std::uint64_t advertisements = 0;

  template <typename T>
  void Add(const spe::NativeSpscQueue<T>& ring) {
    parks += ring.producer_sleeps() + ring.consumer_sleeps();
    wakes += ring.producer_wakes() + ring.consumer_wakes();
    advertisements +=
        ring.producer_advertisements() + ring.consumer_advertisements();
  }
};

// Push+pop pairs on a single thread: the ring never fills, never empties
// past one element, and no waiter ever parks.
double BenchSameThread(std::uint64_t pairs) {
  spe::NativeSpscQueue<std::uint64_t> queue(1024);
  std::uint64_t sink = 0;
  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < pairs; ++i) {
    queue.TryPush(i);
    std::uint64_t out = 0;
    queue.TryPop(out);
    sink += out;
  }
  const double wall = WallSeconds(start);
  if (sink == 0 && pairs > 1) std::abort();  // keep the loop observable
  return static_cast<double>(2 * pairs) / wall;
}

struct CrossThreadPoint {
  double tuples_per_sec = 0;
  WakeCounts counts;
};

// A producer thread streams `count` items through the ring to the bench
// thread: blocking Push/Pop, so the full/empty sleep-wake protocol is on
// the measured path whenever the two threads outpace each other.
CrossThreadPoint BenchCrossThread(std::uint64_t count) {
  spe::NativeSpscQueue<std::uint64_t> queue(1024);
  const auto start = std::chrono::steady_clock::now();
  std::thread producer([&queue, count] {
    for (std::uint64_t i = 0; i < count; ++i) queue.Push(i);
    queue.Close();
  });
  std::uint64_t out = 0;
  std::uint64_t received = 0;
  while (queue.Pop(out)) ++received;
  producer.join();
  const double wall = WallSeconds(start);
  if (received != count) std::abort();
  CrossThreadPoint point;
  point.tuples_per_sec = static_cast<double>(count) / wall;
  point.counts.Add(queue);
  return point;
}

struct ExecutorPoint {
  int chain_length = 0;
  std::uint64_t tuples = 0;
  double wall_seconds = 0;
  double tuples_per_sec = 0;
  WakeCounts counts;  // across all rings
  double voluntary_switches_per_tuple = 0;
  double involuntary_switches_per_tuple = 0;
};

// Runs `tuples` through a linear chain of `length` zero-cost operators and
// measures end-to-end wall time from Start to full drain.
ExecutorPoint BenchExecutor(int length, std::uint64_t tuples) {
  spe::LogicalQuery query;
  query.name = "bench" + std::to_string(length);
  int prev = -1;
  for (int i = 0; i < length; ++i) {
    spe::LogicalOperator op;
    op.name = "op" + std::to_string(i);
    op.role = i == 0                ? spe::OperatorRole::kIngress
              : i + 1 == length     ? spe::OperatorRole::kEgress
                                    : spe::OperatorRole::kTransform;
    op.cost = 0;  // measure the framework, not the emulated work
    op.cost_jitter = 0;
    const int index = query.Add(std::move(op));
    if (prev >= 0) query.Connect(prev, index);
    prev = index;
  }

  spe::NativeRuntimeOptions rt_options;
  rt_options.name = "bench-native";
  spe::NativeRuntime runtime(rt_options);
  spe::NativeDeployOptions deploy;
  deploy.source_rate_tps = 1e9;  // never the bottleneck
  deploy.max_tuples = tuples;
  runtime.AddQuery(query, deploy);

  rusage usage_before{};
  getrusage(RUSAGE_SELF, &usage_before);
  const auto start = std::chrono::steady_clock::now();
  runtime.Start();
  // Stop(drain) halts the source, so wait for the full batch to be
  // ingested first; drain then flushes whatever is still buffered.
  while (runtime.TotalIngested(0) < tuples) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  runtime.Stop(/*drain=*/true);
  const double wall = WallSeconds(start);
  rusage usage_after{};
  getrusage(RUSAGE_SELF, &usage_after);

  ExecutorPoint point;
  point.chain_length = length;
  point.tuples = runtime.TotalIngested(0);
  point.wall_seconds = wall;
  point.tuples_per_sec = static_cast<double>(point.tuples) / wall;
  point.voluntary_switches_per_tuple =
      static_cast<double>(usage_after.ru_nvcsw - usage_before.ru_nvcsw) /
      static_cast<double>(point.tuples);
  point.involuntary_switches_per_tuple =
      static_cast<double>(usage_after.ru_nivcsw - usage_before.ru_nivcsw) /
      static_cast<double>(point.tuples);
  for (const auto& op : runtime.ops()) point.counts.Add(op->input());
  if (point.tuples != tuples) std::abort();
  return point;
}

}  // namespace

int main() {
  const bool full = exp::BenchMode::FromEnv().full;
  const std::uint64_t queue_pairs = full ? 10000000 : 2000000;
  const std::uint64_t cross_count = full ? 5000000 : 1000000;
  const std::uint64_t exec_tuples = full ? 1000000 : 200000;
  const unsigned hw_cores =
      std::max(1u, std::thread::hardware_concurrency());

  std::printf("native-spe bench: mode=%s host has %u core(s)\n",
              full ? "full" : "quick", hw_cores);

  const double same_thread_ops = BenchSameThread(queue_pairs);
  std::printf("queue same-thread: %.1f Mops/s (%llu push+pop pairs)\n",
              same_thread_ops / 1e6,
              static_cast<unsigned long long>(queue_pairs));

  // Set when a run woke more often than its waiters advertised.
  bool over_woken = false;

  const CrossThreadPoint cross = BenchCrossThread(cross_count);
  std::printf(
      "queue cross-thread: %.1f Mtuples/s (%llu transferred, %llu parks, "
      "%llu wakes, %llu advertisements)\n",
      cross.tuples_per_sec / 1e6, static_cast<unsigned long long>(cross_count),
      static_cast<unsigned long long>(cross.counts.parks),
      static_cast<unsigned long long>(cross.counts.wakes),
      static_cast<unsigned long long>(cross.counts.advertisements));
  over_woken |= cross.counts.wakes > cross.counts.advertisements;

  std::vector<ExecutorPoint> points;
  for (const int length : {1, 2, 4}) {
    points.push_back(BenchExecutor(length, exec_tuples));
    const ExecutorPoint& p = points.back();
    std::printf(
        "executor %d-op chain: %.1f Ktuples/s (%llu tuples, %.2fs, "
        "%llu parks, %llu wakes, %llu advertisements, %.3f voluntary + "
        "%.3f involuntary context switches per tuple)\n",
        p.chain_length, p.tuples_per_sec / 1e3,
        static_cast<unsigned long long>(p.tuples), p.wall_seconds,
        static_cast<unsigned long long>(p.counts.parks),
        static_cast<unsigned long long>(p.counts.wakes),
        static_cast<unsigned long long>(p.counts.advertisements),
        p.voluntary_switches_per_tuple, p.involuntary_switches_per_tuple);
    std::fflush(stdout);
    over_woken |= p.counts.wakes > p.counts.advertisements;
  }

  bench::JsonWriter json;
  json.BeginObject()
      .Field("bench", "native_spe")
      .Field("mode", full ? "full" : "quick")
      .Field("hw_cores", hw_cores)
      .BeginObject("queue")
      .Field("same_thread_ops_per_sec", same_thread_ops)
      .Field("cross_thread_tuples_per_sec", cross.tuples_per_sec)
      .Field("cross_thread_parks", cross.counts.parks)
      .Field("cross_thread_wakes", cross.counts.wakes)
      .Field("cross_thread_advertisements", cross.counts.advertisements)
      .EndObject()
      .BeginArray("executor");
  for (const ExecutorPoint& p : points) {
    json.BeginObject()
        .Field("chain_length", p.chain_length)
        .Field("tuples", p.tuples)
        .Field("wall_seconds", p.wall_seconds)
        .Field("tuples_per_sec", p.tuples_per_sec)
        .Field("parks", p.counts.parks)
        .Field("wakes", p.counts.wakes)
        .Field("advertisements", p.counts.advertisements)
        .Field("voluntary_switches_per_tuple", p.voluntary_switches_per_tuple)
        .Field("involuntary_switches_per_tuple",
               p.involuntary_switches_per_tuple)
        .EndObject();
  }
  json.EndArray().EndObject();
  json.WriteFile("BENCH_native.json");
  if (over_woken) {
    std::fprintf(stderr, "bench_native_spe: a run woke a ring more often "
                 "than its waiters advertised\n");
    return 1;
  }
  return 0;
}
