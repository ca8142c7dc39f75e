// Unit tests of PhysicalOp and TupleQueue: two-phase execution, routing
// (round-robin / key-by), staged emission with backpressure, egress
// measurement (only on egress operators; reservoirs against a vector
// reference; recording draws nothing from the operator's generator), the
// 4-byte latency store and its one-time widening, and the
// tuple-contributor timestamp rules.
#include "spe/physical.h"

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/simulator.h"
#include "spe/queue.h"

namespace lachesis::spe {
namespace {

struct PhysicalRig {
  sim::Simulator sim;
  sim::Machine machine{sim, 1};

  std::unique_ptr<TupleQueue> Queue(std::size_t capacity = 0) {
    return std::make_unique<TupleQueue>(machine, capacity);
  }

  std::unique_ptr<PhysicalOp> Op(TupleQueue* input, OperatorRole role,
                                 SimDuration cost = Micros(100)) {
    PhysicalOp::Config config;
    config.name = "spe.q.op.0";
    config.role = role;
    config.cost = cost;
    config.cost_jitter = 0;
    config.reservoirs = LatencyReservoirs::kBoth;
    std::vector<std::unique_ptr<OperatorLogic>> logic;
    logic.push_back(std::make_unique<IdentityLogic>());
    return std::make_unique<PhysicalOp>(config, input, std::move(logic));
  }
};

TEST(TupleQueueTest, FifoOrderAndCounters) {
  PhysicalRig rig;
  auto q = rig.Queue();
  for (int i = 0; i < 5; ++i) {
    Tuple t;
    t.key = i;
    q->Push(t);
  }
  EXPECT_EQ(q->size(), 5u);
  EXPECT_EQ(q->total_pushed(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(q->Pop().key, i);
  EXPECT_TRUE(q->empty());
  EXPECT_EQ(q->total_popped(), 5u);
}

TEST(TupleQueueTest, BoundedFullness) {
  PhysicalRig rig;
  auto q = rig.Queue(2);
  EXPECT_TRUE(q->bounded());
  q->Push({});
  EXPECT_FALSE(q->full());
  q->Push({});
  EXPECT_TRUE(q->full());
  q->Pop();
  EXPECT_FALSE(q->full());
}

TEST(TupleQueueTest, HeadAgeTracksOldestTuple) {
  PhysicalRig rig;
  auto q = rig.Queue();
  EXPECT_EQ(q->HeadAge(Seconds(5)), 0);
  Tuple t;
  t.produced = Seconds(1);
  q->Push(t);
  EXPECT_EQ(q->HeadAge(Seconds(5)), Seconds(4));
}

TEST(PhysicalOpTest, BeginPopsAndReturnsCost) {
  PhysicalRig rig;
  auto in = rig.Queue();
  auto op = rig.Op(in.get(), OperatorRole::kTransform, Micros(100));
  SimDuration cost = 0;
  EXPECT_FALSE(op->Begin(cost));  // empty queue
  in->Push({});
  ASSERT_TRUE(op->Begin(cost));
  EXPECT_EQ(cost, Micros(100));  // no jitter, no overhead configured
  EXPECT_EQ(op->tuples_in(), 1u);
}

TEST(PhysicalOpTest, PerTupleOverheadAddedToCost) {
  PhysicalRig rig;
  auto in = rig.Queue();
  PhysicalOp::Config config;
  config.name = "x";
  config.cost = Micros(100);
  config.per_tuple_overhead = Micros(25);
  std::vector<std::unique_ptr<OperatorLogic>> logic;
  logic.push_back(std::make_unique<IdentityLogic>());
  PhysicalOp op(config, in.get(), std::move(logic));
  in->Push({});
  SimDuration cost = 0;
  ASSERT_TRUE(op.Begin(cost));
  EXPECT_EQ(cost, Micros(125));
}

TEST(PhysicalOpTest, RoundRobinSpreadsAcrossReplicas) {
  PhysicalRig rig;
  auto in = rig.Queue();
  auto d0 = rig.Queue();
  auto d1 = rig.Queue();
  auto op = rig.Op(in.get(), OperatorRole::kTransform);
  PhysicalEdge edge;
  edge.destinations = {d0.get(), d1.get()};
  edge.remote = {false, false};
  edge.partitioning = Partitioning::kShuffle;
  op->AddEdge(std::move(edge));

  for (int i = 0; i < 10; ++i) {
    Tuple t;
    t.key = 7;  // same key: shuffle must still spread
    in->Push(t);
    SimDuration cost;
    ASSERT_TRUE(op->Begin(cost));
    op->Finish(0);
    ASSERT_TRUE(op->TryEmit());
  }
  EXPECT_EQ(d0->size(), 5u);
  EXPECT_EQ(d1->size(), 5u);
}

TEST(PhysicalOpTest, KeyByIsDeterministicPerKey) {
  PhysicalRig rig;
  auto in = rig.Queue();
  auto d0 = rig.Queue();
  auto d1 = rig.Queue();
  auto op = rig.Op(in.get(), OperatorRole::kTransform);
  PhysicalEdge edge;
  edge.destinations = {d0.get(), d1.get()};
  edge.remote = {false, false};
  edge.partitioning = Partitioning::kKeyBy;
  op->AddEdge(std::move(edge));

  for (int i = 0; i < 20; ++i) {
    Tuple t;
    t.key = i % 4;
    in->Push(t);
    SimDuration cost;
    ASSERT_TRUE(op->Begin(cost));
    op->Finish(0);
    ASSERT_TRUE(op->TryEmit());
  }
  // Each key lands wholly in one destination.
  while (!d0->empty()) {
    const Tuple t = d0->Pop();
    // Re-route the same key and confirm stability.
    PhysicalEdge probe;
    probe.destinations = {d0.get(), d1.get()};
    probe.partitioning = Partitioning::kKeyBy;
    const std::size_t replica = probe.PickReplica(t);
    EXPECT_EQ(replica, 0u) << "key " << t.key;
  }
}

TEST(PhysicalOpTest, FanOutDuplicatesToAllEdges) {
  PhysicalRig rig;
  auto in = rig.Queue();
  auto branch1 = rig.Queue();
  auto branch2 = rig.Queue();
  auto op = rig.Op(in.get(), OperatorRole::kTransform);
  {
    PhysicalEdge e;
    e.destinations = {branch1.get()};
    e.remote = {false};
    op->AddEdge(std::move(e));
  }
  {
    PhysicalEdge e;
    e.destinations = {branch2.get()};
    e.remote = {false};
    op->AddEdge(std::move(e));
  }
  in->Push({});
  SimDuration cost;
  ASSERT_TRUE(op->Begin(cost));
  op->Finish(0);
  ASSERT_TRUE(op->TryEmit());
  EXPECT_EQ(branch1->size(), 1u);
  EXPECT_EQ(branch2->size(), 1u);
  EXPECT_EQ(op->tuples_out(), 1u);  // one logical output, multicast
}

TEST(PhysicalOpTest, TryEmitBlocksOnFullBoundedQueue) {
  PhysicalRig rig;
  auto in = rig.Queue();
  auto dest = rig.Queue(1);
  auto op = rig.Op(in.get(), OperatorRole::kTransform);
  PhysicalEdge e;
  e.destinations = {dest.get()};
  e.remote = {false};
  op->AddEdge(std::move(e));

  dest->Push({});  // fill destination
  in->Push({});
  SimDuration cost;
  ASSERT_TRUE(op->Begin(cost));
  op->Finish(0);
  EXPECT_FALSE(op->TryEmit());
  EXPECT_EQ(op->blocked_queue(), dest.get());
  // Space frees up; emission resumes where it stopped.
  dest->Pop();
  EXPECT_TRUE(op->TryEmit());
  EXPECT_EQ(dest->size(), 1u);
}

TEST(PhysicalOpTest, IngressStampsIngestedTime) {
  PhysicalRig rig;
  auto in = rig.Queue();
  auto dest = rig.Queue();
  auto op = rig.Op(in.get(), OperatorRole::kIngress);
  PhysicalEdge e;
  e.destinations = {dest.get()};
  e.remote = {false};
  op->AddEdge(std::move(e));
  Tuple t;
  t.produced = Seconds(1);
  in->Push(t);
  SimDuration cost;
  ASSERT_TRUE(op->Begin(cost));
  op->Finish(Seconds(2));
  ASSERT_TRUE(op->TryEmit());
  EXPECT_EQ(dest->Front().ingested, Seconds(2));
  EXPECT_EQ(dest->Front().produced, Seconds(1));
}

TEST(PhysicalOpTest, EgressRecordsBothLatencies) {
  PhysicalRig rig;
  auto in = rig.Queue();
  auto op = rig.Op(in.get(), OperatorRole::kEgress);
  Tuple t;
  t.produced = Seconds(1);
  t.ingested = Seconds(2);
  in->Push(t);
  SimDuration cost;
  ASSERT_TRUE(op->Begin(cost));
  op->Finish(Seconds(3));
  const EgressMeasurements& m = *op->egress();
  EXPECT_EQ(m.tuples, 1u);
  EXPECT_DOUBLE_EQ(m.latency.mean(), static_cast<double>(Seconds(1)));
  EXPECT_DOUBLE_EQ(m.e2e_latency.mean(), static_cast<double>(Seconds(2)));
}

TEST(PhysicalOpTest, OnlyEgressOperatorsCarryEgressState) {
  PhysicalRig rig;
  for (const OperatorRole role :
       {OperatorRole::kIngress, OperatorRole::kTransform}) {
    auto in = rig.Queue();
    auto op = rig.Op(in.get(), role);
    EXPECT_EQ(op->egress(), nullptr);
    in->Push({});
    SimDuration cost;
    ASSERT_TRUE(op->Begin(cost));
    op->Finish(Seconds(1));
    // Resetting touches no counter and allocates no egress state.
    op->ResetMeasurements();
    EXPECT_EQ(op->egress(), nullptr);
    EXPECT_EQ(op->tuples_in(), 1u);
    EXPECT_EQ(op->tuples_out(), 1u);
    EXPECT_EQ(op->busy_ns(), Micros(100));
  }
  auto in = rig.Queue();
  EXPECT_NE(rig.Op(in.get(), OperatorRole::kEgress)->egress(), nullptr);
}

// The reservoir step on std::vector<double>s: past the cap, one slot draw
// per tuple serves both vectors. True when the tuple took a slot.
bool VectorReservoirAdd(std::vector<double>& latency, std::vector<double>& e2e,
                        double latency_ns, double e2e_ns, std::uint64_t seen,
                        Rng& sampler) {
  if (latency.size() < EgressMeasurements::kMaxSamples) {
    latency.push_back(latency_ns);
    e2e.push_back(e2e_ns);
    return true;
  }
  const std::uint64_t slot = sampler.NextBounded(seen);
  if (slot >= EgressMeasurements::kMaxSamples) return false;
  latency[slot] = latency_ns;
  e2e[slot] = e2e_ns;
  return true;
}

TEST(PhysicalOpTest, EgressReservoirsKeepArrivalOrderThenSample) {
  constexpr std::size_t kCap = EgressMeasurements::kMaxSamples;
  constexpr std::size_t kNoSlowTuple = ~std::size_t{0};
  // One run with every latency in the 4-byte range, and two in which one
  // tuple's latencies are 5 s and more (past 2^32 ns): once below the cap,
  // once past it.
  for (const std::size_t slow : {kNoSlowTuple, kCap / 3, kCap + kCap / 4}) {
    SCOPED_TRACE(slow == kNoSlowTuple ? std::string("no slow tuple")
                                      : "slow tuple " + std::to_string(slow));
    PhysicalRig rig;
    auto in = rig.Queue();
    auto op = rig.Op(in.get(), OperatorRole::kEgress);
    // The reservoirs' sampler is stream 1 of the operator's seed.
    Rng sampler = Rng(PhysicalOp::Config{}.seed).Split(1);
    std::vector<double> latency;
    std::vector<double> e2e;
    bool slow_kept = false;
    const auto feed = [&](std::size_t from, std::size_t to) {
      for (std::size_t i = from; i < to; ++i) {
        const auto now = static_cast<SimTime>(3 * i + 1000);
        Tuple t;
        t.ingested = i == slow ? now - Seconds(5) : static_cast<SimTime>(2 * i);
        t.produced = t.ingested - static_cast<SimTime>(i);
        in->Push(t);
        SimDuration cost;
        ASSERT_TRUE(op->Begin(cost));
        op->Finish(now);
        const bool kept = VectorReservoirAdd(
            latency, e2e, static_cast<double>(now - t.ingested),
            static_cast<double>(now - t.produced), i + 1, sampler);
        if (i == slow) slow_kept = kept;
      }
    };
    const EgressMeasurements& m = *op->egress();
    const auto expect_reference = [&](const char* when) {
      ASSERT_EQ(m.latency_samples.size(), latency.size()) << when;
      ASSERT_EQ(m.e2e_latency_samples.size(), e2e.size()) << when;
      // Slot by slot: past the cap this also pins that slot i of both
      // reservoirs holds the same tuple.
      for (std::size_t i = 0; i < latency.size(); ++i) {
        ASSERT_EQ(m.latency_samples[i], latency[i]) << when << " slot " << i;
        ASSERT_EQ(m.e2e_latency_samples[i], e2e[i]) << when << " slot " << i;
      }
      // The store widens exactly when a sample past 2^32 ns took a slot.
      EXPECT_EQ(m.latency_samples.wide(), slow_kept) << when;
      EXPECT_EQ(m.e2e_latency_samples.wide(), slow_kept) << when;
    };

    // Below the cap every sample is kept, in arrival order.
    feed(0, kCap - 1);
    expect_reference("below the cap");
    for (std::size_t i = 0; i + 1 < kCap; ++i) {
      if (i == slow) {
        ASSERT_EQ(m.latency_samples[i], static_cast<double>(Seconds(5)));
        ASSERT_EQ(m.e2e_latency_samples[i],
                  static_cast<double>(Seconds(5) + static_cast<SimTime>(i)));
        continue;
      }
      ASSERT_EQ(m.latency_samples[i], static_cast<double>(i + 1000)) << i;
      ASSERT_EQ(m.e2e_latency_samples[i], static_cast<double>(2 * i + 1000))
          << i;
    }
    // Past it the reservoirs hold exactly kCap samples, the ones the vector
    // reservoir keeps in the same slots.
    feed(kCap - 1, kCap + kCap / 2);
    EXPECT_EQ(m.tuples, kCap + kCap / 2);
    EXPECT_EQ(m.latency_samples.size(), kCap);
    EXPECT_EQ(m.e2e_latency_samples.size(), kCap);
    expect_reference("past the cap");
    // Each slow run reaches the wide store; the sampler's draws keep the
    // slow tuple past the cap too.
    if (slow != kNoSlowTuple) {
      EXPECT_TRUE(slow_kept);
    }

    op->ResetMeasurements();
    EXPECT_EQ(op->egress()->tuples, 0u);
    EXPECT_TRUE(op->egress()->latency_samples.empty());
    EXPECT_TRUE(op->egress()->e2e_latency_samples.empty());
    EXPECT_FALSE(op->egress()->latency_samples.wide());
    EXPECT_FALSE(op->egress()->e2e_latency_samples.wide());
  }
}

// Recording draws nothing from the operator's generator: an egress and a
// transform operator with one seed charge the same jittered costs and
// block for the same times, past the reservoir cap too.
TEST(PhysicalOpTest, RecordingDrawsNothingFromTheSimulatedCosts) {
  constexpr std::size_t kTuples = 150'000;
  PhysicalRig rig;
  const auto make = [](TupleQueue* input, OperatorRole role) {
    PhysicalOp::Config config;
    config.name = "spe.q.op.0";
    config.role = role;
    config.cost = Micros(100);
    config.cost_jitter = 0.5;
    config.block_probability = 0.3;
    config.block_max = Millis(10);
    config.seed = 42;
    config.reservoirs = LatencyReservoirs::kBoth;
    std::vector<std::unique_ptr<OperatorLogic>> logic;
    logic.push_back(std::make_unique<IdentityLogic>());
    return std::make_unique<PhysicalOp>(config, input, std::move(logic));
  };
  auto egress_in = rig.Queue();
  auto transform_in = rig.Queue();
  auto egress = make(egress_in.get(), OperatorRole::kEgress);
  auto transform = make(transform_in.get(), OperatorRole::kTransform);
  for (std::size_t i = 0; i < kTuples; ++i) {
    Tuple t;
    t.ingested = static_cast<SimTime>(i);
    t.produced = t.ingested;
    egress_in->Push(t);
    transform_in->Push(t);
    SimDuration egress_cost = 0;
    SimDuration transform_cost = 0;
    ASSERT_TRUE(egress->Begin(egress_cost));
    ASSERT_TRUE(transform->Begin(transform_cost));
    ASSERT_EQ(egress_cost, transform_cost) << "cost of tuple " << i;
    const auto now = static_cast<SimTime>(2 * i + 1000);
    ASSERT_EQ(egress->Finish(now), transform->Finish(now))
        << "block after tuple " << i;
  }
  EXPECT_EQ(egress->egress()->tuples, kTuples);
  EXPECT_EQ(egress->egress()->latency_samples.size(),
            EgressMeasurements::kMaxSamples);
}

constexpr SimDuration kNarrowMax = (SimDuration{1} << 32) - 1;

std::vector<double> ReadAll(const LatencySamples& samples) {
  std::vector<double> out;
  for (std::size_t i = 0; i < samples.size(); ++i) out.push_back(samples[i]);
  return out;
}

TEST(LatencySamplesTest, FourByteRangeStaysNarrowAndReadsBackExactly) {
  LatencySamples samples;
  EXPECT_TRUE(samples.empty());
  for (const SimDuration ns : {SimDuration{0}, SimDuration{1}, kNarrowMax}) {
    samples.Append(ns);
  }
  EXPECT_FALSE(samples.wide());
  EXPECT_EQ(ReadAll(samples), (std::vector<double>{0.0, 1.0, 4294967295.0}));
}

TEST(LatencySamplesTest, SampleOutsideTheRangeWidensAndKeepsEarlierOnes) {
  const std::vector<SimDuration> earlier = {0, 7, kNarrowMax, Millis(250)};
  for (const SimDuration outside :
       {kNarrowMax + 1, SimDuration{-1}, -Seconds(3)}) {
    SCOPED_TRACE(outside);
    LatencySamples samples;
    for (const SimDuration ns : earlier) samples.Append(ns);
    ASSERT_FALSE(samples.wide());
    samples.Append(outside);
    EXPECT_TRUE(samples.wide());
    samples.Append(3);  // a 4-byte value after widening stays wide
    EXPECT_TRUE(samples.wide());
    std::vector<double> expected(earlier.begin(), earlier.end());
    expected.push_back(static_cast<double>(outside));
    expected.push_back(3.0);
    EXPECT_EQ(ReadAll(samples), expected);
  }
}

TEST(LatencySamplesTest, SetWidensForAWideValueAndStoresANarrowOneWide) {
  LatencySamples samples;
  for (const SimDuration ns : {10, 20, 30}) samples.Append(ns);
  samples.Set(1, 25);
  EXPECT_FALSE(samples.wide());
  EXPECT_EQ(ReadAll(samples), (std::vector<double>{10.0, 25.0, 30.0}));

  samples.Set(1, Seconds(5));
  EXPECT_TRUE(samples.wide());
  EXPECT_EQ(ReadAll(samples), (std::vector<double>{10.0, 5e9, 30.0}));

  samples.Set(1, 40);
  samples.Set(2, -5);
  EXPECT_TRUE(samples.wide());
  EXPECT_EQ(ReadAll(samples), (std::vector<double>{10.0, 40.0, -5.0}));
}

TEST(LatencySamplesTest, RangeForYieldsTheIndexSequence) {
  LatencySamples samples;
  for (SimDuration i = 0; i < 1000; ++i) samples.Append(i * 7919);
  for (const bool wide : {false, true}) {
    if (wide) samples.Append(kNarrowMax + 1);
    ASSERT_EQ(samples.wide(), wide);
    std::vector<double> ranged;
    for (const double ns : samples) ranged.push_back(ns);
    EXPECT_EQ(ranged, ReadAll(samples));
  }
}

TEST(LatencySamplesTest, EgressResetLeavesEmptyNarrowStores) {
  EgressMeasurements m(/*seed=*/1, LatencyReservoirs::kBoth);
  m.latency_samples.Append(Seconds(5));
  m.e2e_latency_samples.Append(-1);
  ASSERT_TRUE(m.latency_samples.wide());
  ASSERT_TRUE(m.e2e_latency_samples.wide());
  m.Reset();
  for (LatencySamples* samples : {&m.latency_samples, &m.e2e_latency_samples}) {
    EXPECT_TRUE(samples->empty());
    EXPECT_FALSE(samples->wide());
    samples->Append(kNarrowMax);
    EXPECT_FALSE(samples->wide());
  }
}

// The warmup trim restarts the sampler: after Reset, measurements past the
// cap keep the slots a fresh one with the same seed keeps.
TEST(EgressMeasurementsTest, ResetRestartsTheSampler) {
  constexpr std::size_t kTuples = EgressMeasurements::kMaxSamples * 3 / 2;
  const auto record = [](EgressMeasurements& m, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      m.Record(static_cast<SimDuration>(i), static_cast<SimDuration>(2 * i));
    }
  };
  EgressMeasurements reset(/*seed=*/9, LatencyReservoirs::kBoth);
  record(reset, kTuples);
  reset.Reset();
  record(reset, kTuples);
  EgressMeasurements fresh(/*seed=*/9, LatencyReservoirs::kBoth);
  record(fresh, kTuples);
  ASSERT_EQ(reset.tuples, fresh.tuples);
  ASSERT_EQ(reset.latency_samples.size(), fresh.latency_samples.size());
  for (std::size_t i = 0; i < fresh.latency_samples.size(); ++i) {
    ASSERT_EQ(reset.latency_samples[i], fresh.latency_samples[i]) << i;
    ASSERT_EQ(reset.e2e_latency_samples[i], fresh.e2e_latency_samples[i]) << i;
    // Both reservoirs hold the same tuple in each slot.
    ASSERT_EQ(2 * fresh.latency_samples[i], fresh.e2e_latency_samples[i]) << i;
  }
  EXPECT_DOUBLE_EQ(reset.latency.mean(), fresh.latency.mean());
}

TEST(PhysicalOpTest, BlockingProbabilityProducesSleeps) {
  PhysicalRig rig;
  auto in = rig.Queue();
  PhysicalOp::Config config;
  config.name = "x";
  config.cost = Micros(10);
  config.block_probability = 0.5;
  config.block_max = Millis(10);
  std::vector<std::unique_ptr<OperatorLogic>> logic;
  logic.push_back(std::make_unique<IdentityLogic>());
  PhysicalOp op(config, in.get(), std::move(logic));
  int blocks = 0;
  for (int i = 0; i < 200; ++i) {
    in->Push({});
    SimDuration cost;
    ASSERT_TRUE(op.Begin(cost));
    const SimDuration block = op.Finish(0);
    if (block > 0) {
      ++blocks;
      EXPECT_LE(block, Millis(10));
    }
  }
  EXPECT_GT(blocks, 60);
  EXPECT_LT(blocks, 140);
}

TEST(TupleTest, MergeContributorKeepsLatest) {
  Tuple target;
  target.produced = 10;
  target.ingested = 20;
  Tuple older;
  older.produced = 5;
  older.ingested = 15;
  target.MergeContributor(older);
  EXPECT_EQ(target.produced, 10);
  EXPECT_EQ(target.ingested, 20);
  Tuple newer;
  newer.produced = 30;
  newer.ingested = 35;
  target.MergeContributor(newer);
  EXPECT_EQ(target.produced, 30);
  EXPECT_EQ(target.ingested, 35);
}

}  // namespace
}  // namespace lachesis::spe
