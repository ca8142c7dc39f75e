// Deployment and runtime tests for the SPE substrate: DAG validation,
// fusion/fission, wiring, flow control, raw-metric exposure, and end-to-end
// pipeline execution on the simulator, whose schedule the egress
// measurements cannot move.
#include "spe/runtime.h"

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "sim/simulator.h"
#include "spe/source.h"

namespace lachesis::spe {
namespace {

LogicalQuery SimplePipeline(int transforms) {
  LogicalQuery q;
  q.name = "pipe";
  int prev = q.Add(MakeIngress("in", Micros(10)));
  for (int i = 0; i < transforms; ++i) {
    const int op = q.Add(MakeTransform("t" + std::to_string(i), Micros(50), [] {
      return std::make_unique<IdentityLogic>();
    }));
    q.Connect(prev, op);
    prev = op;
  }
  const int egress = q.Add(MakeEgress("out", Micros(10)));
  q.Connect(prev, egress);
  return q;
}

struct TestRig {
  sim::Simulator sim;
  std::unique_ptr<sim::Machine> machine;
  std::unique_ptr<SpeInstance> instance;

  explicit TestRig(SpeFlavor flavor = StormFlavor(), int cores = 4) {
    machine = std::make_unique<sim::Machine>(sim, cores);
    instance = std::make_unique<SpeInstance>(std::move(flavor),
                                             std::vector<sim::Machine*>{machine.get()},
                                             "test-spe");
  }
};

TEST(DeploymentTest, RejectsEmptyQuery) {
  TestRig rig;
  LogicalQuery q;
  q.name = "empty";
  EXPECT_THROW(rig.instance->Deploy(q, {}), std::invalid_argument);
}

TEST(DeploymentTest, RejectsCycles) {
  TestRig rig;
  LogicalQuery q;
  q.name = "cycle";
  const int a = q.Add(MakeTransform("a", Micros(10), [] {
    return std::make_unique<IdentityLogic>();
  }));
  const int b = q.Add(MakeTransform("b", Micros(10), [] {
    return std::make_unique<IdentityLogic>();
  }));
  q.Connect(a, b);
  q.Connect(b, a);
  EXPECT_THROW(rig.instance->Deploy(q, {}), std::invalid_argument);
}

TEST(DeploymentTest, RejectsIngressWithUpstream) {
  TestRig rig;
  LogicalQuery q;
  q.name = "bad";
  const int t = q.Add(MakeTransform("t", Micros(10), [] {
    return std::make_unique<IdentityLogic>();
  }));
  const int in = q.Add(MakeIngress("in", Micros(10)));
  q.Connect(t, in);
  EXPECT_THROW(rig.instance->Deploy(q, {}), std::invalid_argument);
}

TEST(DeploymentTest, RejectsEgressWithDownstream) {
  TestRig rig;
  LogicalQuery q;
  q.name = "bad";
  const int out = q.Add(MakeEgress("out", Micros(10)));
  const int t = q.Add(MakeTransform("t", Micros(10), [] {
    return std::make_unique<IdentityLogic>();
  }));
  q.Connect(out, t);
  EXPECT_THROW(rig.instance->Deploy(q, {}), std::invalid_argument);
}

TEST(DeploymentTest, OnePhysicalOpPerLogicalWithoutFusionFission) {
  TestRig rig;
  DeployedQuery& dq = rig.instance->Deploy(SimplePipeline(3), {});
  EXPECT_EQ(dq.ops.size(), 5u);  // in + 3 transforms + out
  for (const DeployedOp& op : dq.ops) {
    EXPECT_EQ(op.logical_indices.size(), 1u);
    EXPECT_TRUE(op.has_thread);
  }
  EXPECT_EQ(dq.source_channels().size(), 1u);
}

TEST(DeploymentTest, FissionCreatesReplicas) {
  TestRig rig;
  DeployOptions options;
  options.parallelism = 3;
  DeployedQuery& dq = rig.instance->Deploy(SimplePipeline(2), options);
  EXPECT_EQ(dq.ops.size(), 12u);  // 4 logical ops x 3 replicas
  EXPECT_EQ(dq.source_channels().size(), 3u);  // ingress replicated too
  std::map<int, int> replica_count;
  for (const DeployedOp& op : dq.ops) {
    ++replica_count[op.logical_indices.front()];
  }
  for (const auto& [logical, count] : replica_count) EXPECT_EQ(count, 3);
}

TEST(DeploymentTest, ChainingFusesLinearTransforms) {
  TestRig rig(FlinkFlavor());
  DeployOptions options;
  options.chaining = true;
  DeployedQuery& dq = rig.instance->Deploy(SimplePipeline(3), options);
  // Ingress, fused t0+t1+t2, egress.
  ASSERT_EQ(dq.ops.size(), 3u);
  bool found_fused = false;
  for (const DeployedOp& op : dq.ops) {
    if (op.logical_indices.size() == 3) {
      found_fused = true;
      // Fused chain cost = sum of member costs.
      EXPECT_EQ(op.op->config().cost, Micros(150));
    }
  }
  EXPECT_TRUE(found_fused);
}

TEST(DeploymentTest, ChainingIgnoredWhenFlavorLacksSupport) {
  TestRig rig(StormFlavor());
  DeployOptions options;
  options.chaining = true;  // storm flavor cannot chain
  DeployedQuery& dq = rig.instance->Deploy(SimplePipeline(3), options);
  EXPECT_EQ(dq.ops.size(), 5u);
}

TEST(DeploymentTest, ChainingStopsAtBranches) {
  TestRig rig(FlinkFlavor());
  LogicalQuery q;
  q.name = "branchy";
  const int in = q.Add(MakeIngress("in", Micros(10)));
  const int a = q.Add(MakeTransform("a", Micros(10), [] {
    return std::make_unique<IdentityLogic>();
  }));
  const int b1 = q.Add(MakeTransform("b1", Micros(10), [] {
    return std::make_unique<IdentityLogic>();
  }));
  const int b2 = q.Add(MakeTransform("b2", Micros(10), [] {
    return std::make_unique<IdentityLogic>();
  }));
  const int out = q.Add(MakeEgress("out", Micros(10)));
  q.Connect(in, a);
  q.Connect(a, b1);
  q.Connect(a, b2);
  q.Connect(b1, out);
  q.Connect(b2, out);
  DeployOptions options;
  options.chaining = true;
  DeployedQuery& dq = rig.instance->Deploy(q, options);
  // `a` fans out and `out` has two upstreams: nothing can fuse.
  EXPECT_EQ(dq.ops.size(), 5u);
}

TEST(DeploymentTest, KeyByEdgeBlocksFusionUnderParallelism) {
  TestRig rig(FlinkFlavor());
  LogicalQuery q;
  q.name = "keyed";
  const int in = q.Add(MakeIngress("in", Micros(10)));
  auto t1 = MakeTransform("t1", Micros(10), [] {
    return std::make_unique<IdentityLogic>();
  });
  t1.parallelism = 2;
  auto t2 = MakeTransform("t2", Micros(10), [] {
    return std::make_unique<IdentityLogic>();
  });
  t2.parallelism = 2;
  const int a = q.Add(std::move(t1));
  const int b = q.Add(std::move(t2));
  const int out = q.Add(MakeEgress("out", Micros(10)));
  q.Connect(in, a);
  q.Connect(a, b, Partitioning::kKeyBy);  // requires a shuffle between replicas
  q.Connect(b, out);
  DeployOptions options;
  options.chaining = true;
  DeployedQuery& dq = rig.instance->Deploy(q, options);
  for (const DeployedOp& op : dq.ops) {
    EXPECT_EQ(op.logical_indices.size(), 1u);
  }
}

TEST(RuntimeTest, PipelineDeliversAllTuples) {
  TestRig rig;
  DeployedQuery& dq = rig.instance->Deploy(SimplePipeline(2), {});
  ExternalSource source(rig.sim, dq.source_channels(),
                        [](Rng&, std::uint64_t seq) {
                          Tuple t;
                          t.key = static_cast<std::int64_t>(seq);
                          return t;
                        },
                        7);
  source.Start(1000, Seconds(2));
  rig.sim.RunUntil(Seconds(3));
  EXPECT_EQ(source.emitted(), 2000u);
  EXPECT_EQ(dq.TotalIngested(), 2000u);
  auto egresses = dq.Egresses();
  ASSERT_EQ(egresses.size(), 1u);
  EXPECT_EQ(egresses[0]->tuples, 2000u);
  // Latency positive and bounded at this low load.
  EXPECT_GT(egresses[0]->latency.mean(), 0);
  EXPECT_LT(egresses[0]->latency.mean(), 1e7);  // < 10 ms
}

TEST(RuntimeTest, LatencyTimestampsAreOrdered) {
  TestRig rig;
  DeployedQuery& dq = rig.instance->Deploy(SimplePipeline(1), {});
  ExternalSource source(rig.sim, dq.source_channels(),
                        [](Rng&, std::uint64_t) { return Tuple{}; }, 7);
  source.Start(500, Seconds(1));
  rig.sim.RunUntil(Seconds(2));
  auto egresses = dq.Egresses();
  // e2e latency >= processing latency (produced <= ingested).
  EXPECT_GE(egresses[0]->e2e_latency.mean(), egresses[0]->latency.mean());
}

TEST(RuntimeTest, BoundedQueuesBackpressureProducers) {
  // Flink flavor: a slow consumer must stall the producer, keeping queue
  // sizes within capacity.
  TestRig rig(FlinkFlavor(), /*cores=*/2);
  LogicalQuery q;
  q.name = "bp";
  const int in = q.Add(MakeIngress("in", Micros(5)));
  const int slow = q.Add(MakeTransform("slow", Millis(2), [] {
    return std::make_unique<IdentityLogic>();
  }));
  const int out = q.Add(MakeEgress("out", Micros(5)));
  q.Connect(in, slow);
  q.Connect(slow, out);
  DeployedQuery& dq = rig.instance->Deploy(q, {});
  ExternalSource source(rig.sim, dq.source_channels(),
                        [](Rng&, std::uint64_t) { return Tuple{}; }, 7);
  source.Start(5000, Seconds(2));
  rig.sim.RunUntil(Seconds(2));
  for (const DeployedOp& op : dq.ops) {
    if (op.op->config().role == OperatorRole::kIngress) continue;
    EXPECT_LE(op.op->input().size(), FlinkFlavor().queue_capacity);
  }
  // The slow operator bounds the pipeline: ~500 t/s processed.
  auto egresses = dq.Egresses();
  EXPECT_LT(egresses[0]->tuples, 1200u);
}

TEST(RuntimeTest, StormFlowControlThrottlesIngress) {
  // Overload a Storm-flavored pipeline: ingress must stop ingesting once
  // max_pending tuples queue internally, so internal queues stay bounded
  // even though they are "unbounded" structurally.
  SpeFlavor flavor = StormFlavor();
  flavor.max_pending = 200;
  TestRig rig(flavor, /*cores=*/1);
  LogicalQuery q;
  q.name = "fc";
  const int in = q.Add(MakeIngress("in", Micros(1)));
  const int slow = q.Add(MakeTransform("slow", Millis(1), [] {
    return std::make_unique<IdentityLogic>();
  }));
  const int out = q.Add(MakeEgress("out", Micros(1)));
  q.Connect(in, slow);
  q.Connect(slow, out);
  DeployedQuery& dq = rig.instance->Deploy(q, {});
  ExternalSource source(rig.sim, dq.source_channels(),
                        [](Rng&, std::uint64_t) { return Tuple{}; }, 7);
  source.Start(20000, Seconds(2));
  rig.sim.RunUntil(Seconds(2));
  std::size_t internal = 0;
  for (const DeployedOp& op : dq.ops) {
    if (op.op->config().role != OperatorRole::kIngress) {
      internal += op.op->input().size();
    }
  }
  EXPECT_LE(internal, 260u);  // cap + in-flight slack
  // Unconsumed tuples pile up in the source channel instead.
  EXPECT_GT(dq.source_channels()[0]->size(), 10000u);
}

TEST(RuntimeTest, QueueHighWaterSurvivesTheDrain) {
  // Unbounded (Storm/Liebre) queues used to report only pushed/popped: a
  // collapsing operator was invisible once it recovered. The high-water
  // mark must capture the backlog peak and keep reporting it through the
  // metric registry after the queue drains.
  TestRig rig(StormFlavor(), /*cores=*/4);
  LogicalQuery q;
  q.name = "hw";
  const int in = q.Add(MakeIngress("in", Micros(1)));
  const int slow = q.Add(MakeTransform("slow", Millis(1), [] {
    return std::make_unique<IdentityLogic>();
  }));
  const int out = q.Add(MakeEgress("out", Micros(1)));
  q.Connect(in, slow);
  q.Connect(slow, out);
  DeployedQuery& dq = rig.instance->Deploy(q, {});
  ExternalSource source(rig.sim, dq.source_channels(),
                        [](Rng&, std::uint64_t) { return Tuple{}; }, 7);
  // 1s burst at 2x the slow operator's service rate, then silence: the
  // backlog builds, then fully drains.
  source.Start(2000, Seconds(1));
  rig.sim.RunUntil(Seconds(1));
  const PhysicalOp* slow_op = nullptr;
  for (const DeployedOp& op : dq.ops) {
    if (op.op->config().name.find("slow") != std::string::npos) {
      slow_op = op.op;
    }
  }
  ASSERT_NE(slow_op, nullptr);
  const std::size_t peak_seen = slow_op->input().size();
  EXPECT_GT(peak_seen, 100u);  // overload really backed the queue up

  rig.sim.RunUntil(Seconds(4));
  EXPECT_EQ(slow_op->input().size(), 0u);  // recovered...
  EXPECT_GE(slow_op->input().high_water(), peak_seen);  // ...but not forgotten

  // The registry reports the same mark (Storm exposes kQueueHighWater).
  double reported = -1;
  rig.instance->ForEachRawMetric(
      [&](const DeployedQuery&, const DeployedOp& op, RawMetric m, double v) {
        if (m == RawMetric::kQueueHighWater && op.op == slow_op) {
          reported = v;
        }
      });
  EXPECT_DOUBLE_EQ(reported,
                   static_cast<double>(slow_op->input().high_water()));
}

TEST(RuntimeTest, RawMetricsFollowFlavorExposure) {
  TestRig storm_rig(StormFlavor());
  storm_rig.instance->Deploy(SimplePipeline(1), {});
  std::set<RawMetric> seen;
  storm_rig.instance->ForEachRawMetric(
      [&](const DeployedQuery&, const DeployedOp&, RawMetric m, double) {
        seen.insert(m);
      });
  EXPECT_TRUE(seen.count(RawMetric::kQueueSize));
  EXPECT_TRUE(seen.count(RawMetric::kQueueHighWater));
  EXPECT_TRUE(seen.count(RawMetric::kAvgExecLatencyUs));
  EXPECT_FALSE(seen.count(RawMetric::kBusyTimeNs));
  EXPECT_FALSE(seen.count(RawMetric::kCost));

  TestRig flink_rig(FlinkFlavor());
  flink_rig.instance->Deploy(SimplePipeline(1), {});
  seen.clear();
  flink_rig.instance->ForEachRawMetric(
      [&](const DeployedQuery&, const DeployedOp&, RawMetric m, double) {
        seen.insert(m);
      });
  EXPECT_FALSE(seen.count(RawMetric::kQueueSize));
  EXPECT_FALSE(seen.count(RawMetric::kQueueHighWater));
  EXPECT_TRUE(seen.count(RawMetric::kBufferUsage));
  EXPECT_TRUE(seen.count(RawMetric::kBusyTimeNs));
}

TEST(RuntimeTest, MeasuredCostAndSelectivityMatchConfig) {
  TestRig rig;
  LogicalQuery q;
  q.name = "sel";
  const int in = q.Add(MakeIngress("in", Micros(10)));
  // Duplicating transform: selectivity 2.
  const int dup = q.Add(MakeTransform("dup", Micros(100), [] {
    return std::make_unique<FnLogic>([](const Tuple& t, std::vector<Tuple>& out) {
      out.push_back(t);
      out.push_back(t);
    });
  }));
  const int out = q.Add(MakeEgress("out", Micros(10)));
  q.Connect(in, dup);
  q.Connect(dup, out);
  DeployedQuery& dq = rig.instance->Deploy(q, {});
  ExternalSource source(rig.sim, dq.source_channels(),
                        [](Rng&, std::uint64_t) { return Tuple{}; }, 7);
  source.Start(1000, Seconds(2));
  rig.sim.RunUntil(Seconds(2));
  for (const DeployedOp& op : dq.ops) {
    if (op.op->config().name.find("dup") == std::string::npos) continue;
    EXPECT_NEAR(op.op->MeasuredSelectivity(), 2.0, 0.01);
    // cost + flavor overhead (25us for storm), ±jitter.
    EXPECT_NEAR(op.op->MeasuredCostNs(), 125000.0, 15000.0);
  }
}

// What a run records cannot change what it simulates. Resetting the egress
// measurements (the warmup trim) at 1 s or 3 s, or never, moves the tuple
// at which the egress's reservoirs pass their cap, yet every scheduler
// transition and every operator's counters stay the same.
TEST(RuntimeTest, WhenMeasurementsResetDoesNotMoveTheRun) {
  using Transition = std::tuple<SimTime, std::uint64_t, sim::SchedTransition>;
  struct Transitions final : sim::SchedTraceObserver {
    void OnSchedTransition(SimTime time, ThreadId tid,
                           sim::SchedTransition kind) override {
      log.emplace_back(time, tid.value(), kind);
    }
    std::vector<Transition> log;
  };
  struct Run {
    std::vector<Transition> transitions;
    // tuples_in, tuples_out and busy_ns of each operator.
    std::vector<std::tuple<std::uint64_t, std::uint64_t, SimDuration>> ops;
  };
  const auto run = [](std::optional<SimTime> reset_at) {
    Transitions observer;  // outlives the machine that reports to it
    TestRig rig;
    rig.machine->set_trace_observer(&observer);
    // Three operators, each with the default cost jitter.
    DeployedQuery& dq = rig.instance->Deploy(SimplePipeline(1), {});
    ExternalSource source(rig.sim, dq.source_channels(),
                          [](Rng&, std::uint64_t) { return Tuple{}; }, 7);
    source.Start(12000, Seconds(12));
    if (reset_at) {
      rig.sim.ScheduleAt(*reset_at, [&dq] { dq.ResetMeasurements(); });
    }
    rig.sim.RunUntil(Seconds(12));
    // The egress passed its cap in every run.
    EXPECT_GT(dq.Egresses().at(0)->tuples, EgressMeasurements::kMaxSamples);
    Run result;
    result.transitions = std::move(observer.log);
    for (const DeployedOp& op : dq.ops) {
      result.ops.emplace_back(op.op->tuples_in(), op.op->tuples_out(),
                              op.op->busy_ns());
    }
    return result;
  };
  const Run never = run(std::nullopt);
  ASSERT_GT(never.transitions.size(), 1000u);
  for (const SimTime reset_at : {Seconds(1), Seconds(3)}) {
    SCOPED_TRACE("reset at " + std::to_string(reset_at / kSecond) + " s");
    const Run reset = run(reset_at);
    EXPECT_EQ(reset.ops, never.ops);
    ASSERT_EQ(reset.transitions.size(), never.transitions.size());
    for (std::size_t i = 0; i < never.transitions.size(); ++i) {
      ASSERT_EQ(reset.transitions[i], never.transitions[i])
          << "transition " << i;
    }
  }
}

// Each deploy names the latency reservoirs its egresses keep, and the
// choice moves nothing else: the running stats and every operator's
// counters are the same at each choice, a kept reservoir holds the samples
// it holds when both are kept, past the cap too, and an unkept one stays
// empty, across the warmup trim as well.
TEST(RuntimeTest, EgressKeepsOnlyTheReservoirsItsDeployNames) {
  struct Run {
    EgressMeasurements egress;
    // tuples_in, tuples_out and busy_ns of each operator.
    std::vector<std::tuple<std::uint64_t, std::uint64_t, SimDuration>> ops;
  };
  const auto run = [](LatencyReservoirs reservoirs) {
    TestRig rig;
    DeployOptions options;
    options.reservoirs = reservoirs;
    // Three operators, each with the default cost jitter.
    DeployedQuery& dq = rig.instance->Deploy(SimplePipeline(1), options);
    ExternalSource source(rig.sim, dq.source_channels(),
                          [](Rng&, std::uint64_t) { return Tuple{}; }, 7);
    source.Start(12000, Seconds(12));
    rig.sim.ScheduleAt(Seconds(1), [&dq] { dq.ResetMeasurements(); });
    rig.sim.RunUntil(Seconds(12));
    Run result{*dq.Egresses().at(0), {}};
    for (const DeployedOp& op : dq.ops) {
      result.ops.emplace_back(op.op->tuples_in(), op.op->tuples_out(),
                              op.op->busy_ns());
    }
    return result;
  };
  const auto expect_stat_eq = [](const RunningStat& got,
                                 const RunningStat& want) {
    EXPECT_EQ(got.count(), want.count());
    EXPECT_EQ(got.mean(), want.mean());
    EXPECT_EQ(got.variance(), want.variance());
    EXPECT_EQ(got.min(), want.min());
    EXPECT_EQ(got.max(), want.max());
  };
  const auto expect_kept = [](const LatencySamples& got,
                              const LatencySamples& want, bool kept) {
    if (!kept) {
      EXPECT_TRUE(got.empty());
      EXPECT_FALSE(got.wide());
      return;
    }
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(got[i], want[i]) << "slot " << i;
    }
  };

  const Run both = run(LatencyReservoirs::kBoth);
  // The egress passed its cap, so the kept reservoirs rest on the sampler.
  ASSERT_GT(both.egress.tuples, EgressMeasurements::kMaxSamples);
  ASSERT_EQ(both.egress.latency_samples.size(), EgressMeasurements::kMaxSamples);
  ASSERT_EQ(both.egress.e2e_latency_samples.size(),
            EgressMeasurements::kMaxSamples);
  struct Case {
    LatencyReservoirs reservoirs;
    const char* name;
    bool keeps_processing;
    bool keeps_e2e;
  };
  for (const Case& c : {Case{LatencyReservoirs::kNone, "kNone", false, false},
                        Case{LatencyReservoirs::kEndToEnd, "kEndToEnd", false,
                             true},
                        Case{LatencyReservoirs::kProcessing, "kProcessing",
                             true, false}}) {
    SCOPED_TRACE(c.name);
    const Run r = run(c.reservoirs);
    EXPECT_EQ(r.ops, both.ops);
    EXPECT_EQ(r.egress.tuples, both.egress.tuples);
    expect_stat_eq(r.egress.latency, both.egress.latency);
    expect_stat_eq(r.egress.e2e_latency, both.egress.e2e_latency);
    expect_kept(r.egress.latency_samples, both.egress.latency_samples,
                c.keeps_processing);
    expect_kept(r.egress.e2e_latency_samples, both.egress.e2e_latency_samples,
                c.keeps_e2e);
  }
}

TEST(RuntimeTest, MultiNodeDeploymentSpreadsReplicas) {
  sim::Simulator sim;
  sim::Machine node0(sim, 4, {}, "node0");
  sim::Machine node1(sim, 4, {}, "node1");
  SpeInstance instance(StormFlavor(), {&node0, &node1}, "spe");
  DeployOptions options;
  options.parallelism = 2;  // replica r -> node r by default
  DeployedQuery& dq = instance.Deploy(SimplePipeline(2), options);
  std::set<int> machines_used;
  for (const DeployedOp& op : dq.ops) machines_used.insert(op.machine_index);
  EXPECT_EQ(machines_used.size(), 2u);

  // Cross-node tuples flow through the simulated network and arrive.
  ExternalSource source(sim, dq.source_channels(),
                        [](Rng&, std::uint64_t seq) {
                          Tuple t;
                          t.key = static_cast<std::int64_t>(seq);
                          return t;
                        },
                        7);
  source.Start(1000, Seconds(2));
  sim.RunUntil(Seconds(3));
  std::uint64_t delivered = 0;
  for (auto* egress : dq.Egresses()) delivered += egress->tuples;
  EXPECT_EQ(delivered, 2000u);
}

}  // namespace
}  // namespace lachesis::spe
