// Fleet stress bench: the §6.5 scale-out regime as a genuine parallel
// workload -- tens of machines, hundreds of operators, each machine on its
// own event queue, stepped by a worker pool (sim/fleet.h).
//
// Sweeps the worker count over the SAME scenario and seed, asserting the
// per-machine scheduler-trace digests are identical at every worker count
// (the parallel stepper is an optimization, not a model change) and
// recording wall seconds per point in BENCH_fleet.json. On an N-core host
// wall time approaches 1/N of sequential; on a 1-core host the sweep
// degenerates to overhead measurement -- hw_cores in the json says which
// regime produced the numbers.
//
//   LACHESIS_BENCH_MODE=full     bigger fleet (24 machines x 8 cores)
//   LACHESIS_BENCH_WORKERS=<n>   adds <n> to the swept worker counts
#include <algorithm>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "bench/bench_json.h"
#include "exp/fleet.h"

int main() {
  using namespace lachesis;
  using namespace lachesis::bench;

  const BenchMode mode = BenchMode::FromEnv();

  exp::FleetSpec spec;
  spec.label = "fleet";
  spec.machines = mode.full ? 24 : 12;
  spec.cores = mode.full ? 8 : 4;
  spec.queries_per_machine = mode.full ? 8 : 5;
  spec.rate_tps = 400;
  spec.warmup = mode.warmup;
  spec.measure = mode.measure;
  spec.scheduler.kind = exp::SchedulerKind::kLachesis;
  spec.scheduler.policy = exp::PolicyKind::kQueueSize;
  spec.scheduler.translator = exp::TranslatorKind::kNice;
  spec.seed = 12;

  std::vector<int> worker_counts{1, 2, 4};
  if (std::find(worker_counts.begin(), worker_counts.end(), mode.workers) ==
      worker_counts.end()) {
    worker_counts.push_back(mode.workers);
  }

  const unsigned hw_cores = std::max(1u, std::thread::hardware_concurrency());
  std::printf("fleet: %d machines x %d cores, %d queries/machine, host has %u core(s)\n",
              spec.machines, spec.cores, spec.queries_per_machine, hw_cores);

  std::vector<exp::FleetResult> results;
  for (const int workers : worker_counts) {
    exp::FleetSpec run = spec;
    run.workers = workers;
    results.push_back(exp::RunFleet(run));
    const exp::FleetResult& r = results.back();
    std::printf(
        "workers=%d  wall=%.2fs  throughput=%.0f t/s  node[min/max]=%.0f/%.0f"
        "  util=%.2f  epochs=%llu  digest=%016llx\n",
        r.worker_count, r.wall_seconds, r.throughput_tps,
        r.min_node_throughput_tps, r.max_node_throughput_tps,
        r.cpu_utilization, static_cast<unsigned long long>(r.epochs),
        static_cast<unsigned long long>(r.trace_digest));
    std::fflush(stdout);
  }

  // The parallel stepper must not change the simulation: every worker count
  // reproduces the sequential run bit for bit.
  bool digests_ok = true;
  for (const exp::FleetResult& r : results) {
    if (r.trace_digest != results.front().trace_digest ||
        r.throughput_tps != results.front().throughput_tps) {
      digests_ok = false;
    }
  }
  std::printf("determinism: %s\n", digests_ok ? "OK (all digests equal)"
                                              : "FAILED (digest mismatch)");

  // Fault-machinery overhead: the failure domain must be free when unused.
  // An ARMED director (full rule set, probability 0) evaluates every
  // per-epoch crash/partition/slow decision without ever firing one, so the
  // schedules -- and the digest -- must match the plain run bit for bit,
  // and the wall-clock delta is pure bookkeeping cost. Reps interleave
  // plain/armed so host drift hits both arms equally; min-of-reps is the
  // noise-resistant estimator.
  exp::FleetSpec plain = spec;
  plain.workers = std::min<int>(4, static_cast<int>(hw_cores));
  exp::FleetSpec armed = plain;
  for (const core::FleetFaultKind kind :
       {core::FleetFaultKind::kMachineCrash, core::FleetFaultKind::kSlowShard,
        core::FleetFaultKind::kPartition}) {
    core::FleetFaultRule rule;
    rule.kind = kind;
    rule.probability = 0.0;
    armed.fleet_faults.rules.push_back(rule);
  }
  double plain_wall = 0;
  double armed_wall = 0;
  std::uint64_t plain_digest = 0;
  std::uint64_t armed_digest = 0;
  for (int rep = 0; rep < 3; ++rep) {
    const exp::FleetResult p = exp::RunFleet(plain);
    const exp::FleetResult a = exp::RunFleet(armed);
    plain_wall = rep == 0 ? p.wall_seconds : std::min(plain_wall, p.wall_seconds);
    armed_wall = rep == 0 ? a.wall_seconds : std::min(armed_wall, a.wall_seconds);
    plain_digest = p.trace_digest;
    armed_digest = a.trace_digest;
  }
  const bool fault_digest_ok = armed_digest == plain_digest;
  const double overhead =
      plain_wall > 0 ? (armed_wall - plain_wall) / plain_wall : 0.0;
  // <2% relative, with an absolute floor so sub-100ms jitter on fast hosts
  // cannot fail the gate.
  const bool fault_overhead_ok =
      overhead < 0.02 || (armed_wall - plain_wall) < 0.08;
  std::printf(
      "fault overhead: plain=%.3fs armed=%.3fs (%+.2f%%) digest %s -> %s\n",
      plain_wall, armed_wall, overhead * 100,
      fault_digest_ok ? "match" : "MISMATCH",
      fault_digest_ok && fault_overhead_ok ? "OK" : "FAILED");

  const double base_wall = results.front().wall_seconds;
  JsonWriter json;
  json.BeginObject()
      .Field("bench", "fleet")
      .Field("mode", mode.full ? "full" : "quick")
      .Field("machines", spec.machines)
      .Field("cores_per_machine", spec.cores)
      .Field("queries_per_machine", spec.queries_per_machine)
      .Field("hw_cores", hw_cores)
      .Field("digests_identical", digests_ok)
      .BeginArray("series");
  for (const exp::FleetResult& r : results) {
    char digest[17];
    std::snprintf(digest, sizeof(digest), "%016llx",
                  static_cast<unsigned long long>(r.trace_digest));
    json.BeginObject()
        .Field("worker_count", r.worker_count)
        .Field("wall_seconds", r.wall_seconds)
        .Field("speedup_vs_sequential",
               r.wall_seconds > 0 ? base_wall / r.wall_seconds : 0.0)
        .Field("throughput_tps", r.throughput_tps)
        .Field("min_node_throughput_tps", r.min_node_throughput_tps)
        .Field("max_node_throughput_tps", r.max_node_throughput_tps)
        .Field("epochs", r.epochs)
        .Field("events_dispatched", r.events_dispatched)
        .Field("trace_digest", digest)
        .EndObject();
  }
  json.EndArray()
      .BeginObject("fault_overhead")
      .Field("plain_wall_seconds", plain_wall)
      .Field("armed_wall_seconds", armed_wall)
      .Field("overhead_pct", overhead * 100)
      .Field("digest_match", fault_digest_ok)
      .Field("within_bar", fault_overhead_ok)
      .EndObject()
      .EndObject();
  json.WriteFile("BENCH_fleet.json");
  return digests_ok && fault_digest_ok && fault_overhead_ok ? 0 : 1;
}
