#include "exp/fleet.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "common/stats.h"
#include "core/fault.h"
#include "core/fleet_coordinator.h"
#include "core/os_adapter.h"
#include "core/sim_driver.h"
#include "core/sim_executor.h"
#include "sim/fleet.h"
#include "sim/machine.h"
#include "spe/source.h"
#include "spe/trace.h"
#include "tsdb/scraper.h"

namespace lachesis::exp {

namespace {

// Records every scheduler transition of one machine; the fleet digest
// serializes all machines' records (in machine order) through the on-disk
// trace format and FNV-1a hashes the bytes -- the same construction as the
// single-machine golden-trace test, so mismatches debug the same way.
class DigestObserver final : public sim::SchedTraceObserver {
 public:
  void OnSchedTransition(SimTime time, ThreadId tid,
                         sim::SchedTransition kind) override {
    records_.push_back({time, static_cast<std::int64_t>(tid.value()), 0.0,
                        static_cast<std::uint32_t>(kind)});
  }
  [[nodiscard]] std::size_t size() const { return records_.size(); }
  [[nodiscard]] const std::vector<spe::TraceRecord>& records() const {
    return records_;
  }

 private:
  std::vector<spe::TraceRecord> records_;
};

std::uint64_t FoldFnv(std::uint64_t hash, const std::string& bytes) {
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  return hash;
}

// Pass-through adapter between a machine's runner and its SimOsAdapter that
// knows whether the machine is dark. It never blocks an op -- it counts ops
// observed while dark, which must be zero: a crashed machine's agent is
// Stop()ped, so nothing should reach the adapter until the reboot. This is
// the "no op issued to a dead machine" conformance surface.
class DarkGuardAdapter final : public core::OsAdapter {
 public:
  explicit DarkGuardAdapter(core::OsAdapter& next) : next_(&next) {}

  void set_dark(bool dark) { dark_ = dark; }
  [[nodiscard]] std::uint64_t dark_ops() const { return dark_ops_; }

  void SetNice(const core::ThreadHandle& t, int nice) override {
    Note();
    next_->SetNice(t, nice);
  }
  void SetGroupShares(const std::string& g, std::uint64_t s) override {
    Note();
    next_->SetGroupShares(g, s);
  }
  void MoveToGroup(const core::ThreadHandle& t,
                   const std::string& g) override {
    Note();
    next_->MoveToGroup(t, g);
  }
  void SetRtPriority(const core::ThreadHandle& t, int rt) override {
    Note();
    next_->SetRtPriority(t, rt);
  }
  void SetGroupQuota(const std::string& g, SimDuration quota,
                     SimDuration period) override {
    Note();
    next_->SetGroupQuota(g, quota, period);
  }
  void SetDeadline(const core::ThreadHandle& t, SimDuration runtime,
                   SimDuration deadline, SimDuration period) override {
    Note();
    next_->SetDeadline(t, runtime, deadline, period);
  }
  void SetCpuAffinity(const core::ThreadHandle& t,
                      core::CpuPreference pref) override {
    Note();
    next_->SetCpuAffinity(t, pref);
  }
  bool SnapshotState(const std::vector<core::ThreadHandle>& threads,
                     core::OsStateSnapshot& out) override {
    return next_->SnapshotState(threads, out);
  }

 private:
  void Note() {
    if (dark_) ++dark_ops_;
  }

  core::OsAdapter* next_;
  bool dark_ = false;
  std::uint64_t dark_ops_ = 0;
};

// Everything owned by one machine's shard. Declaration order is destruction
// order in reverse: runner before driver before instance before machine.
struct NodeContext {
  std::unique_ptr<sim::Machine> machine;
  std::unique_ptr<DigestObserver> digest;
  std::unique_ptr<spe::SpeInstance> instance;
  std::vector<spe::DeployedQuery*> queries;
  std::vector<std::unique_ptr<spe::ExternalSource>> sources;
  std::string churn_query_name;  // empty when churn is off
  std::unique_ptr<tsdb::TimeSeriesStore> store;
  std::unique_ptr<tsdb::Scraper> scraper;
  std::unique_ptr<core::SimOsAdapter> os;
  std::unique_ptr<DarkGuardAdapter> guard;
  std::unique_ptr<core::SimControlExecutor> executor;
  std::unique_ptr<core::SimSpeDriver> driver;
  // Runners of previous agent incarnations, kept alive until the executor
  // drains: their stale tick closures (made no-ops by Stop()'s sequence
  // bump) still capture `this`.
  std::vector<std::unique_ptr<core::LachesisRunner>> retired_runners;
  std::unique_ptr<core::LachesisRunner> runner;
  std::vector<std::uint64_t> ingested_base;
  SimDuration busy_base = 0;
  std::uint64_t emitted_base = 0;
};

// A machine's base binding: every steady query on it (the churn query is
// managed through the coordinator instead).
core::PolicyBinding BaseBinding(const SchedulerSpec& scheduler,
                                const NodeContext& node) {
  std::function<bool(const core::EntityInfo&)> filter;
  if (!node.churn_query_name.empty()) {
    filter = [churn_name = node.churn_query_name](const core::EntityInfo& e) {
      return e.query_name != churn_name;
    };
  }
  return MakeBinding(scheduler, {node.driver.get()}, std::move(filter));
}

}  // namespace

FleetResult RunFleet(const FleetSpec& spec) {
  if (spec.machines <= 0) throw std::invalid_argument("fleet: machines <= 0");
  if (spec.scheduler.kind != SchedulerKind::kOsDefault &&
      spec.scheduler.kind != SchedulerKind::kLachesis) {
    throw std::invalid_argument(
        "fleet: UL-SS baselines are single-node; use kOsDefault or kLachesis");
  }
  const bool lachesis = spec.scheduler.kind == SchedulerKind::kLachesis;
  if (spec.churn_period > 0 && !lachesis) {
    throw std::invalid_argument("fleet: churn requires the Lachesis scheduler");
  }
  const SimDuration epoch =
      spec.epoch > 0 ? spec.epoch : spec.scrape_period;
  const SimTime end = spec.warmup + spec.measure;

  sim::FleetSimulator fleet(spec.machines, spec.workers, epoch);
  core::FleetCoordinator coordinator;
  coordinator.SetFailoverConfig(spec.failover);
  std::vector<NodeContext> nodes(static_cast<std::size_t>(spec.machines));

  // --- per-machine build (machine, SPE, sources, control plane) ---------------
  for (int m = 0; m < spec.machines; ++m) {
    NodeContext& node = nodes[static_cast<std::size_t>(m)];
    sim::Simulator& shard = fleet.shard(static_cast<std::size_t>(m));
    shard.ReserveEvents(/*hot_events=*/4096, /*cold_events=*/256);

    node.machine = std::make_unique<sim::Machine>(
        shard, spec.cores, sim::CfsParams{}, "node" + std::to_string(m));
    if (spec.collect_digest) {
      node.digest = std::make_unique<DigestObserver>();
      node.machine->set_trace_observer(node.digest.get());
    }
    node.instance = std::make_unique<spe::SpeInstance>(
        spec.flavor, std::vector<sim::Machine*>{node.machine.get()},
        "spe" + std::to_string(m));

    queries::SyntheticConfig synthetic = spec.synthetic;
    synthetic.num_queries =
        spec.queries_per_machine + (spec.churn_period > 0 ? 1 : 0);
    synthetic.seed = spec.synthetic.seed + static_cast<std::uint64_t>(m) * 9973;
    const std::vector<queries::Workload> workloads =
        queries::MakeSynthetic(synthetic);

    for (std::size_t q = 0; q < workloads.size(); ++q) {
      spe::DeployOptions options;
      options.seed = spec.seed * 7919 + static_cast<std::uint64_t>(m) * 131 +
                     q * 17;
      spe::DeployedQuery& dq =
          node.instance->Deploy(workloads[q].query, options);
      node.queries.push_back(&dq);
      node.sources.push_back(std::make_unique<spe::ExternalSource>(
          shard, dq.source_channels(), workloads[q].generator,
          spec.seed * 104729 + static_cast<std::uint64_t>(m) * 1009 + q * 17));
      node.sources.back()->Start(spec.rate_tps, end);
    }
    if (spec.churn_period > 0) {
      node.churn_query_name = node.queries.back()->name;
    }

    if (lachesis) {
      // The driver's counter deltas span one scheduling period.
      node.store = std::make_unique<tsdb::TimeSeriesStore>(
          std::max(spec.scheduler.period, tsdb::kDeltaWindow));
      node.scraper = std::make_unique<tsdb::Scraper>(shard, *node.store,
                                                     spec.scrape_period);
      // The instance spans exactly this machine, but pass the explicit
      // machine filter anyway: it is the fleet-safety contract.
      node.scraper->AddInstance(*node.instance, /*machine_index=*/0);
      node.scraper->Start(end);

      node.os = std::make_unique<core::SimOsAdapter>();
      node.guard = std::make_unique<DarkGuardAdapter>(*node.os);
      node.executor = std::make_unique<core::SimControlExecutor>(shard);
      node.driver = std::make_unique<core::SimSpeDriver>(
          *node.instance, *node.store, spec.scheduler.period);
      node.runner = std::make_unique<core::LachesisRunner>(
          *node.executor, *node.guard,
          spec.seed + 3 + static_cast<std::uint64_t>(m));

      node.runner->AddQuery(BaseBinding(spec.scheduler, node));
      node.runner->Start(end);
      coordinator.AddShard(*node.runner, node.machine->name(),
                           /*initial_queries=*/1);
    }
  }

  // Recurring barrier-lane callbacks. Owned by this frame rather than by the
  // closures registered in the fleet (a shared_ptr there would self-capture
  // and leak); every re-registration is guarded by `next <= end`, so each
  // continuation -- and its reference to these locals -- is consumed before
  // the final RunUntil(end) returns.
  std::uint64_t merges = 0;
  std::function<void(SimTime)> merge_tick;
  std::function<void(SimTime)> churn;
  std::vector<core::FleetQueryHandle> churn_live;

  // --- barrier lane: coordinator merge at the scrape cadence ------------------
  if (lachesis) {
    merge_tick = [&coordinator, &merges, &fleet, &merge_tick, end,
                  period = spec.scrape_period](SimTime t) {
      coordinator.NoteBarrier(t);  // liveness + failover before aggregation
      (void)coordinator.MergeTickTotals();
      ++merges;
      const SimTime next = t + period;
      if (next <= end) {
        fleet.CallAtBarrier(next, [&merge_tick, next] { merge_tick(next); });
      }
    };
    fleet.CallAtBarrier(spec.scrape_period,
                        [&merge_tick, t = spec.scrape_period] {
                          merge_tick(t);
                        });
  }

  // --- barrier lane: churn (coordinator-placed attach/detach) -----------------
  if (spec.churn_period > 0) {
    churn = [&coordinator, &nodes, &fleet, &spec, &churn, &churn_live,
             end](SimTime t) {
      if (churn_live.empty()) {
        try {
          const core::FleetQueryHandle handle = coordinator.AttachQuery(
              "churn", [&nodes, &spec](std::size_t shard,
                                       core::LachesisRunner& runner) {
                NodeContext& node = nodes[shard];
                return runner.AddQuery(MakeBinding(
                    spec.scheduler, {node.driver.get()},
                    [name = node.churn_query_name](const core::EntityInfo& e) {
                      return e.query_name == name;
                    }));
              });
          churn_live.push_back(handle);
        } catch (const core::FleetPlacementError&) {
          // Every machine dark this cycle; skip and retry next period.
        }
      } else {
        try {
          coordinator.DetachQuery(churn_live.back());
        } catch (const core::FleetPlacementError& e) {
          if (e.code() != core::FleetErrorCode::kMachineDead) throw;
          // The owning machine died and failover has not re-placed the
          // query yet: the detach intent wins -- drop the record.
          coordinator.AbandonQuery(churn_live.back());
        }
        churn_live.pop_back();
      }
      const SimTime next = t + spec.churn_period;
      if (next <= end) {
        fleet.CallAtBarrier(next, [&churn, next] { churn(next); });
      }
    };
    fleet.CallAtBarrier(spec.churn_period,
                        [&churn, t = spec.churn_period] { churn(t); });
  }

  // --- barrier lane: fleet fault director (chaos runs only) -------------------
  std::uint64_t reconcile_seeded = 0;
  std::unique_ptr<core::FleetFaultDirector> director;
  if (!spec.fleet_faults.empty()) {
    core::FleetFaultDirector::Hooks hooks;
    if (lachesis) {
      // Crash = agent death: the runner stops ticking (pending wakeups are
      // superseded) and the guard starts counting any op that would still
      // reach the machine.
      hooks.on_crash = [&nodes](std::size_t shard, SimTime) {
        NodeContext& node = nodes[shard];
        node.runner->Stop();
        node.guard->set_dark(true);
      };
      // Reboot, one epoch after the shard caught its backlog up: a fresh
      // runner over the same backend, seeded from the machine's residual
      // kernel state exactly like a restarted lachesisd, then re-announced
      // to the coordinator with a fresh liveness grace period.
      hooks.on_restart = [&nodes, &coordinator, &spec, &reconcile_seeded,
                          end](std::size_t shard, SimTime now) {
        NodeContext& node = nodes[shard];
        node.guard->set_dark(false);
        node.retired_runners.push_back(std::move(node.runner));
        node.runner = std::make_unique<core::LachesisRunner>(
            *node.executor, *node.guard,
            spec.seed + 3 + static_cast<std::uint64_t>(shard));
        node.runner->AddQuery(BaseBinding(spec.scheduler, node));
        node.driver->Poll(now);
        reconcile_seeded += node.runner->ReconcileWithBackend();
        node.runner->Start(end);
        coordinator.ReattachShardRunner(shard, *node.runner, now,
                                        /*initial_queries=*/1);
      };
    } else {
      // OS-default fleets have no agent; crashes only freeze the machine.
      hooks.on_crash = [&nodes](std::size_t shard, SimTime) {
        if (nodes[shard].guard) nodes[shard].guard->set_dark(true);
      };
      hooks.on_restart = [&nodes](std::size_t shard, SimTime) {
        if (nodes[shard].guard) nodes[shard].guard->set_dark(false);
      };
    }
    director = std::make_unique<core::FleetFaultDirector>(
        fleet, spec.fleet_faults, std::move(hooks));
    director->Arm(end);
  }

  // --- warmup -----------------------------------------------------------------
  const auto wall_start = std::chrono::steady_clock::now();
  fleet.RunUntil(spec.warmup);
  for (NodeContext& node : nodes) {
    node.busy_base = node.machine->total_busy_time();
    for (spe::DeployedQuery* q : node.queries) {
      q->ResetMeasurements();
      node.ingested_base.push_back(q->TotalIngested());
    }
    for (const auto& s : node.sources) node.emitted_base += s->emitted();
  }

  // --- measurement ------------------------------------------------------------
  fleet.RunUntil(end);
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();

  FleetResult result;
  const double measure_s = ToSeconds(spec.measure);
  RunningStat all_latency;
  std::uint64_t digest = 14695981039346656037ULL;  // FNV-1a 64 basis
  for (std::size_t m = 0; m < nodes.size(); ++m) {
    NodeContext& node = nodes[m];
    FleetNodeResult nr;
    nr.name = node.machine->name();
    std::uint64_t emitted = 0;
    for (const auto& s : node.sources) emitted += s->emitted();
    nr.offered_tps =
        static_cast<double>(emitted - node.emitted_base) / measure_s;
    RunningStat latency;
    for (std::size_t q = 0; q < node.queries.size(); ++q) {
      nr.throughput_tps +=
          static_cast<double>(node.queries[q]->TotalIngested() -
                              node.ingested_base[q]) /
          measure_s;
      for (spe::EgressMeasurements* egress : node.queries[q]->Egresses()) {
        latency.Merge(egress->latency);
      }
    }
    nr.avg_latency_ms = latency.mean() / 1e6;
    all_latency.Merge(latency);
    nr.cpu_utilization =
        static_cast<double>(node.machine->total_busy_time() - node.busy_base) /
        (static_cast<double>(spec.cores) * static_cast<double>(spec.measure));
    if (node.digest) {
      nr.sched_transitions = node.digest->size();
      std::ostringstream out;
      spe::WriteTrace(out, node.digest->records());
      digest = FoldFnv(digest, out.str());
    }
    result.throughput_tps += nr.throughput_tps;
    result.offered_tps += nr.offered_tps;
    result.nodes.push_back(std::move(nr));
  }
  result.avg_latency_ms = all_latency.mean() / 1e6;
  result.min_node_throughput_tps = result.nodes.front().throughput_tps;
  result.max_node_throughput_tps = result.nodes.front().throughput_tps;
  double utilization = 0;
  for (const FleetNodeResult& nr : result.nodes) {
    result.min_node_throughput_tps =
        std::min(result.min_node_throughput_tps, nr.throughput_tps);
    result.max_node_throughput_tps =
        std::max(result.max_node_throughput_tps, nr.throughput_tps);
    utilization += nr.cpu_utilization;
  }
  result.cpu_utilization = utilization / static_cast<double>(nodes.size());

  if (lachesis) {
    const core::FleetTickTotals totals = coordinator.MergeTickTotals();
    result.ticks_total = totals.ticks_total;
    result.schedules_applied = totals.schedules_applied;
    result.delta = totals.delta;
    result.queries_attached = coordinator.attach_count();
    result.queries_detached = coordinator.detach_count();
    result.shard_deaths = coordinator.shard_deaths();
    result.queries_replaced = coordinator.queries_replaced();
    result.queries_abandoned = coordinator.queries_abandoned();
  }
  if (director) {
    result.machine_crashes = director->crashes();
    result.machine_restarts = director->restarts();
    result.partition_epochs = director->partition_epochs();
    result.slow_epochs = director->slow_epochs();
  }
  result.reconcile_seeded = reconcile_seeded;
  for (const NodeContext& node : nodes) {
    if (node.guard) result.dark_ops += node.guard->dark_ops();
  }
  result.coordinator_merges = merges;
  const sim::FleetSimulator::Stats fleet_stats = fleet.stats();
  result.epochs = fleet_stats.epochs;
  result.cross_messages = fleet_stats.cross_posted;
  result.barrier_actions = fleet_stats.barrier_actions;
  result.cross_dropped = fleet_stats.cross_dropped_partition +
                         fleet_stats.cross_dropped_dark +
                         fleet_stats.cross_dropped_late;
  result.events_dispatched = fleet.TotalDispatched();
  result.trace_digest = spec.collect_digest ? digest : 0;
  result.worker_count = fleet.worker_count();
  result.wall_seconds = wall_seconds;
  return result;
}

}  // namespace lachesis::exp
