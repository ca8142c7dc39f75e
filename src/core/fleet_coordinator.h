// Thin coordinator over per-shard Lachesis runners (fleet mode).
//
// The paper's scale-out deployment (§6.5, Fig 17) runs one per-node-isolated
// Lachesis instance per machine; the cluster tier of the scheduling
// taxonomy adds a coordinator that only aggregates state and places work,
// never touching the per-node decision loops. FleetCoordinator is that
// tier for the sharded simulation: each shard owns a full control plane
// (LachesisRunner + executor + adapter + tsdb, all built on that shard's
// Simulator), and the coordinator -- which runs exclusively on the fleet's
// barrier lane, while every shard is quiescent -- merges RunnerTickInfo and
// self-metrics across shards, renders a combined Chrome trace (one process
// per shard), and reconciles cross-machine query placement on
// attach/detach by picking the least-loaded shard.
//
// Failure awareness: the coordinator derives per-machine liveness from
// barrier participation (a shard whose last observed tick is older than
// `stale_after` is presumed dead -- exactly the signal a real coordinator
// has: the agent stopped heartbeating). Control bindings placed on a dead
// machine are orphaned and re-placed onto the least-loaded survivor after a
// configurable backoff; self-metrics from dark shards are refused rather
// than merged stale; and placement operations validate liveness up front,
// throwing a typed FleetPlacementError instead of indexing a drained shard.
#ifndef LACHESIS_CORE_FLEET_COORDINATOR_H_
#define LACHESIS_CORE_FLEET_COORDINATOR_H_

#include <cstdint>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/runner.h"
#include "obs/self_metrics.h"

namespace lachesis::core {

// Typed placement failures; callers branch on code() (e.g. a churn loop
// abandons a handle on kMachineDead instead of crashing).
enum class FleetErrorCode {
  kNoLiveShards = 0,  // attach/re-place with every machine dark
  kMachineDead,       // operation routed at a machine presumed dead
  kUnknownHandle,     // stale or never-issued query handle
};

class FleetPlacementError : public std::runtime_error {
 public:
  FleetPlacementError(FleetErrorCode code, const std::string& what)
      : std::runtime_error(what), code_(code) {}
  [[nodiscard]] FleetErrorCode code() const { return code_; }

 private:
  FleetErrorCode code_;
};

// Liveness / re-placement knobs (docs/OPERATIONS.md).
struct FleetFailoverConfig {
  // A shard is presumed dead when its last observed tick is older than
  // this at a barrier. Must exceed the largest runner wake interval or
  // healthy shards flap dead between ticks.
  SimDuration stale_after = Millis(2500);
  // How long an orphaned query waits before re-placement -- the hysteresis
  // that stops a briefly-partitioned machine's queries from bouncing.
  SimDuration replace_backoff = Seconds(1);
};

// Fleet-wide aggregate of the per-shard runner counters, taken at a
// barrier. `last_tick` fields come from each shard's most recent
// RunnerTickInfo (gauges: summed across shards); the totals are summed
// lifetime counters.
struct FleetTickTotals {
  std::uint64_t ticks_total = 0;
  std::uint64_t schedules_applied = 0;
  DeltaStats delta;
  int open_breakers = 0;      // sum of last-tick gauges (live shards only)
  int degraded_bindings = 0;  // sum of last-tick gauges (live shards only)
  int shards_reporting = 0;   // live shards that ticked at least once
  int live_shards = 0;        // shards currently presumed alive
};

// Handle for a query attached through the coordinator; identifies the
// owning shard and the runner binding index so DetachQuery can route the
// RemoveQuery call.
struct FleetQueryHandle {
  std::uint64_t id = 0;
  std::size_t shard = 0;
  std::size_t binding = 0;
};

class FleetCoordinator {
 public:
  // Registers a shard's runner. Installs a tick observer on the runner
  // (chaining to any observer installed later is NOT supported; the
  // coordinator must be attached first, or use the runner's observer to
  // call the coordinator). `initial_queries` seeds the placement load
  // counter with bindings attached outside the coordinator. Returns the
  // shard index.
  std::size_t AddShard(LachesisRunner& runner, std::string name,
                       std::size_t initial_queries = 0);

  // Swaps a shard's runner for a freshly built one after a machine reboot
  // (the old runner was Stop()ped at crash time; the caller keeps it alive
  // until its executor drains). Accumulates the old runner's lifetime
  // counters into a retired total so fleet counters stay monotonic,
  // re-installs the tick observer, marks the shard live, and grants it a
  // fresh liveness grace period anchored at `now`. `initial_queries` seeds
  // the load counter with bindings the reboot re-created outside the
  // coordinator (the re-placed orphans stay wherever failover put them).
  void ReattachShardRunner(std::size_t shard, LachesisRunner& runner,
                           SimTime now, std::size_t initial_queries = 0);

  void SetFailoverConfig(const FleetFailoverConfig& config) {
    failover_ = config;
  }
  [[nodiscard]] const FleetFailoverConfig& failover_config() const {
    return failover_;
  }

  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
  [[nodiscard]] LachesisRunner& runner(std::size_t shard) {
    return *shards_.at(shard).runner;
  }
  [[nodiscard]] const RunnerTickInfo& last_tick(std::size_t shard) const {
    return shards_.at(shard).last_tick;
  }

  // --- barrier-lane aggregation ------------------------------------------------
  // All of these read shard runner state and must only be called while the
  // shards are quiescent (from a FleetSimulator barrier action, or after
  // RunUntil returned).

  // Liveness + failover step; call once per barrier BEFORE the merges. A
  // shard whose last tick is older than stale_after is marked dead: its
  // coordinator-placed queries are orphaned and, once replace_backoff has
  // elapsed, re-deployed (in handle order -- deterministic) onto the
  // least-loaded live shard via their recorded DeployFn. A shard that
  // resumes ticking is revived. With every shard live and ticking this is
  // pure bookkeeping: fault-free fleet results are unchanged.
  void NoteBarrier(SimTime now);

  [[nodiscard]] FleetTickTotals MergeTickTotals() const;

  // Sums the shards' self-metric snapshots by name. Counters add up
  // naturally; gauges (open breakers, attached queries, ...) become
  // fleet-wide totals, which is the operator-facing semantic documented in
  // docs/OPERATIONS.md. Dead shards are skipped -- their last snapshot is
  // stale by at least stale_after, and merging it would report a dark
  // machine's breakers/bindings as current fleet state (each refusal is
  // counted in stale_metric_skips()).
  [[nodiscard]] obs::SelfMetricsSnapshot MergeSelfMetrics();

  // One Chrome trace document, one process per shard (pid = shard + 1,
  // process name = the AddShard name).
  [[nodiscard]] std::string RenderChromeTrace() const;

  // --- placement ---------------------------------------------------------------
  // Deploys a query on the least-loaded LIVE shard (fewest
  // coordinator-visible queries; ties break toward the lowest shard index
  // -- deterministic). `deploy` receives the chosen shard index and its
  // runner and returns the runner binding index it created (it typically
  // builds the SPE query on that shard's machines and calls AddQuery). The
  // deploy function is retained for failover re-placement. Throws
  // FleetPlacementError(kNoLiveShards) when every machine is presumed
  // dead. Returns a handle for DetachQuery.
  using DeployFn =
      std::function<std::size_t(std::size_t shard, LachesisRunner& runner)>;
  FleetQueryHandle AttachQuery(const std::string& name, const DeployFn& deploy);

  // Detaches a coordinator-placed query: RemoveQuery on the owning runner
  // and release of its load share. The handle is resolved against the
  // coordinator's CURRENT record, so it keeps working after failover moved
  // the query. Throws FleetPlacementError(kUnknownHandle) for stale or
  // never-issued handles and FleetPlacementError(kMachineDead) -- without
  // touching the dead runner and without dropping the record -- when the
  // owning machine is presumed dead or the query awaits re-placement; the
  // caller decides between waiting for failover and AbandonQuery.
  void DetachQuery(const FleetQueryHandle& handle);

  // Drops a query's coordinator record without touching any runner: the
  // detach path for a query stranded on a dead machine (the machine is
  // gone, there is no RemoveQuery to route). Counts as a detach.
  void AbandonQuery(const FleetQueryHandle& handle);

  [[nodiscard]] std::size_t attached_queries(std::size_t shard) const {
    return shards_.at(shard).attached_queries;
  }
  [[nodiscard]] bool shard_live(std::size_t shard) const {
    return shards_.at(shard).live;
  }
  [[nodiscard]] std::size_t live_shard_count() const;
  [[nodiscard]] std::uint64_t attach_count() const { return attach_count_; }
  [[nodiscard]] std::uint64_t detach_count() const { return detach_count_; }
  [[nodiscard]] std::uint64_t shard_deaths() const { return deaths_; }
  [[nodiscard]] std::uint64_t shard_revivals() const { return revivals_; }
  [[nodiscard]] std::uint64_t queries_replaced() const { return replacements_; }
  [[nodiscard]] std::uint64_t replacements_deferred() const {
    return replacements_deferred_;
  }
  [[nodiscard]] std::uint64_t queries_abandoned() const {
    return queries_abandoned_;
  }
  [[nodiscard]] std::uint64_t stale_metric_skips() const {
    return stale_metric_skips_;
  }
  [[nodiscard]] std::uint64_t reattach_count() const { return reattach_count_; }

  // Conformance surface: verifies no query is double-placed (two records
  // sharing a (shard, binding)) and no non-orphaned record points at a
  // dead machine or a detached binding. Returns "" when all invariants
  // hold, else a description of the first violation.
  [[nodiscard]] std::string CheckPlacementInvariants() const;

 private:
  struct ShardState {
    LachesisRunner* runner = nullptr;
    std::string name;
    RunnerTickInfo last_tick;
    bool ticked = false;
    bool live = true;
    SimTime dead_since = 0;
    std::size_t attached_queries = 0;
  };

  // A coordinator-placed query: its current placement plus everything
  // needed to re-place it after the owning machine dies.
  struct HandleRecord {
    FleetQueryHandle handle;
    std::string name;
    DeployFn deploy;
    bool orphaned = false;
    SimTime orphaned_at = 0;
  };

  void InstallObserver(std::size_t index);

  std::vector<ShardState> shards_;
  std::map<std::uint64_t, HandleRecord> live_handles_;
  FleetFailoverConfig failover_;
  // Lifetime counters of runners retired by ReattachShardRunner, so fleet
  // totals stay monotonic across agent reboots.
  struct RetiredTotals {
    std::uint64_t ticks_total = 0;
    std::uint64_t schedules_applied = 0;
    DeltaStats delta;
  } retired_;
  std::uint64_t next_handle_ = 1;
  std::uint64_t attach_count_ = 0;
  std::uint64_t detach_count_ = 0;
  std::uint64_t deaths_ = 0;
  std::uint64_t revivals_ = 0;
  std::uint64_t replacements_ = 0;
  std::uint64_t replacements_deferred_ = 0;
  std::uint64_t queries_abandoned_ = 0;
  std::uint64_t stale_metric_skips_ = 0;
  std::uint64_t reattach_count_ = 0;
};

}  // namespace lachesis::core

#endif  // LACHESIS_CORE_FLEET_COORDINATOR_H_
