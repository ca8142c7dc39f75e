#include "core/fleet_coordinator.h"

#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>

#include "obs/trace_export.h"

namespace lachesis::core {

void FleetCoordinator::InstallObserver(std::size_t index) {
  // The observer writes only this shard's slot. The shard's worker thread
  // runs it mid-epoch; the coordinator reads the slot at barriers, where
  // the fleet's epoch handshake orders the accesses.
  shards_[index].runner->SetTickObserver(
      [this, index](const RunnerTickInfo& info) {
        shards_[index].last_tick = info;
        shards_[index].ticked = true;
      });
}

std::size_t FleetCoordinator::AddShard(LachesisRunner& runner,
                                       std::string name,
                                       std::size_t initial_queries) {
  const std::size_t index = shards_.size();
  ShardState state;
  state.runner = &runner;
  state.name = std::move(name);
  state.attached_queries = initial_queries;
  shards_.push_back(std::move(state));
  InstallObserver(index);
  return index;
}

void FleetCoordinator::ReattachShardRunner(std::size_t shard,
                                           LachesisRunner& runner, SimTime now,
                                           std::size_t initial_queries) {
  ShardState& s = shards_.at(shard);
  // Fold the dying incarnation's lifetime counters into the retired total
  // before the pointer swap, so MergeTickTotals stays monotonic.
  retired_.ticks_total += s.runner->ticks_total();
  retired_.schedules_applied += s.runner->schedules_applied();
  retired_.delta += s.runner->delta_totals();
  s.runner = &runner;
  // Grace period: the fresh runner has not ticked yet; anchor its liveness
  // at the reboot time so the next barrier does not immediately re-kill it.
  s.last_tick = RunnerTickInfo{};
  s.last_tick.now = now;
  s.ticked = true;
  s.live = true;
  s.dead_since = 0;
  s.attached_queries = initial_queries;
  InstallObserver(shard);
  ++reattach_count_;
}

void FleetCoordinator::NoteBarrier(SimTime now) {
  // 1. Liveness from barrier participation: the agent's tick observer is
  //    its heartbeat.
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    ShardState& s = shards_[i];
    const SimTime last_seen = s.ticked ? s.last_tick.now : 0;
    const bool fresh = last_seen + failover_.stale_after > now;
    if (s.live && !fresh) {
      s.live = false;
      s.dead_since = now;
      ++deaths_;
      // Orphan every coordinator-placed query stranded on the machine; the
      // records keep their DeployFn so failover can re-place them.
      for (auto& [id, rec] : live_handles_) {
        if (!rec.orphaned && rec.handle.shard == i) {
          rec.orphaned = true;
          rec.orphaned_at = now;
          if (s.attached_queries > 0) --s.attached_queries;
        }
      }
    } else if (!s.live && fresh) {
      s.live = true;
      s.dead_since = 0;
      ++revivals_;
    }
  }

  // 2. Re-place orphans whose backoff elapsed, in handle-id order (the map
  //    is sorted) so failover is deterministic.
  for (auto& [id, rec] : live_handles_) {
    if (!rec.orphaned || now < rec.orphaned_at + failover_.replace_backoff) {
      continue;
    }
    std::size_t best = shards_.size();
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      if (!shards_[i].live) continue;
      if (best == shards_.size() ||
          shards_[i].attached_queries < shards_[best].attached_queries) {
        best = i;
      }
    }
    if (best == shards_.size()) {
      // Nothing to place on; retry at the next barrier.
      ++replacements_deferred_;
      continue;
    }
    rec.handle.shard = best;
    rec.handle.binding = rec.deploy(best, *shards_[best].runner);
    rec.orphaned = false;
    rec.orphaned_at = 0;
    ++shards_[best].attached_queries;
    ++replacements_;
  }
}

FleetTickTotals FleetCoordinator::MergeTickTotals() const {
  FleetTickTotals totals;
  totals.ticks_total = retired_.ticks_total;
  totals.schedules_applied = retired_.schedules_applied;
  totals.delta = retired_.delta;
  for (const ShardState& s : shards_) {
    // Lifetime counters come from every shard (a dark machine's history
    // happened); the instantaneous gauges only from live ones.
    totals.ticks_total += s.runner->ticks_total();
    totals.schedules_applied += s.runner->schedules_applied();
    totals.delta += s.runner->delta_totals();
    if (s.live) ++totals.live_shards;
    if (s.ticked && s.live) {
      totals.open_breakers += s.last_tick.open_breakers;
      totals.degraded_bindings += s.last_tick.degraded_bindings;
      ++totals.shards_reporting;
    }
  }
  return totals;
}

obs::SelfMetricsSnapshot FleetCoordinator::MergeSelfMetrics() {
  // Runs on the barrier lane every scrape period; accumulate through a name
  // index so the merge is O(shards x metrics) instead of quadratic in the
  // metric count. First-seen order is preserved.
  obs::SelfMetricsSnapshot merged;
  std::unordered_map<std::string, std::size_t> index;
  for (const ShardState& s : shards_) {
    if (!s.live) {
      ++stale_metric_skips_;
      continue;
    }
    const obs::SelfMetricsSnapshot snapshot = s.runner->CollectSelfMetrics();
    for (const obs::MetricValue& m : snapshot) {
      const auto [it, inserted] = index.emplace(m.name, merged.size());
      if (inserted) {
        merged.push_back(m);
      } else {
        merged[it->second].value += m.value;
      }
    }
  }
  return merged;
}

std::string FleetCoordinator::RenderChromeTrace() const {
  std::vector<const obs::Recorder*> recorders;
  std::vector<std::string> names;
  recorders.reserve(shards_.size());
  names.reserve(shards_.size());
  for (const ShardState& s : shards_) {
    recorders.push_back(&s.runner->recorder());
    names.push_back(s.name);
  }
  return obs::RenderFleetChromeTrace(recorders, names,
                                     LachesisRunner::OpClassNameForObs);
}

std::size_t FleetCoordinator::live_shard_count() const {
  std::size_t live = 0;
  for (const ShardState& s : shards_) {
    if (s.live) ++live;
  }
  return live;
}

FleetQueryHandle FleetCoordinator::AttachQuery(const std::string& name,
                                               const DeployFn& deploy) {
  if (shards_.empty()) {
    throw std::logic_error("FleetCoordinator::AttachQuery: no shards");
  }
  std::size_t best = shards_.size();
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    if (!shards_[i].live) continue;
    if (best == shards_.size() ||
        shards_[i].attached_queries < shards_[best].attached_queries) {
      best = i;
    }
  }
  if (best == shards_.size()) {
    throw FleetPlacementError(
        FleetErrorCode::kNoLiveShards,
        "FleetCoordinator::AttachQuery(" + name +
            "): every machine is presumed dead");
  }
  const std::size_t binding = deploy(best, *shards_[best].runner);
  ++shards_[best].attached_queries;
  ++attach_count_;
  HandleRecord record;
  record.handle = FleetQueryHandle{next_handle_++, best, binding};
  record.name = name;
  record.deploy = deploy;  // retained for failover re-placement
  const FleetQueryHandle handle = record.handle;
  live_handles_.emplace(handle.id, std::move(record));
  return handle;
}

void FleetCoordinator::DetachQuery(const FleetQueryHandle& handle) {
  auto it = live_handles_.find(handle.id);
  if (it == live_handles_.end()) {
    throw FleetPlacementError(
        FleetErrorCode::kUnknownHandle,
        "FleetCoordinator::DetachQuery: unknown handle " +
            std::to_string(handle.id));
  }
  // Resolve against the coordinator's record, not the caller's copy:
  // failover may have moved the query since the handle was issued.
  const HandleRecord& rec = it->second;
  if (rec.orphaned || !shards_.at(rec.handle.shard).live) {
    // The owning machine is dark (or the query awaits re-placement): there
    // is no runner to route RemoveQuery to. Keep the record -- the caller
    // chooses between waiting for failover and AbandonQuery.
    throw FleetPlacementError(
        FleetErrorCode::kMachineDead,
        "FleetCoordinator::DetachQuery(" + rec.name + "): machine " +
            std::to_string(rec.handle.shard) + " is presumed dead");
  }
  const FleetQueryHandle live = rec.handle;
  live_handles_.erase(it);
  shards_.at(live.shard).runner->RemoveQuery(live.binding);
  if (shards_[live.shard].attached_queries > 0) {
    --shards_[live.shard].attached_queries;
  }
  ++detach_count_;
}

void FleetCoordinator::AbandonQuery(const FleetQueryHandle& handle) {
  auto it = live_handles_.find(handle.id);
  if (it == live_handles_.end()) {
    throw FleetPlacementError(
        FleetErrorCode::kUnknownHandle,
        "FleetCoordinator::AbandonQuery: unknown handle " +
            std::to_string(handle.id));
  }
  const HandleRecord& rec = it->second;
  if (!rec.orphaned) {
    ShardState& s = shards_.at(rec.handle.shard);
    if (s.attached_queries > 0) --s.attached_queries;
  }
  live_handles_.erase(it);
  ++queries_abandoned_;
  ++detach_count_;
}

std::string FleetCoordinator::CheckPlacementInvariants() const {
  std::map<std::pair<std::size_t, std::size_t>, std::uint64_t> placed;
  for (const auto& [id, rec] : live_handles_) {
    if (rec.orphaned) continue;  // awaiting re-placement: not placed anywhere
    const std::size_t shard = rec.handle.shard;
    if (shard >= shards_.size()) {
      return "handle " + std::to_string(id) + " points at missing shard " +
             std::to_string(shard);
    }
    if (!shards_[shard].live) {
      return "query '" + rec.name + "' (handle " + std::to_string(id) +
             ") placed on dead machine " + std::to_string(shard);
    }
    if (!shards_[shard].runner->query_attached(rec.handle.binding)) {
      return "query '" + rec.name + "' (handle " + std::to_string(id) +
             ") points at detached binding " +
             std::to_string(rec.handle.binding) + " on shard " +
             std::to_string(shard);
    }
    const auto key = std::make_pair(shard, rec.handle.binding);
    const auto [it, inserted] = placed.emplace(key, id);
    if (!inserted) {
      return "double placement: handles " + std::to_string(it->second) +
             " and " + std::to_string(id) + " both hold shard " +
             std::to_string(shard) + " binding " +
             std::to_string(rec.handle.binding);
    }
  }
  return "";
}

}  // namespace lachesis::core
