#include "exp/scenario.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "common/stats.h"
#include "core/os_adapter.h"
#include "core/sim_driver.h"
#include "core/sim_executor.h"
#include "sim/simulator.h"
#include "spe/source.h"
#include "tsdb/scraper.h"

namespace lachesis::exp {

core::PolicyBinding MakeBinding(
    const SchedulerSpec& spec, std::vector<core::SpeDriver*> drivers,
    std::function<bool(const core::EntityInfo&)> filter) {
  core::PolicyBinding binding;
  binding.policy = [&]() -> std::unique_ptr<core::SchedulingPolicy> {
    switch (spec.policy) {
      case PolicyKind::kQueueSize:
        return std::make_unique<core::QueueSizePolicy>();
      case PolicyKind::kHighestRate:
        return std::make_unique<core::HighestRatePolicy>();
      case PolicyKind::kFcfs:
        return std::make_unique<core::FcfsPolicy>();
      case PolicyKind::kRandom:
        return std::make_unique<core::RandomPolicy>();
      case PolicyKind::kMinMemory:
        return std::make_unique<core::MinMemoryPolicy>();
      case PolicyKind::kPressureStall:
        return std::make_unique<core::PressureStallPolicy>();
    }
    throw std::invalid_argument("unknown policy kind");
  }();
  // Operators of the named queries come out tagged latency-critical
  // (reservation targets for deadline/RT translators).
  if (!spec.critical_queries.empty()) {
    binding.policy = std::make_unique<core::CriticalChainPolicy>(
        std::move(binding.policy), spec.critical_queries);
  }
  binding.translator = [&]() -> std::unique_ptr<core::Translator> {
    switch (spec.translator) {
      case TranslatorKind::kNice:
        return std::make_unique<core::NiceTranslator>();
      case TranslatorKind::kCpuShares:
        return std::make_unique<core::CpuSharesTranslator>();
      case TranslatorKind::kQuerySharesNice:
        return std::make_unique<core::QuerySharesPlusNiceTranslator>();
      case TranslatorKind::kQuota:
        return std::make_unique<core::QuotaTranslator>();
      case TranslatorKind::kRtNice:
        return std::make_unique<core::RtBoostTranslator>();
      case TranslatorKind::kDeadline:
        return std::make_unique<core::DeadlineTranslator>(spec.dl_runtime,
                                                          spec.dl_period);
    }
    throw std::invalid_argument("unknown translator kind");
  }();
  binding.period = spec.period;
  binding.drivers = std::move(drivers);
  binding.filter = std::move(filter);
  return binding;
}

namespace {

ulss::UlssPolicy ToUlssPolicy(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kQueueSize:
      return ulss::UlssPolicy::kQueueSize;
    case PolicyKind::kFcfs:
      return ulss::UlssPolicy::kFcfs;
    case PolicyKind::kHighestRate:
      return ulss::UlssPolicy::kHighestRate;
    default:
      throw std::invalid_argument("UL-SS supports QS/FCFS/HR only");
  }
}

}  // namespace

RunResult RunScenario(const ScenarioSpec& spec) {
  sim::Simulator sim;
  // Typical steady-state pending-event count is small (one core event per
  // core, one emission per source, timers); 4096 hot slots cover every
  // scenario in the suite with one up-front allocation.
  sim.ReserveEvents(/*hot_events=*/4096, /*cold_events=*/256);
  const SimTime end = spec.warmup + spec.measure;

  // --- machines ----------------------------------------------------------------
  std::vector<std::unique_ptr<sim::Machine>> machine_storage;
  std::vector<sim::Machine*> machines;
  sim::CfsParams machine_params;
  machine_params.core_capacities = spec.core_capacities;
  machine_params.capacity_aware = spec.capacity_aware;
  for (int n = 0; n < spec.nodes; ++n) {
    machine_storage.push_back(std::make_unique<sim::Machine>(
        sim, spec.cores, machine_params, "node" + std::to_string(n)));
    machines.push_back(machine_storage.back().get());
  }

  // --- SPE instances (one per distinct flavor, Fig 18) ---------------------------
  std::vector<std::unique_ptr<spe::SpeInstance>> instance_storage;
  std::map<std::string, spe::SpeInstance*> instances;
  const auto instance_for = [&](const WorkloadSpec& w) {
    const spe::SpeFlavor& flavor =
        w.flavor_override ? *w.flavor_override : spec.flavor;
    auto it = instances.find(flavor.name);
    if (it == instances.end()) {
      instance_storage.push_back(
          std::make_unique<spe::SpeInstance>(flavor, machines, flavor.name));
      it = instances.emplace(flavor.name, instance_storage.back().get()).first;
    }
    return it->second;
  };

  // --- deploy workloads + data sources ------------------------------------------
  const bool ulss_mode = spec.scheduler.kind == SchedulerKind::kEdgeWise ||
                         spec.scheduler.kind == SchedulerKind::kHaren;
  if (ulss_mode && spec.nodes != 1) {
    throw std::invalid_argument("UL-SS baselines are single-node");
  }

  struct DeployedWorkload {
    spe::DeployedQuery* query;
    spe::SpeInstance* instance;
    spe::ExternalSource* external = nullptr;
    spe::OnDeviceSourceBody* on_device = nullptr;
    std::uint64_t ingested_base = 0;
  };
  std::vector<DeployedWorkload> deployed;
  std::vector<std::unique_ptr<spe::ExternalSource>> source_storage;

  for (std::size_t i = 0; i < spec.workloads.size(); ++i) {
    const WorkloadSpec& w = spec.workloads[i];
    spe::SpeInstance* instance = instance_for(w);
    spe::DeployOptions options;
    options.parallelism = w.parallelism;
    options.chaining = spec.chaining;
    options.create_threads = !ulss_mode;
    options.seed = spec.seed * 7919 + i * 131;
    spe::DeployedQuery& dq = instance->Deploy(w.workload.query, options);

    DeployedWorkload d;
    d.query = &dq;
    d.instance = instance;
    const std::uint64_t source_seed = spec.seed * 104729 + i * 17;
    if (w.workload.source_cost > 0) {
      // EdgeWise-style on-device generator thread (§6.1).
      auto body = std::make_unique<spe::OnDeviceSourceBody>(
          dq.source_channels(), w.workload.generator, w.rate_tps,
          w.workload.source_cost, end, source_seed);
      d.on_device = body.get();
      machines[0]->CreateThread(dq.name + ".source", std::move(body),
                                machines[0]->root_cgroup());
    } else {
      source_storage.push_back(std::make_unique<spe::ExternalSource>(
          sim, dq.source_channels(), w.workload.generator, source_seed));
      d.external = source_storage.back().get();
      d.external->Start(w.rate_tps, end);
    }
    deployed.push_back(d);
  }

  // --- metric reporting pipeline -------------------------------------------------
  // The drivers' counter deltas span one scheduling period.
  tsdb::TimeSeriesStore store(
      std::max(spec.scheduler.period, tsdb::kDeltaWindow));
  tsdb::Scraper scraper(sim, store, spec.scrape_period);
  for (auto& [name, instance] : instances) scraper.AddInstance(*instance);
  scraper.Start(end);

  // --- scheduler -------------------------------------------------------------------
  core::SimOsAdapter os;
  core::SimControlExecutor executor(sim);
  std::unique_ptr<core::LachesisRunner> runner;
  std::vector<std::unique_ptr<core::SimSpeDriver>> drivers;
  std::unique_ptr<ulss::UlssScheduler> ulss_scheduler;

  switch (spec.scheduler.kind) {
    case SchedulerKind::kOsDefault:
      break;
    case SchedulerKind::kLachesis: {
      runner = std::make_unique<core::LachesisRunner>(executor, os, spec.seed + 3);
      std::vector<core::SpeDriver*> driver_ptrs;
      for (auto& [name, instance] : instances) {
        drivers.push_back(std::make_unique<core::SimSpeDriver>(
            *instance, store, spec.scheduler.period));
        driver_ptrs.push_back(drivers.back().get());
      }
      if (spec.nodes == 1) {
        runner->AddQuery(MakeBinding(spec.scheduler, driver_ptrs));
      } else {
        // Scale-out (§6.5): independent Lachesis instances per node, each
        // scheduling only the local operators (no global knowledge).
        for (int n = 0; n < spec.nodes; ++n) {
          sim::Machine* node = machines[static_cast<std::size_t>(n)];
          runner->AddQuery(MakeBinding(
              spec.scheduler, driver_ptrs, [node](const core::EntityInfo& e) {
                return e.thread.machine == node;
              }));
        }
      }
      runner->Start(end);
      break;
    }
    case SchedulerKind::kEdgeWise:
    case SchedulerKind::kHaren: {
      ulss::UlssConfig config;
      config.flavor = spec.scheduler.kind == SchedulerKind::kEdgeWise
                          ? ulss::UlssFlavor::kEdgeWise
                          : ulss::UlssFlavor::kHaren;
      config.policy = ToUlssPolicy(spec.scheduler.policy);
      config.num_workers = spec.scheduler.ulss_workers > 0
                               ? spec.scheduler.ulss_workers
                               : spec.cores;
      config.refresh_period = spec.scheduler.period;
      ulss_scheduler =
          std::make_unique<ulss::UlssScheduler>(*machines[0], config);
      for (DeployedWorkload& d : deployed) ulss_scheduler->AddQuery(*d.query);
      ulss_scheduler->Start(end);
      break;
    }
  }

  // --- warmup ------------------------------------------------------------------------
  sim.RunUntil(spec.warmup);
  for (DeployedWorkload& d : deployed) {
    d.query->ResetMeasurements();
    d.ingested_base = d.query->TotalIngested();
  }
  std::vector<SimDuration> busy_base;
  busy_base.reserve(machines.size());
  for (sim::Machine* m : machines) busy_base.push_back(m->total_busy_time());
  std::vector<std::uint64_t> emitted_base;
  for (DeployedWorkload& d : deployed) {
    emitted_base.push_back(d.external ? d.external->emitted()
                                      : d.on_device->emitted());
  }
  // Per-node ingress counts at the warmup boundary (Fig 17 reports per-node
  // throughput alongside the aggregate).
  const auto node_ingested = [&] {
    std::vector<std::uint64_t> counts(static_cast<std::size_t>(spec.nodes), 0);
    for (const DeployedWorkload& d : deployed) {
      for (const spe::DeployedOp& op : d.query->ops) {
        if (op.op->config().role != spe::OperatorRole::kIngress) continue;
        counts[static_cast<std::size_t>(op.machine_index)] +=
            op.op->tuples_in();
      }
    }
    return counts;
  };
  const std::vector<std::uint64_t> node_ingested_base = node_ingested();

  // --- goal sampling (1 Hz, §6.1 "values of the goal") --------------------------------
  RunningStat qs_goal;       // variance of queue sizes per sample instant
  RunningStat fcfs_goal_ms;  // max head-of-line age per sample instant
  std::vector<double> queue_samples;
  for (SimTime t = spec.warmup + Seconds(1); t <= end; t += Seconds(1)) {
    sim.ScheduleAt(t, [&deployed, &qs_goal, &fcfs_goal_ms, &queue_samples, &sim] {
      std::vector<double> sizes;
      double max_age_ms = 0;
      for (const DeployedWorkload& d : deployed) {
        for (const spe::DeployedOp& op : d.query->ops) {
          if (op.op->config().role == spe::OperatorRole::kIngress) continue;
          sizes.push_back(static_cast<double>(op.op->input().size()));
          max_age_ms = std::max(
              max_age_ms, ToMillis(op.op->input().HeadAge(sim.now())));
        }
      }
      if (!sizes.empty()) {
        qs_goal.Add(PopulationVariance(sizes));
        queue_samples.insert(queue_samples.end(), sizes.begin(), sizes.end());
      }
      fcfs_goal_ms.Add(max_age_ms);
    });
  }

  // --- measurement -------------------------------------------------------------------
  sim.RunUntil(end);

  RunResult result;
  const double measure_s = ToSeconds(spec.measure);
  RunningStat all_latency;
  RunningStat all_e2e;
  for (std::size_t i = 0; i < deployed.size(); ++i) {
    DeployedWorkload& d = deployed[i];
    QueryResult qr;
    qr.throughput_tps =
        static_cast<double>(d.query->TotalIngested() - d.ingested_base) /
        measure_s;
    const std::uint64_t emitted =
        (d.external ? d.external->emitted() : d.on_device->emitted()) -
        emitted_base[i];
    qr.offered_tps = static_cast<double>(emitted) / measure_s;
    RunningStat latency;
    RunningStat e2e;
    for (spe::EgressMeasurements* egress : d.query->Egresses()) {
      latency.Merge(egress->latency);
      e2e.Merge(egress->e2e_latency);
      result.latency_histogram_ns.Merge(egress->latency_histogram);
      for (const double v : egress->latency_samples) {
        qr.latency_samples_ms.push_back(v / 1e6);
      }
    }
    qr.avg_latency_ms = latency.mean() / 1e6;
    qr.avg_e2e_latency_ms = e2e.mean() / 1e6;
    all_latency.Merge(latency);
    all_e2e.Merge(e2e);
    result.latency_samples_ms.insert(result.latency_samples_ms.end(),
                                     qr.latency_samples_ms.begin(),
                                     qr.latency_samples_ms.end());
    result.throughput_tps += qr.throughput_tps;
    result.per_query[d.query->name] = std::move(qr);
  }
  result.avg_latency_ms = all_latency.mean() / 1e6;
  result.avg_e2e_latency_ms = all_e2e.mean() / 1e6;
  {
    const std::vector<std::uint64_t> node_totals = node_ingested();
    result.per_node_throughput_tps.resize(node_totals.size());
    for (std::size_t n = 0; n < node_totals.size(); ++n) {
      result.per_node_throughput_tps[n] =
          static_cast<double>(node_totals[n] - node_ingested_base[n]) /
          measure_s;
    }
  }
  result.qs_goal = qs_goal.mean();
  result.fcfs_goal_ms = fcfs_goal_ms.mean();
  result.queue_size_samples = std::move(queue_samples);

  SimDuration busy = 0;
  for (std::size_t m = 0; m < machines.size(); ++m) {
    busy += machines[m]->total_busy_time() - busy_base[m];
  }
  result.cpu_utilization =
      static_cast<double>(busy) /
      (static_cast<double>(spec.nodes) * spec.cores * static_cast<double>(spec.measure));
  if (runner) {
    result.lachesis_schedules = runner->schedules_applied();
    result.lachesis_ops_applied = runner->delta_totals().applied;
    result.lachesis_ops_skipped = runner->delta_totals().skipped;
    result.lachesis_ops_errors = runner->delta_totals().errors;
  }
  return result;
}

std::vector<RunResult> RunRepetitions(const ScenarioSpec& spec,
                                      int repetitions) {
  std::vector<RunResult> results;
  results.reserve(static_cast<std::size_t>(repetitions));
  for (int r = 0; r < repetitions; ++r) {
    ScenarioSpec rep = spec;
    rep.seed = spec.seed + static_cast<std::uint64_t>(r) * 1000003;
    results.push_back(RunScenario(rep));
  }
  return results;
}

}  // namespace lachesis::exp
