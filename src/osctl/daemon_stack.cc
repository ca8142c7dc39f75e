#include "osctl/daemon_stack.h"

#include <unistd.h>

#include <limits>
#include <utility>

#include "core/policies.h"
#include "core/translators.h"
#include "osctl/native_runtime_driver.h"
#include "spe/native_runtime.h"
#include "tsdb/tsdb.h"

namespace lachesis::osctl {

namespace {

// A [native-query] section describes a linear chain; first operator is the
// ingress, last the egress.
spe::LogicalQuery BuildNativeChain(const NativeChainConfig& chain) {
  spe::LogicalQuery query;
  query.name = chain.name;
  int prev = -1;
  for (std::size_t i = 0; i < chain.operators.size(); ++i) {
    const NativeChainOp& opc = chain.operators[i];
    spe::LogicalOperator op;
    op.name = opc.name;
    op.role = i == 0 ? spe::OperatorRole::kIngress
              : i + 1 == chain.operators.size() ? spe::OperatorRole::kEgress
                                                : spe::OperatorRole::kTransform;
    op.cost = Micros(opc.cost_us);
    const int index = query.Add(std::move(op));
    if (prev >= 0) query.Connect(prev, index);
    prev = index;
  }
  return query;
}

// lachesisd's one binding: the configured policy, with critical_queries
// tagging those queries' operators latency-critical so deadline/RT
// translators give them hard guarantees; the configured translator, with
// big-core placement hints when a big.LITTLE topology is configured; and
// the translator's degradation ladder when degradation is on.
core::PolicyBinding BuildBinding(const DaemonConfig& config) {
  core::PolicyBinding binding;
  binding.policy = MakePolicy(config.policy);
  if (!config.critical_queries.empty()) {
    binding.policy = std::make_unique<core::CriticalChainPolicy>(
        std::move(binding.policy), config.critical_queries);
  }
  binding.translator = MakeTranslator(config.translator, config);
  if (!config.big_cores.empty()) {
    binding.translator = std::make_unique<core::CapacityHintTranslator>(
        std::move(binding.translator));
  }
  if (config.degradation) {
    binding.fallback_translators =
        MakeFallbackTranslators(config.translator, config);
  }
  binding.period = Millis(config.period_ms);
  return binding;
}

}  // namespace

DaemonStack::DaemonStack(const DaemonConfig& config, core::OsAdapter* os)
    : period_(Millis(config.period_ms)),
      cgroups_(config.cgroup_root, CgroupController::DetectVersion()),
      linux_os_(nice_, cgroups_, &rt_, &deadline_, &affinity_),
      runner_(executor_, os != nullptr ? *os : linux_os_,
              static_cast<std::uint64_t>(::getpid())) {
  linux_os_.SetCoreClasses(config.big_cores, config.little_cores);
  core::PolicyBinding binding = BuildBinding(config);
  // External engine processes ([query ...] sections): /proc + graphite.
  if (!config.spe.queries.empty()) {
    file_driver_ = std::make_unique<NativeSpeDriver>(config.spe);
    binding.drivers.push_back(file_driver_.get());
  }
  // In-process native executor ([native-query ...] sections): the daemon
  // itself serves traffic, and the control plane schedules its threads.
  if (!config.native_queries.empty()) {
    spe::NativeRuntimeOptions options;
    options.name = "native-exec";
    options.pin_cpus = config.native_pin_cores;
    runtime_ = std::make_unique<spe::NativeRuntime>(options);
    for (const NativeChainConfig& chain : config.native_queries) {
      spe::NativeDeployOptions deploy;
      deploy.source_rate_tps = chain.rate_tps;
      deploy.queue_capacity = static_cast<std::size_t>(chain.queue_capacity);
      deploy.source_channel_capacity =
          static_cast<std::size_t>(chain.source_channel);
      runtime_->AddQuery(BuildNativeChain(chain), deploy);
    }
    runtime_started_ = executor_.Now();
    runtime_->Start();
    exec_driver_ = std::make_unique<NativeRuntimeDriver>(*runtime_);
    binding.drivers.push_back(exec_driver_.get());
  }

  core::HealthConfig health;
  health.enabled = true;
  health.backoff_base = Millis(config.backoff_base_ms);
  health.backoff_cap = Millis(config.backoff_cap_ms);
  health.breaker_threshold = static_cast<int>(config.breaker_threshold);
  health.probe_interval = Millis(config.breaker_probe_ms);
  health.seed = static_cast<std::uint64_t>(::getpid());
  runner_.SetHealthConfig(health);
  runner_.recorder().SetRingCapacity(
      static_cast<std::size_t>(config.obs_ring_capacity));
  runner_.recorder().set_verbose(config.obs_verbose);
  runner_.AddQuery(std::move(binding));
}

DaemonStack::~DaemonStack() = default;

std::size_t DaemonStack::Reconcile() {
  if (file_driver_ != nullptr) file_driver_->Poll(executor_.Now());
  if (exec_driver_ != nullptr) exec_driver_->Poll(executor_.Now());
  return runner_.ReconcileWithBackend();
}

void DaemonStack::Run(long periods) {
  const SimTime now = executor_.Now();
  const SimTime slack = period_ / 2;
  constexpr SimTime kForever = std::numeric_limits<SimTime>::max();
  const SimTime until =
      periods < 0 || periods > (kForever - now - slack) / period_
          ? kForever
          : now + periods * period_ + slack;
  runner_.Start(until);
  executor_.Run(until);
}

void DaemonStack::Stop() {
  if (runtime_ != nullptr) runtime_->Stop(/*drain=*/false);
}

std::vector<NativeQueryTotals> DaemonStack::NativeTotals() {
  std::vector<NativeQueryTotals> totals;
  if (runtime_ == nullptr) return totals;
  for (std::size_t q = 0; q < runtime_->query_count(); ++q) {
    totals.push_back({runtime_->query_name(q), runtime_->SourceEmitted(q),
                      runtime_->TotalIngested(q), runtime_->TotalEmitted(q),
                      0});
  }
  for (const core::EntityInfo& e : exec_driver_->Entities()) {
    if (!e.is_ingress) continue;
    const auto latest = exec_driver_->store().Latest(
        tsdb::SeriesName(e.path, spe::RawMetric::kTuplesIn));
    if (!latest || latest->time <= runtime_started_) continue;
    totals[e.query.value()].scraped_tps +=
        latest->value / ToSeconds(latest->time - runtime_started_);
  }
  return totals;
}

}  // namespace lachesis::osctl
