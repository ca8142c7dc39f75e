// SpeDriver for the in-process native SPE executor (spe/native_runtime.h).
//
// Where NativeSpeDriver bridges an *external* engine process (thread
// discovery via /proc, metrics via a graphite file), this driver hosts the
// executor in-process: Poll() live-scrapes the runtime's raw-metric
// registry (NativeRuntime::ForEachRawMetric) into an owned TimeSeriesStore
// -- the same reporting pipeline shape as the sim's tsdb::Scraper, read
// through the same raw-metric table (core/registry_driver.h) -- and
// Entities() hands the control plane ThreadHandles carrying the real
// kernel tids of the operator threads. The runner/policies/translators are
// untouched: they see one more SpeDriver whose nice/cgroup decisions a
// LinuxOsAdapter applies to live threads.
#ifndef LACHESIS_OSCTL_NATIVE_RUNTIME_DRIVER_H_
#define LACHESIS_OSCTL_NATIVE_RUNTIME_DRIVER_H_

#include <map>
#include <string>
#include <vector>

#include "core/driver.h"
#include "core/registry_driver.h"
#include "spe/native_runtime.h"
#include "tsdb/tsdb.h"

namespace lachesis::osctl {

class NativeRuntimeDriver final : public core::SpeDriver {
 public:
  // The owned store keeps `delta_window` (> 0, else std::invalid_argument)
  // of history per series: what the counter deltas span.
  explicit NativeRuntimeDriver(spe::NativeRuntime& runtime,
                               SimDuration delta_window = tsdb::kDeltaWindow);

  [[nodiscard]] const std::string& name() const override { return name_; }

  // Scrapes every operator's raw metrics into the store at `now`. The
  // control loop calls this at the start of every period, so Lachesis'
  // view is as stale as the scheduling period -- matching the paper's
  // scrape-resolution staleness (§6.1).
  void Poll(SimTime now) override;

  std::vector<core::EntityInfo> Entities() override;
  // Moves when the runtime deploys an operator or an operator thread
  // registers a different tid.
  [[nodiscard]] std::uint64_t EntitiesGeneration() const override;
  const core::LogicalTopology& Topology(QueryId query) override;
  [[nodiscard]] bool Provides(core::MetricId metric) const override;
  double Fetch(core::MetricId metric, const core::EntityInfo& entity) override;

  [[nodiscard]] const tsdb::TimeSeriesStore& store() const { return store_; }

 private:
  // Series prefix for one operator: "<query>.<op>" (names are only unique
  // per query).
  [[nodiscard]] static std::string SeriesPrefix(
      const spe::NativeRuntime& runtime, const spe::NativeOperator& op);

  spe::NativeRuntime* runtime_;
  std::string name_;
  core::RawMetricReader reader_;
  tsdb::TimeSeriesStore store_;
  // Poll's handles, by position in runtime_->ops() x raw metric.
  tsdb::SeriesHandles polled_{spe::kRawMetricCount};
  std::map<QueryId, core::LogicalTopology> topologies_;
  // The generation and the operator tids it was taken at; taken on first
  // use, not at construction.
  mutable std::uint64_t generation_ = 0;
  mutable std::vector<long> generation_tids_;
};

}  // namespace lachesis::osctl

#endif  // LACHESIS_OSCTL_NATIVE_RUNTIME_DRIVER_H_
