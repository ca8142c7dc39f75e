// SpeDriver for a real, unmodified engine process on this host.
//
// Mirrors what the paper's drivers do against Storm/Flink/Liebre:
//  - the ENTITY GRAPH comes from public OS surfaces: the engine's threads
//    are enumerated via /proc and matched to operators by thread-name
//    patterns (engines name their executor threads after components);
//  - RAW METRICS come from the metric store the engine already reports to.
//    Here that is a Graphite-plaintext file ("<series> <value> <timestamp>"
//    lines, the graphite line protocol) that a scraper/exporter appends to;
//    Refresh() tails it into an in-memory TimeSeriesStore.
//
// The driver is configured with a NativeSpeConfig describing the queries:
// logical topology, per-operator thread-name patterns and metric series
// names. Nothing about the engine is modified (goal G2).
#ifndef LACHESIS_OSCTL_NATIVE_DRIVER_H_
#define LACHESIS_OSCTL_NATIVE_DRIVER_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/driver.h"
#include "tsdb/tsdb.h"

namespace lachesis::osctl {

struct NativeOperatorConfig {
  std::string name;            // logical operator name
  std::string thread_pattern;  // substring matched against /proc comm values
  // Series prefix in the metric file; "<prefix>.<metric>" is looked up with
  // the MetricName() suffixes (queue_size, tuples_in_delta, ...).
  std::string series_prefix;
  bool is_ingress = false;
  bool is_egress = false;
};

struct NativeQueryConfig {
  std::string name;
  long pid = -1;  // engine process
  std::vector<NativeOperatorConfig> operators;
  std::vector<std::pair<int, int>> edges;  // logical DAG
};

struct NativeSpeConfig {
  std::string name = "native";
  std::string proc_root = "/proc";
  std::string metrics_file;  // graphite line-protocol file
  // Metrics the engine's exporter actually publishes (drives Provides()).
  std::set<core::MetricId> provided;
  std::vector<NativeQueryConfig> queries;
};

class NativeSpeDriver final : public core::SpeDriver {
 public:
  explicit NativeSpeDriver(NativeSpeConfig config);

  // Re-scans /proc and ingests new lines of the metrics file. Call once per
  // scheduling period; the runner does this automatically through Poll().
  void Refresh(SimTime now);

  // SpeDriver refresh hook: the control loop polls the live engine at the
  // start of every period this driver participates in.
  void Poll(SimTime now) override { Refresh(now); }

  [[nodiscard]] const std::string& name() const override { return name_; }
  std::vector<core::EntityInfo> Entities() override;
  // Moves when a Refresh resolves an operator to a different tid.
  [[nodiscard]] std::uint64_t EntitiesGeneration() const override;
  const core::LogicalTopology& Topology(QueryId query) override;
  [[nodiscard]] bool Provides(core::MetricId metric) const override;
  double Fetch(core::MetricId metric, const core::EntityInfo& entity) override;

  [[nodiscard]] const tsdb::TimeSeriesStore& store() const { return store_; }

 private:
  // The handle of "<entity path>.<MetricName(named)>", cached per entity
  // once the series exists.
  tsdb::SeriesId Series(const core::EntityInfo& entity, core::MetricId named);

  NativeSpeConfig config_;
  std::string name_;
  std::vector<core::LogicalTopology> topologies_;
  tsdb::TimeSeriesStore store_;
  tsdb::SeriesHandles series_{core::kMetricCount};  // by entity id x metric
  std::streamoff metrics_offset_ = 0;
  // (query idx, operator idx) -> resolved tid (-1 while unresolved).
  std::map<std::pair<std::size_t, std::size_t>, long> tids_;
  // 0 until first reported, and again after a tid changed.
  mutable std::uint64_t generation_ = 0;
};

}  // namespace lachesis::osctl

#endif  // LACHESIS_OSCTL_NATIVE_DRIVER_H_
