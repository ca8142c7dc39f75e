// SpeDriver for a real, unmodified engine process on this host.
//
// Mirrors what the paper's drivers do against Storm/Flink/Liebre:
//  - the ENTITY GRAPH comes from public OS surfaces: the engine's threads
//    are enumerated via /proc and matched to operators by thread-name
//    patterns (engines name their executor threads after components);
//  - RAW METRICS come from the metric store the engine already reports to.
//    Here that is a Graphite-plaintext file ("<series> <value> <timestamp>"
//    lines, the graphite line protocol) that a scraper/exporter appends to;
//    Refresh() tails it into an in-memory TimeSeriesStore, read through the
//    raw-metric table the other drivers use (core/registry_driver.h), so a
//    series means the same in the file as in their stores.
//
// The driver is configured with a NativeSpeConfig describing the queries:
// logical topology, per-operator thread-name patterns and series prefixes,
// and the raw metrics the exporter publishes. Nothing about the engine is
// modified (goal G2).
#ifndef LACHESIS_OSCTL_NATIVE_DRIVER_H_
#define LACHESIS_OSCTL_NATIVE_DRIVER_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/driver.h"
#include "core/registry_driver.h"
#include "spe/flavor.h"
#include "tsdb/tsdb.h"

namespace lachesis::osctl {

struct NativeOperatorConfig {
  std::string name;            // logical operator name
  // Names the operator's thread by its /proc comm: osctl::ResolveThreadByName
  // (an exact match, else the lowest tid containing it). At most 15 bytes.
  std::string thread_pattern;
  // Series prefix in the metrics file: raw metric r is read from
  // tsdb::SeriesName(prefix, r), "<prefix>.<RawMetricName(r)>".
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
  // Raw metrics the engine's exporter publishes, one set for the file;
  // resolved through the raw-metric table into Provides().
  std::set<spe::RawMetric> provided;
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
  [[nodiscard]] bool Provides(core::MetricId metric) const override {
    return reader_.Provides(metric);
  }
  double Fetch(core::MetricId metric, const core::EntityInfo& entity) override {
    return reader_.Read(store_, metric, entity);
  }

  [[nodiscard]] const tsdb::TimeSeriesStore& store() const { return store_; }

 private:
  NativeSpeConfig config_;
  std::string name_;
  std::vector<core::LogicalTopology> topologies_;
  core::RawMetricReader reader_;
  tsdb::TimeSeriesStore store_;
  std::streamoff metrics_offset_ = 0;
  // (query idx, operator idx) -> resolved tid (-1 while unresolved).
  std::map<std::pair<std::size_t, std::size_t>, long> tids_;
  // 0 until first reported, and again after a tid changed.
  mutable std::uint64_t generation_ = 0;
};

}  // namespace lachesis::osctl

#endif  // LACHESIS_OSCTL_NATIVE_DRIVER_H_
