// Periodic metric scraper: SPE -> time-series store.
//
// Models the reporting pipeline of §6.1: each SPE pushes its public metrics
// to Graphite at a fixed resolution (1 s in the paper). Because Lachesis
// reads the store rather than the engines, its view of the system is up to
// one scrape period stale -- the key information disadvantage vs. UL-SS like
// Haren, examined in Fig 15.
#ifndef LACHESIS_TSDB_SCRAPER_H_
#define LACHESIS_TSDB_SCRAPER_H_

#include <string>
#include <vector>

#include "common/sim_time.h"
#include "sim/simulator.h"
#include "spe/flavor.h"
#include "spe/runtime.h"
#include "tsdb/tsdb.h"

namespace lachesis::tsdb {

class Scraper {
 public:
  Scraper(sim::Simulator& sim, TimeSeriesStore& store, SimDuration period)
      : sim_(&sim), store_(&store), period_(period) {}

  // Registers an instance. A non-negative `machine_index` restricts the
  // scrape to operators placed on that machine: fleet shards each run their
  // own Scraper on their own simulator and must not read operator state the
  // worker of another shard is mutating mid-epoch.
  void AddInstance(spe::SpeInstance& instance, int machine_index = -1) {
    instances_.push_back(Target{&instance, machine_index});
  }

  // Scrapes every `period` until `until`.
  void Start(SimTime until) {
    until_ = until;
    ScheduleNext(sim_->now() + period_);
  }

  // Appends every exposed raw metric of every instance at the current
  // time. A series is interned the first time its operator is scraped, so
  // queries deployed after AddInstance are picked up.
  void ScrapeOnce() {
    for (Target& target : instances_) {
      // Two pointers of capture fit std::function's small buffer: the
      // callback does not allocate per scrape.
      target.instance->ForEachRawMetric(
          [this, &target](const spe::DeployedQuery&, const spe::DeployedOp& op,
                          spe::RawMetric metric, double value) {
            const SeriesId series = target.series.Get(
                op.id.value(), static_cast<std::size_t>(metric), [&] {
                  return store_->Intern(
                      SeriesName(op.op->config().name, metric));
                });
            store_->Append(series, sim_->now(), value);
          },
          target.machine_index);
    }
  }

 private:
  void ScheduleNext(SimTime when) {
    if (when > until_) return;
    sim_->ScheduleAt(when, [this, when] {
      ScrapeOnce();
      ScheduleNext(when + period_);
    });
  }

  struct Target {
    spe::SpeInstance* instance;
    int machine_index;  // -1 = all machines
    // By DeployedOp::id x raw metric.
    SeriesHandles series{spe::kRawMetricCount};
  };

  sim::Simulator* sim_;
  TimeSeriesStore* store_;
  SimDuration period_;
  SimTime until_ = 0;
  std::vector<Target> instances_;
};

}  // namespace lachesis::tsdb

#endif  // LACHESIS_TSDB_SCRAPER_H_
