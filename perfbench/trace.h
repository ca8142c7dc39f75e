// Outside-in tracing for the benchmark.
//
// Every decorator here wraps one public interface of a shipped layer and
// records a span around each call into it; nothing inside src/ is
// instrumented. Spans carry a kind (the layer boundary), start and end on
// the steady clock, the index of the enclosing span, and a request id: the
// control tick number for control-plane spans, the tuple key for tuple
// hops. They stay in memory until the run ends.
//
// The control plane is single-threaded (one executor dispatch thread), so
// one SpanLog with an open-span stack gives every span its parent.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/driver.h"
#include "core/executor.h"
#include "core/os_adapter.h"
#include "core/policy.h"
#include "core/translators.h"

namespace perfbench {

std::int64_t SteadyNs();
std::int64_t ThreadCpuNs();
std::int64_t ProcessCpuNs();

enum class SpanKind : std::uint8_t {
  kTick,       // ControlExecutor callback (one runner wakeup)
  kPoll,       // SpeDriver::Poll
  kProvider,   // metric-provider update: last Poll end -> first policy call
  kEntities,   // SpeDriver::Entities
  kFetch,      // SpeDriver::Fetch
  kPolicy,     // SchedulingPolicy::ComputeSchedule
  kTranslate,  // Translator::Apply
  kDelta,      // a call from the translator into the schedule-delta layer
  kAdapter,    // a call into the backend OsAdapter
  kScrape,     // tsdb::Scraper::ScrapeOnce
  kHopSourceIngress,
  kHopIngressMap,
  kHopMapEgress,
  kCount,
};
const char* SpanName(SpanKind kind);

struct Span {
  std::int64_t start = 0;
  std::int64_t end = 0;
  std::uint64_t request = 0;
  std::int32_t parent = -1;
  SpanKind kind = SpanKind::kTick;
};

class SpanLog {
 public:
  SpanLog() { spans_.reserve(1 << 16); }

  void set_request(std::uint64_t request) { request_ = request; }
  int Begin(SpanKind kind);
  void End(int index);
  // Records a finished span (tuple hops, measured on other threads).
  void Add(SpanKind kind, std::uint64_t request, std::int64_t start,
           std::int64_t end);

  // The provider update has no public entry point of its own: it is the
  // interval between the last driver Poll of a tick and the first policy
  // call, so Poll opens it and the policy closes it.
  void OpenProvider();
  void CloseProvider();
  void DropProvider();

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  // Writes one "kind,request,parent,start_ns,end_ns" line per span.
  bool WriteCsv(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
  std::uint64_t request_ = 0;
  int provider_ = -1;
};

// Per-callback accounting of a ControlExecutor. Always on: the callback
// CPU total is the simulated control_cpu_share. With a SpanLog, every
// callback also becomes a tick span and its dispatch lateness is kept.
class MeteredExecutor final : public lachesis::core::ControlExecutor {
 public:
  MeteredExecutor(lachesis::core::ControlExecutor& inner, SpanLog* log)
      : inner_(&inner), log_(log) {}

  [[nodiscard]] lachesis::SimTime Now() const override {
    return inner_->Now();
  }
  void CallAt(lachesis::SimTime time, std::function<void()> fn) override;

  [[nodiscard]] std::uint64_t callbacks() const { return callbacks_; }
  [[nodiscard]] std::int64_t callback_cpu_ns() const { return cpu_ns_; }
  // Dispatch time minus scheduled time, one entry per traced callback.
  [[nodiscard]] const std::vector<std::int64_t>& lateness_ns() const {
    return lateness_ns_;
  }

 private:
  lachesis::core::ControlExecutor* inner_;
  SpanLog* log_;
  std::uint64_t callbacks_ = 0;
  std::int64_t cpu_ns_ = 0;
  std::vector<std::int64_t> lateness_ns_;
};

class TracedDriver final : public lachesis::core::SpeDriver {
 public:
  TracedDriver(lachesis::core::SpeDriver& inner, SpanLog& log)
      : inner_(&inner), log_(&log) {}

  [[nodiscard]] const std::string& name() const override {
    return inner_->name();
  }
  void Poll(lachesis::SimTime now) override;
  std::vector<lachesis::core::EntityInfo> Entities() override;
  const lachesis::core::LogicalTopology& Topology(
      lachesis::QueryId query) override {
    return inner_->Topology(query);
  }
  [[nodiscard]] bool Provides(lachesis::core::MetricId metric) const override {
    return inner_->Provides(metric);
  }
  double Fetch(lachesis::core::MetricId metric,
               const lachesis::core::EntityInfo& entity) override;

 private:
  lachesis::core::SpeDriver* inner_;
  SpanLog* log_;
};

class TracedPolicy final : public lachesis::core::SchedulingPolicy {
 public:
  TracedPolicy(std::unique_ptr<lachesis::core::SchedulingPolicy> inner,
               SpanLog& log)
      : inner_(std::move(inner)), log_(&log) {}

  [[nodiscard]] const std::string& name() const override {
    return inner_->name();
  }
  [[nodiscard]] std::vector<lachesis::core::MetricId> RequiredMetrics()
      const override {
    return inner_->RequiredMetrics();
  }
  lachesis::core::Schedule ComputeSchedule(
      const lachesis::core::PolicyContext& ctx) override;

 private:
  std::unique_ptr<lachesis::core::SchedulingPolicy> inner_;
  SpanLog* log_;
};

// Times every OsAdapter call as a span of `kind` and counts the calls that
// threw (the exception still propagates).
class TracedOsAdapter final : public lachesis::core::OsAdapter {
 public:
  TracedOsAdapter(lachesis::core::OsAdapter& inner, SpanLog& log,
                  SpanKind kind)
      : inner_(&inner), log_(&log), kind_(kind) {}

  void SetNice(const lachesis::core::ThreadHandle& thread, int nice) override;
  void SetGroupShares(const std::string& group,
                      std::uint64_t shares) override;
  void MoveToGroup(const lachesis::core::ThreadHandle& thread,
                   const std::string& group) override;
  void SetRtPriority(const lachesis::core::ThreadHandle& thread,
                     int rt_priority) override;
  void SetGroupQuota(const std::string& group, lachesis::SimDuration quota,
                     lachesis::SimDuration period) override;
  void SetDeadline(const lachesis::core::ThreadHandle& thread,
                   lachesis::SimDuration runtime,
                   lachesis::SimDuration deadline,
                   lachesis::SimDuration period) override;
  void SetCpuAffinity(const lachesis::core::ThreadHandle& thread,
                      lachesis::core::CpuPreference pref) override;
  bool SnapshotState(const std::vector<lachesis::core::ThreadHandle>& threads,
                     lachesis::core::OsStateSnapshot& out) override;

  [[nodiscard]] std::uint64_t errors() const { return errors_; }

 private:
  template <typename Fn>
  auto Timed(Fn&& fn);

  lachesis::core::OsAdapter* inner_;
  SpanLog* log_;
  SpanKind kind_;
  std::uint64_t errors_ = 0;
};

// Times Translator::Apply, and hands the translator an adapter that times
// each of its calls into the delta layer.
class TracedTranslator final : public lachesis::core::Translator {
 public:
  TracedTranslator(std::unique_ptr<lachesis::core::Translator> inner,
                   SpanLog& log)
      : inner_(std::move(inner)), log_(&log) {}

  [[nodiscard]] const std::string& name() const override {
    return inner_->name();
  }
  void Apply(const lachesis::core::Schedule& schedule,
             lachesis::core::OsAdapter& os) override;
  [[nodiscard]] std::uint32_t required_op_classes() const override {
    return inner_->required_op_classes();
  }

 private:
  std::unique_ptr<lachesis::core::Translator> inner_;
  SpanLog* log_;
};

// Per-kind totals over the spans whose request lies in [first, last]:
// summed duration, summed self time (duration minus direct children) and
// call count. Spans nest LIFO on one clock, so self time is never negative.
struct KindTotals {
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;
  std::uint64_t calls = 0;
};
std::vector<KindTotals> TotalsByKind(const std::vector<Span>& spans,
                                     std::uint64_t first, std::uint64_t last);

// Adds the control-tick stage metrics shared by every workload: tick
// p50/p99 over the ticks with request ids in [first, last], and per-tick
// means of each stage's time (core.*). Returns the span totals so callers
// can add their backend-specific stages.
std::vector<KindTotals> AddTickMetrics(const SpanLog& log, std::uint64_t first,
                                       std::uint64_t last,
                                       std::map<std::string, double>& layer);
double PerTickUs(std::int64_t ns, std::uint64_t ticks);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
