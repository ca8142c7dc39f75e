#include "trace.h"

#include <time.h>

#include <cstdio>
#include <utility>

#include "workloads.h"

namespace perfbench {

namespace lc = lachesis::core;

namespace {

std::int64_t ClockNs(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000LL + ts.tv_nsec;
}

// Closes a span when the call it times returns or throws.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, SpanKind kind) : log_(&log), index_(log.Begin(kind)) {}
  ~ScopedSpan() { log_->End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int index_;
};

}  // namespace

std::int64_t SteadyNs() { return ClockNs(CLOCK_MONOTONIC); }
std::int64_t ThreadCpuNs() { return ClockNs(CLOCK_THREAD_CPUTIME_ID); }
std::int64_t ProcessCpuNs() { return ClockNs(CLOCK_PROCESS_CPUTIME_ID); }

const char* SpanName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kTick: return "tick";
    case SpanKind::kPoll: return "poll";
    case SpanKind::kProvider: return "provider";
    case SpanKind::kEntities: return "entities";
    case SpanKind::kFetch: return "fetch";
    case SpanKind::kPolicy: return "policy";
    case SpanKind::kTranslate: return "translate";
    case SpanKind::kDelta: return "delta";
    case SpanKind::kAdapter: return "adapter";
    case SpanKind::kScrape: return "scrape";
    case SpanKind::kHopSourceIngress: return "hop.source_ingress";
    case SpanKind::kHopIngressMap: return "hop.ingress_map";
    case SpanKind::kHopMapEgress: return "hop.map_egress";
    case SpanKind::kCount: break;
  }
  return "unknown";
}

int SpanLog::Begin(SpanKind kind) {
  Span span;
  span.kind = kind;
  span.request = request_;
  span.parent = open_.empty() ? -1 : open_.back();
  const int index = static_cast<int>(spans_.size());
  spans_.push_back(span);
  open_.push_back(index);
  spans_.back().start = SteadyNs();
  return index;
}

void SpanLog::End(int index) {
  const std::int64_t now = SteadyNs();
  // Spans close in LIFO order; a span still open above this one (the
  // provider interval of a tick that ran no policy) closes with it.
  while (!open_.empty()) {
    const int top = open_.back();
    open_.pop_back();
    spans_[static_cast<std::size_t>(top)].end = now;
    if (top == provider_) provider_ = -1;
    if (top == index) break;
  }
}

void SpanLog::Add(SpanKind kind, std::uint64_t request, std::int64_t start,
                  std::int64_t end) {
  Span span;
  span.kind = kind;
  span.request = request;
  span.start = start;
  span.end = end;
  spans_.push_back(span);
}

void SpanLog::OpenProvider() {
  DropProvider();
  provider_ = Begin(SpanKind::kProvider);
}

void SpanLog::CloseProvider() {
  if (provider_ < 0) return;
  End(provider_);
  provider_ = -1;
}

void SpanLog::DropProvider() {
  if (provider_ < 0) return;
  // A second Poll in the same tick restarts the interval. The provider
  // span is then the newest span and still childless.
  if (static_cast<std::size_t>(provider_) + 1 == spans_.size() &&
      !open_.empty() && open_.back() == provider_) {
    open_.pop_back();
    spans_.pop_back();
    provider_ = -1;
  } else {
    End(provider_);
  }
}

bool SpanLog::WriteCsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "kind,request,parent,start_ns,end_ns\n");
  for (const Span& s : spans_) {
    std::fprintf(f, "%s,%llu,%d,%lld,%lld\n", SpanName(s.kind),
                 static_cast<unsigned long long>(s.request), s.parent,
                 static_cast<long long>(s.start),
                 static_cast<long long>(s.end));
  }
  return std::fclose(f) == 0;
}

void MeteredExecutor::CallAt(lachesis::SimTime time, std::function<void()> fn) {
  inner_->CallAt(time, [this, time, fn = std::move(fn)] {
    const std::int64_t cpu0 = ThreadCpuNs();
    ++callbacks_;
    if (log_ == nullptr) {
      fn();
    } else {
      lateness_ns_.push_back(static_cast<std::int64_t>(inner_->Now() - time));
      log_->set_request(callbacks_);
      ScopedSpan span(*log_, SpanKind::kTick);
      fn();
    }
    cpu_ns_ += ThreadCpuNs() - cpu0;
  });
}

void TracedDriver::Poll(lachesis::SimTime now) {
  log_->DropProvider();
  {
    ScopedSpan span(*log_, SpanKind::kPoll);
    inner_->Poll(now);
  }
  log_->OpenProvider();
}

std::vector<lc::EntityInfo> TracedDriver::Entities() {
  ScopedSpan span(*log_, SpanKind::kEntities);
  return inner_->Entities();
}

double TracedDriver::Fetch(lc::MetricId metric, const lc::EntityInfo& entity) {
  ScopedSpan span(*log_, SpanKind::kFetch);
  return inner_->Fetch(metric, entity);
}

lc::Schedule TracedPolicy::ComputeSchedule(const lc::PolicyContext& ctx) {
  log_->CloseProvider();
  ScopedSpan span(*log_, SpanKind::kPolicy);
  return inner_->ComputeSchedule(ctx);
}

template <typename Fn>
auto TracedOsAdapter::Timed(Fn&& fn) {
  ScopedSpan span(*log_, kind_);
  try {
    return fn();
  } catch (...) {
    ++errors_;
    throw;
  }
}

void TracedOsAdapter::SetNice(const lc::ThreadHandle& thread, int nice) {
  Timed([&] { inner_->SetNice(thread, nice); });
}
void TracedOsAdapter::SetGroupShares(const std::string& group,
                                     std::uint64_t shares) {
  Timed([&] { inner_->SetGroupShares(group, shares); });
}
void TracedOsAdapter::MoveToGroup(const lc::ThreadHandle& thread,
                                  const std::string& group) {
  Timed([&] { inner_->MoveToGroup(thread, group); });
}
void TracedOsAdapter::SetRtPriority(const lc::ThreadHandle& thread,
                                    int rt_priority) {
  Timed([&] { inner_->SetRtPriority(thread, rt_priority); });
}
void TracedOsAdapter::SetGroupQuota(const std::string& group,
                                    lachesis::SimDuration quota,
                                    lachesis::SimDuration period) {
  Timed([&] { inner_->SetGroupQuota(group, quota, period); });
}
void TracedOsAdapter::SetDeadline(const lc::ThreadHandle& thread,
                                  lachesis::SimDuration runtime,
                                  lachesis::SimDuration deadline,
                                  lachesis::SimDuration period) {
  Timed([&] { inner_->SetDeadline(thread, runtime, deadline, period); });
}
void TracedOsAdapter::SetCpuAffinity(const lc::ThreadHandle& thread,
                                     lc::CpuPreference pref) {
  Timed([&] { inner_->SetCpuAffinity(thread, pref); });
}
bool TracedOsAdapter::SnapshotState(const std::vector<lc::ThreadHandle>& threads,
                                    lc::OsStateSnapshot& out) {
  return Timed([&] { return inner_->SnapshotState(threads, out); });
}

void TracedTranslator::Apply(const lc::Schedule& schedule, lc::OsAdapter& os) {
  ScopedSpan span(*log_, SpanKind::kTranslate);
  TracedOsAdapter delta(os, *log_, SpanKind::kDelta);
  inner_->Apply(schedule, delta);
}

std::vector<KindTotals> TotalsByKind(const std::vector<Span>& spans,
                                     std::uint64_t first, std::uint64_t last) {
  std::vector<std::int64_t> child_ns(spans.size(), 0);
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += s.end - s.start;
    }
  }
  std::vector<KindTotals> totals(static_cast<std::size_t>(SpanKind::kCount));
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.request < first || s.request > last) continue;
    KindTotals& t = totals[static_cast<std::size_t>(s.kind)];
    t.total_ns += s.end - s.start;
    t.self_ns += s.end - s.start - child_ns[i];
    ++t.calls;
  }
  return totals;
}

double PerTickUs(std::int64_t ns, std::uint64_t ticks) {
  return ticks == 0 ? 0.0
                    : static_cast<double>(ns) / 1e3 / static_cast<double>(ticks);
}

std::vector<KindTotals> AddTickMetrics(const SpanLog& log, std::uint64_t first,
                                       std::uint64_t last,
                                       std::map<std::string, double>& layer) {
  std::vector<KindTotals> totals = TotalsByKind(log.spans(), first, last);
  const auto kind = [&totals](SpanKind k) -> const KindTotals& {
    return totals[static_cast<std::size_t>(k)];
  };
  std::vector<double> tick_us;
  for (const Span& s : log.spans()) {
    if (s.kind == SpanKind::kTick && s.request >= first && s.request <= last) {
      tick_us.push_back(static_cast<double>(s.end - s.start) / 1e3);
    }
  }
  const std::uint64_t ticks = kind(SpanKind::kTick).calls;
  layer["core.tick_us_p50"] = Quantile(tick_us, 0.50);
  layer["core.tick_us_p99"] = Quantile(tick_us, 0.99);
  layer["core.entities_us"] = PerTickUs(kind(SpanKind::kEntities).total_ns, ticks);
  layer["core.provider_self_us"] = PerTickUs(kind(SpanKind::kProvider).self_ns, ticks);
  layer["core.policy_us"] = PerTickUs(kind(SpanKind::kPolicy).total_ns, ticks);
  layer["core.translate_self_us"] = PerTickUs(kind(SpanKind::kTranslate).self_ns, ticks);
  layer["core.delta_self_us"] = PerTickUs(kind(SpanKind::kDelta).self_ns, ticks);
  const std::int64_t tick_ns = kind(SpanKind::kTick).total_ns;
  layer["core.unaccounted_share"] =
      tick_ns > 0 ? static_cast<double>(kind(SpanKind::kTick).self_ns) /
                        static_cast<double>(tick_ns)
                  : 0.0;
  return totals;
}

}  // namespace perfbench
