#include "obs/trace_export.h"

#include <cinttypes>
#include <cstdio>
#include <map>
#include <string_view>
#include <vector>

#include "obs/atomic_file.h"
#include "obs/json_escape.h"

namespace lachesis::obs {

namespace {

// Timestamps are microseconds with a fixed 3-digit nanosecond remainder --
// pure integer math so identical event streams serialize identically.
void AppendTs(std::string& out, SimTime ns) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%" PRId64 ".%03" PRId64, ns / 1000,
                ns % 1000 < 0 ? -(ns % 1000) : ns % 1000);
  out += buf;
}

std::string ClassName(int cls, OpClassNameFn fn) {
  if (fn != nullptr) return fn(cls);
  return "class" + std::to_string(cls);
}

const char* BreakerStateName(int state) {
  switch (state) {
    case 0: return "closed";
    case 1: return "open";
    case 2: return "half-open";
  }
  return "?";
}

// Incrementally builds the traceEvents array, one event per line.
class TraceWriter {
 public:
  TraceWriter() { out_ = "{\"traceEvents\":[\n"; }

  // All subsequent events carry this pid; fleet export gives each shard's
  // recorder its own process track (pid = shard + 1).
  void set_pid(int pid) { pid_ = pid; }

  // args entries are pre-rendered "\"key\":value" fragments.
  void Emit(char ph, std::string_view name, int tid, SimTime ts,
            const std::vector<std::string>& args, SimTime dur = -1,
            bool instant_scope = false) {
    Sep();
    out_ += "{\"ph\":\"";
    out_ += ph;
    out_ += "\",\"pid\":";
    out_ += std::to_string(pid_);
    out_ += ",\"tid\":";
    out_ += std::to_string(tid);
    out_ += ",\"ts\":";
    AppendTs(out_, ts);
    if (dur >= 0) {
      out_ += ",\"dur\":";
      AppendTs(out_, dur);
    }
    if (instant_scope) out_ += ",\"s\":\"t\"";
    out_ += ",\"name\":\"";
    AppendJsonEscaped(out_, name);
    out_ += "\"";
    if (!args.empty()) {
      out_ += ",\"args\":{";
      for (std::size_t i = 0; i < args.size(); ++i) {
        if (i > 0) out_ += ",";
        out_ += args[i];
      }
      out_ += "}";
    }
    out_ += "}";
  }

  void EmitMeta(std::string_view meta_name, int tid, std::string_view value) {
    Sep();
    out_ += "{\"ph\":\"M\",\"pid\":";
    out_ += std::to_string(pid_);
    out_ += ",\"tid\":";
    out_ += std::to_string(tid);
    out_ += ",\"name\":\"";
    AppendJsonEscaped(out_, meta_name);
    out_ += "\",\"args\":{\"name\":\"";
    AppendJsonEscaped(out_, value);
    out_ += "\"}}";
  }

  std::string Finish() {
    out_ += "\n],\"displayTimeUnit\":\"ms\"}\n";
    return std::move(out_);
  }

 private:
  void Sep() {
    if (!first_) out_ += ",\n";
    first_ = false;
  }

  std::string out_;
  bool first_ = true;
  int pid_ = 1;
};

std::string StrArg(std::string_view key, std::string_view value) {
  std::string out = "\"";
  out += key;
  out += "\":\"";
  AppendJsonEscaped(out, value);
  out += "\"";
  return out;
}

std::string IntArg(std::string_view key, std::int64_t value) {
  std::string out = "\"";
  out += key;
  out += "\":";
  out += std::to_string(value);
  return out;
}

std::string DoubleArg(std::string_view key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "\"%.*s\":%.9g",
                static_cast<int>(key.size()), key.data(), value);
  return buf;
}

// Emits one recorder's complete track set (metadata + events + dangling
// tick) into `w` under whatever pid `w` currently carries. Shared by the
// single-process and fleet renderers so both serialize identically.
void AppendRecorderTracks(TraceWriter& w, const Recorder& recorder,
                          std::string_view process_name,
                          OpClassNameFn op_class_name) {
  const std::vector<Event> events = recorder.Snapshot();

  // Pass 1: which tracks exist, and what to call them. Sorted by tid so the
  // metadata block is deterministic regardless of first-use order.
  std::map<int, std::string> tracks;
  for (const Event& e : events) {
    switch (e.kind) {
      case EventKind::kTickBegin:
      case EventKind::kTickEnd:
        tracks.emplace(kTraceTidTicks, "control ticks");
        break;
      case EventKind::kBreakerTransition:
      case EventKind::kBackoffArmed:
      case EventKind::kFaultInjected:
        tracks.emplace(kTraceTidFaults, "faults & breakers");
        break;
      case EventKind::kReconcile:
      case EventKind::kQueryAttached:
      case EventKind::kQueryDetached:
        tracks.emplace(kTraceTidLifecycle, "lifecycle");
        break;
      case EventKind::kOpApplied:
      case EventKind::kOpElided:
      case EventKind::kOpSuppressed:
      case EventKind::kOpError:
        tracks.emplace(kTraceTidOpBase + e.op_class,
                       ClassName(e.op_class, op_class_name));
        break;
      case EventKind::kScheduleComputed:
      case EventKind::kTranslatorPicked:
      case EventKind::kDegradationMove:
        tracks.emplace(kTraceTidBindBase + e.i0,
                       "binding " + std::to_string(e.i0));
        break;
      case EventKind::kMetricSample:
        break;  // counters attach to the process, not a thread track
    }
  }

  w.EmitMeta("process_name", 0, process_name);
  for (const auto& [tid, name] : tracks) w.EmitMeta("thread_name", tid, name);

  // Pass 2: the events themselves, in recorded (seq) order.
  bool tick_open = false;
  SimTime tick_begin_ts = 0;
  std::int64_t tick_index = 0;
  std::uint64_t tick_begin_seq = 0;
  for (const Event& e : events) {
    const std::string target = recorder.Name(e.target);
    const std::string detail = recorder.Name(e.detail);
    switch (e.kind) {
      case EventKind::kTickBegin:
        tick_open = true;
        tick_begin_ts = e.time;
        tick_index = e.v0;
        tick_begin_seq = e.seq;
        break;
      case EventKind::kTickEnd: {
        std::vector<std::string> args = {
            IntArg("policies", e.i0),
            IntArg("applied", static_cast<std::int64_t>(UnpackTickCount(e.v0, 0))),
            IntArg("skipped", static_cast<std::int64_t>(UnpackTickCount(e.v0, 1))),
            IntArg("errors", static_cast<std::int64_t>(UnpackTickCount(e.v0, 2))),
            IntArg("suppressed",
                   static_cast<std::int64_t>(UnpackTickCount(e.v0, 3))),
            IntArg("open_breakers", e.i1 & 0xffff),
            IntArg("degraded", (e.i1 >> 16) & 0x7fff),
        };
        if (tick_open) {
          args.push_back(IntArg("index", tick_index));
          args.push_back(IntArg("seq", static_cast<std::int64_t>(tick_begin_seq)));
          w.Emit('X', "tick", kTraceTidTicks, tick_begin_ts, args,
                 e.time - tick_begin_ts);
          tick_open = false;
        } else {
          // The matching begin was evicted from the ring; keep the summary.
          args.push_back(IntArg("seq", static_cast<std::int64_t>(e.seq)));
          w.Emit('i', "tick end (begin evicted)", kTraceTidTicks, e.time, args,
                 -1, true);
        }
        // Per-tick counters render as graphs under the process.
        w.Emit('C', "delta ops", kTraceTidTicks, e.time,
               {IntArg("applied",
                       static_cast<std::int64_t>(UnpackTickCount(e.v0, 0))),
                IntArg("skipped",
                       static_cast<std::int64_t>(UnpackTickCount(e.v0, 1))),
                IntArg("errors",
                       static_cast<std::int64_t>(UnpackTickCount(e.v0, 2))),
                IntArg("suppressed",
                       static_cast<std::int64_t>(UnpackTickCount(e.v0, 3)))});
        w.Emit('C', "health", kTraceTidTicks, e.time,
               {IntArg("open_breakers", e.i1 & 0xffff),
                IntArg("degraded_bindings", (e.i1 >> 16) & 0x7fff)});
        break;
      }
      case EventKind::kMetricSample:
        w.Emit('C', "metric:" + detail, kTraceTidTicks, e.time,
               {DoubleArg(target, e.d0)});
        break;
      case EventKind::kScheduleComputed:
        w.Emit('i', "schedule: " + detail, kTraceTidBindBase + e.i0, e.time,
               {IntArg("entries", e.i1),
                IntArg("seq", static_cast<std::int64_t>(e.seq))},
               -1, true);
        break;
      case EventKind::kTranslatorPicked:
        w.Emit('i', "translator: " + detail, kTraceTidBindBase + e.i0, e.time,
               {IntArg("rung", e.i1),
                IntArg("seq", static_cast<std::int64_t>(e.seq))},
               -1, true);
        break;
      case EventKind::kOpApplied:
      case EventKind::kOpElided:
      case EventKind::kOpSuppressed: {
        const char* verb = e.kind == EventKind::kOpApplied ? "applied"
                           : e.kind == EventKind::kOpElided ? "elided"
                                                            : "suppressed";
        std::vector<std::string> args = {
            StrArg("target", target), IntArg("value", e.v0),
            IntArg("seq", static_cast<std::int64_t>(e.seq))};
        if (!detail.empty()) args.push_back(StrArg("detail", detail));
        w.Emit('i', ClassName(e.op_class, op_class_name) + " " + verb,
               kTraceTidOpBase + e.op_class, e.time, args, -1, true);
        break;
      }
      case EventKind::kOpError:
        w.Emit('i', ClassName(e.op_class, op_class_name) + " ERROR",
               kTraceTidOpBase + e.op_class, e.time,
               {StrArg("target", target), StrArg("error", detail),
                IntArg("seq", static_cast<std::int64_t>(e.seq))},
               -1, true);
        break;
      case EventKind::kBreakerTransition:
        w.Emit('i',
               "breaker[" + ClassName(e.op_class, op_class_name) + "] " +
                   BreakerStateName(e.i0) + " -> " + BreakerStateName(e.i1),
               kTraceTidFaults, e.time,
               {IntArg("seq", static_cast<std::int64_t>(e.seq))}, -1, true);
        break;
      case EventKind::kBackoffArmed: {
        std::string retry;
        AppendTs(retry, e.v0);
        w.Emit('i',
               "backoff[" + ClassName(e.op_class, op_class_name) + "] " +
                   target,
               kTraceTidFaults, e.time,
               {IntArg("failures", e.i0), StrArg("retry_at_us", retry),
                IntArg("seq", static_cast<std::int64_t>(e.seq))},
               -1, true);
        break;
      }
      case EventKind::kDegradationMove:
        w.Emit('i', "degrade -> rung " + std::to_string(e.i1),
               kTraceTidBindBase + e.i0, e.time,
               {IntArg("from_rung", e.v0), StrArg("translator", detail),
                IntArg("seq", static_cast<std::int64_t>(e.seq))},
               -1, true);
        break;
      case EventKind::kReconcile:
        w.Emit('i', "reconcile", kTraceTidLifecycle, e.time,
               {IntArg("seeded", e.v0), IntArg("adopted_groups", e.i0),
                IntArg("seq", static_cast<std::int64_t>(e.seq))},
               -1, true);
        break;
      case EventKind::kFaultInjected:
        w.Emit('i', "fault: " + detail, kTraceTidFaults, e.time,
               {StrArg("target", target),
                StrArg("op_class", ClassName(e.op_class, op_class_name)),
                IntArg("seq", static_cast<std::int64_t>(e.seq))},
               -1, true);
        break;
      case EventKind::kQueryAttached:
        w.Emit('i', "attach binding " + std::to_string(e.i0),
               kTraceTidLifecycle, e.time,
               {IntArg("seq", static_cast<std::int64_t>(e.seq))}, -1, true);
        break;
      case EventKind::kQueryDetached:
        w.Emit('i', "detach binding " + std::to_string(e.i0),
               kTraceTidLifecycle, e.time,
               {IntArg("seq", static_cast<std::int64_t>(e.seq))}, -1, true);
        break;
    }
  }
  if (tick_open) {
    // Stream ended mid-tick (e.g. dump taken between begin and end).
    w.Emit('B', "tick", kTraceTidTicks, tick_begin_ts,
           {IntArg("index", tick_index),
            IntArg("seq", static_cast<std::int64_t>(tick_begin_seq))});
  }
}

}  // namespace

std::string RenderChromeTrace(const Recorder& recorder,
                              OpClassNameFn op_class_name) {
  TraceWriter w;
  AppendRecorderTracks(w, recorder, "lachesis", op_class_name);
  return w.Finish();
}

std::string RenderFleetChromeTrace(const std::vector<const Recorder*>& shards,
                                   const std::vector<std::string>& names,
                                   OpClassNameFn op_class_name) {
  TraceWriter w;
  for (std::size_t i = 0; i < shards.size(); ++i) {
    if (shards[i] == nullptr) continue;
    w.set_pid(static_cast<int>(i) + 1);
    const std::string fallback = "lachesis shard " + std::to_string(i);
    AppendRecorderTracks(w, *shards[i],
                         i < names.size() && !names[i].empty() ? names[i]
                                                               : fallback,
                         op_class_name);
  }
  return w.Finish();
}

bool DumpChromeTrace(const Recorder& recorder, const std::string& path,
                     OpClassNameFn op_class_name) {
  return WriteFileAtomically(path, RenderChromeTrace(recorder, op_class_name));
}

}  // namespace lachesis::obs
