// Configuration for lachesisd, the standalone middleware daemon.
//
// A small INI-like format (sections + key=value, '#' comments) keeps the
// daemon dependency-free:
//
//   [lachesis]
//   period_ms   = 1000
//   policy      = queue-size        # queue-size|fcfs|highest-rate|random|min-memory
//   translator  = nice              # nice|cpu.shares|quota|rt|deadline
//   metrics_file = /var/lib/engine/graphite.log
//   provides     = queue_size tuples_in   # raw metrics the file holds
//   cgroup_root  = /sys/fs/cgroup/cpu/lachesis
//
// Every knob is documented with defaults, ranges and tuning guidance in
// docs/OPERATIONS.md.
//
//   [query my-topology]
//   pid = 12345
//   # operator <name> = <thread-pattern> <series-prefix> [ingress|egress]
//   operator spout = exec-spout storm.my.spout ingress
//   operator parse = exec-parse storm.my.parse
//   operator sink  = exec-sink  storm.my.sink  egress
//   edge = spout parse
//   edge = parse sink
//
// In-process native executor queries (spe/native_runtime.h) are linear
// operator chains the daemon itself serves; first operator is the ingress,
// last is the egress:
//
//   [native-query chain]
//   rate_tps = 2000
//   queue_capacity = 1024
//   # operators = <name>:<cost_us> ...
//   operators = in:20 work:150 out:10
#ifndef LACHESIS_OSCTL_DAEMON_CONFIG_H_
#define LACHESIS_OSCTL_DAEMON_CONFIG_H_

#include <memory>
#include <string>
#include <vector>

#include "core/policy.h"
#include "core/translators.h"
#include "osctl/native_driver.h"

namespace lachesis::osctl {

// One operator of an in-process native chain: name plus emulated per-tuple
// CPU cost in microseconds.
struct NativeChainOp {
  std::string name;
  long cost_us = 0;
};

// One [native-query <name>] section: a linear operator chain served by the
// daemon's in-process native SPE executor. The first operator runs as the
// ingress (fed by a rate-controlled source thread), the last as the egress.
struct NativeChainConfig {
  std::string name;
  double rate_tps = 1000.0;      // offered load of the source thread
  long queue_capacity = 1024;    // inter-operator ring capacity
  long source_channel = 8192;    // ingress channel ("Kafka lag" buffer)
  std::vector<NativeChainOp> operators;
};

struct DaemonConfig {
  long period_ms = 1000;
  std::string policy = "queue-size";
  std::string translator = "nice";
  std::string cgroup_root;  // empty: cgroup mechanisms unavailable
  // Fault-tolerance knobs (mapped onto core::HealthConfig; see
  // src/core/op_health.h for the semantics of each).
  long backoff_base_ms = 500;    // first retry delay for a failing target (>0)
  long backoff_cap_ms = 0;       // backoff ceiling; 0 = uncapped doubling
  long breaker_threshold = 5;    // consecutive failures that open a breaker
  long breaker_probe_ms = 2000;  // half-open probe interval (>0)
  bool degradation = true;       // capability degradation ladder
  bool reconcile = true;         // seed delta cache from kernel state at boot
  // SCHED_DEADLINE knobs (translator = deadline): each latency-critical
  // operator gets a reservation of dl_runtime_ms CPU every dl_period_ms
  // (deadline == period). Requires root or CAP_SYS_NICE; when the kernel
  // rejects (EPERM/ENOSYS/EBUSY) the ladder degrades to rt, then shares,
  // then nice.
  long dl_runtime_ms = 4;   // must be positive
  long dl_period_ms = 10;   // must be >= dl_runtime_ms
  // Queries whose operators are tagged latency-critical (deadline/RT
  // guarantees, big-core placement). Space-separated query names.
  std::vector<std::string> critical_queries;
  // big.LITTLE topology for the affinity hints: explicit core id lists.
  // Both empty (default) disables capacity-aware placement.
  std::vector<int> big_cores;
  std::vector<int> little_cores;
  // Observability knobs (src/obs/): Chrome-trace dumps, Prometheus
  // textfile self-metrics, and provenance-ring tuning.
  std::string trace_file;      // empty: no trace dumps (SIGUSR1 still logs)
  long trace_every_ticks = 0;  // also dump every N ticks; 0 = exit/signal only
  std::string metrics_textfile;  // empty: no textfile export
  long metrics_every_ticks = 1;  // textfile refresh cadence in ticks (>= 1)
  long obs_ring_capacity = 8192;  // provenance ring size in events (>= 1)
  bool obs_verbose = false;  // record per-elision + per-sample events too
  NativeSpeConfig spe;
  // In-process native executor ([native-query ...] sections). May coexist
  // with external [query ...] engines; at least one of the two must be
  // configured.
  std::vector<NativeChainConfig> native_queries;
  // Pin executor threads round-robin over these CPUs (operator + source
  // threads). Empty: leave placement to the kernel.
  std::vector<int> native_pin_cores;
};

// Parses the INI-like text; throws std::runtime_error with a line-numbered
// message on malformed input.
DaemonConfig ParseDaemonConfig(const std::string& text);

// Convenience: reads and parses a file.
DaemonConfig LoadDaemonConfig(const std::string& path);

// The policy or translator an accepted `policy` / `translator` value names,
// from the one table ParseDaemonConfig checks those lines against; any
// other name throws std::invalid_argument. `deadline` reserves
// config.dl_runtime_ms every config.dl_period_ms.
std::unique_ptr<core::SchedulingPolicy> MakePolicy(const std::string& name);
std::unique_ptr<core::Translator> MakeTranslator(const std::string& name,
                                                 const DaemonConfig& config);
// The capability degradation ladder of translator `name`, best-first, as
// the same table lists it; nice, the last resort, has none.
std::vector<std::unique_ptr<core::Translator>> MakeFallbackTranslators(
    const std::string& name, const DaemonConfig& config);

}  // namespace lachesis::osctl

#endif  // LACHESIS_OSCTL_DAEMON_CONFIG_H_
