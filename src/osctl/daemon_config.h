// Configuration for lachesisd, the standalone middleware daemon.
//
// A small INI-like format (sections + key=value, '#' comments) keeps the
// daemon dependency-free:
//
//   [lachesis]
//   period_ms   = 1000
//   policy      = queue-size        # a policy name from core/bindings.h
//   translator  = nice              # a translator name from core/bindings.h
//   metrics_file = /var/lib/engine/graphite.log
//   provides     = queue_size tuples_in   # raw metrics the file holds
//   cgroup_root  = /sys/fs/cgroup/cpu/lachesis
//
// The policy and translator names are core's one table, which the
// experiment harness names its bindings by too. Every knob, and every
// name, is documented with defaults, ranges and tuning guidance in
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

#include <string>
#include <vector>

#include "core/bindings.h"
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
  // lachesisd's one binding, from the [lachesis] keys period_ms, policy,
  // translator, dl_runtime_ms, dl_period_ms and critical_queries. Each
  // critical_queries name names a [query] or [native-query] section.
  core::BindingSpec binding;
  std::string cgroup_root;  // empty: cgroup mechanisms unavailable
  // Fault-tolerance knobs (mapped onto core::HealthConfig; see
  // src/core/op_health.h for the semantics of each).
  long backoff_base_ms = 500;    // first retry delay for a failing target (>0)
  long backoff_cap_ms = 0;       // backoff ceiling; 0 = uncapped doubling
  long breaker_threshold = 5;    // consecutive failures that open a breaker
  long breaker_probe_ms = 2000;  // half-open probe interval (>0)
  bool degradation = true;       // capability degradation ladder
  bool reconcile = true;         // seed delta cache from kernel state at boot
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

}  // namespace lachesis::osctl

#endif  // LACHESIS_OSCTL_DAEMON_CONFIG_H_
