// Workload entry points and the small statistics helpers they share.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_out";  // spans and the empty cgroup root
};

struct RunResult {
  // Output checks: every failed check adds a line to `problems`.
  std::vector<std::string> problems;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  // Metric name -> value. Names and units are declared in BENCHMARK.json;
  // run.py checks the names against it and attaches the units.
  std::map<std::string, double> metrics;
  // Context printed with the result (host state, sample counts, flags).
  std::map<std::string, double> info;
};

RunResult RunNative(const RunOptions& options);
RunResult RunSimScale(const RunOptions& options);

// Nearest-rank quantile of an unsorted sample (0 for an empty one).
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);

// CPU time counters from /proc/stat: all CPUs (cpu < 0) or one.
struct CpuTimes {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};
CpuTimes ReadCpuTimes(int cpu = -1);
double StealShare(const CpuTimes& begin, const CpuTimes& end);

// The process's peak resident set size so far.
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
