// Benchmark driver: runs one workload for one seed and prints, as its last
// stdout line, {"correct", "attempted", "failed", "values"} where values
// maps each end-to-end metric (--trace 0) or each per-layer metric
// (--trace 1) to its value; run.py checks the names against BENCHMARK.json
// and attaches the units. The line before it is a JSON object of run
// context: host steal share, nproc, pinned CPU, negative-nice permission,
// sample counts and flags.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Spans of traced runs and an empty cgroup root go to .bench_out/ in the
// working directory.
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "workloads.h"

namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  rank = std::clamp<std::size_t>(rank, 1, values.size()) - 1;
  std::nth_element(values.begin(), values.begin() + static_cast<long>(rank),
                   values.end());
  return values[rank];
}

double Median(std::vector<double> values) { return Quantile(std::move(values), 0.5); }

CpuTimes ReadCpuTimes(int cpu) {
  CpuTimes times;
  const std::string want = cpu < 0 ? "cpu" : "cpu" + std::to_string(cpu);
  std::ifstream in("/proc/stat");
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string label;
    fields >> label;
    if (label != want) continue;
    // user nice system idle iowait irq softirq steal
    for (int field = 0; field < 8; ++field) {
      std::uint64_t value = 0;
      if (!(fields >> value)) break;
      times.total += value;
      if (field == 7) times.steal = value;
    }
    break;
  }
  return times;
}

double StealShare(const CpuTimes& begin, const CpuTimes& end) {
  if (end.total <= begin.total) return 0.0;
  return static_cast<double>(end.steal - begin.steal) /
         static_cast<double>(end.total - begin.total);
}

// VmHWM rather than getrusage's ru_maxrss: the latter also keeps the peak
// of the process image before exec, here the Python parent that forked us.
double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

namespace {

// Whether this process may lower a thread's nice value below 0 (needs
// CAP_SYS_NICE); probed on a throwaway thread.
bool NegativeNicePermitted() {
  bool permitted = false;
  std::thread probe([&permitted] {
    const auto tid = static_cast<id_t>(syscall(SYS_gettid));
    permitted = setpriority(PRIO_PROCESS, tid, -1) == 0;
  });
  probe.join();
  return permitted;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload native-fastpath|native-contended|"
               "sim-scale --seed N --seconds S --trace 0|1\n",
               argv0);
  return 2;
}

int Main(int argc, char** argv) {
  RunOptions options;
  bool trace_set = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return Usage(argv[0]);
    } else if (flag == "--seconds") {
      const long s = std::strtol(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0' || s < 1 || s > 60) {
        return Usage(argv[0]);
      }
      options.seconds = static_cast<int>(s);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage(argv[0]);
      options.trace = value == "1";
      trace_set = true;
    } else {
      return Usage(argv[0]);
    }
  }
  if (argc % 2 != 1 || !trace_set) return Usage(argv[0]);
  mkdir(options.out_dir.c_str(), 0755);

  RunResult result;
  if (options.workload == "native-fastpath" ||
      options.workload == "native-contended") {
    result = RunNative(options);
  } else if (options.workload == "sim-scale") {
    result = RunSimScale(options);
  } else {
    return Usage(argv[0]);
  }

  std::ostringstream values;
  for (auto& [name, value] : result.metrics) {
    if (!std::isfinite(value)) {
      result.problems.push_back(name + " is not finite");
      value = 0.0;
    }
    values << (values.tellp() > 0 ? ", " : "") << JsonString(name) << ": "
           << JsonNumber(value);
  }

  std::ostringstream info;
  info << "{\"workload\": " << JsonString(options.workload)
       << ", \"seed\": " << options.seed
       << ", \"nproc\": " << std::thread::hardware_concurrency()
       << ", \"negative_nice_permitted\": "
       << (NegativeNicePermitted() ? "true" : "false");
  for (const auto& [name, value] : result.info) {
    info << ", " << JsonString(name) << ": " << JsonNumber(value);
  }
  info << ", \"problems\": [";
  for (std::size_t i = 0; i < result.problems.size(); ++i) {
    info << (i ? ", " : "") << JsonString(result.problems[i]);
  }
  info << "]}";
  if (result.info["backlog_flag"] != 0) {
    std::fprintf(stderr, "perfbench: warning: the backlog grew over the window "
                         "(%.0f tuples); the offered load may exceed capacity\n",
                 result.info["backlog_growth"]);
  }
  for (const std::string& problem : result.problems) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", problem.c_str());
  }
  std::printf("%s\n", info.str().c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"values\": {%s}}\n",
              result.problems.empty() ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed),
              values.str().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
