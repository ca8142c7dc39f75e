#include "bench/bench_common.h"

#include <chrono>

#include <errno.h>  // program_invocation_short_name (glibc)

#include "bench/bench_json.h"

namespace lachesis::bench {

SweepResult RunSweep(const ScenarioFactory& factory,
                     const std::vector<double>& rates,
                     const std::vector<Variant>& variants,
                     const BenchMode& mode) {
  SweepResult sweep;
  const auto wall_start = std::chrono::steady_clock::now();
  sweep.runs.resize(variants.size());
  sweep.point_wall_seconds.resize(variants.size());
  for (std::size_t v = 0; v < variants.size(); ++v) {
    sweep.runs[v].resize(rates.size());
    sweep.point_wall_seconds[v].resize(rates.size(), 0.0);
    for (std::size_t r = 0; r < rates.size(); ++r) {
      ScenarioSpec spec = factory(rates[r]);
      spec.scheduler = variants[v].scheduler;
      spec.label = variants[v].name;
      spec.warmup = mode.warmup;
      spec.measure = mode.measure;
      const auto point_start = std::chrono::steady_clock::now();
      sweep.runs[v][r] = exp::RunRepetitions(spec, mode.repetitions);
      sweep.point_wall_seconds[v][r] =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        point_start)
              .count();
      sweep.sim_seconds += static_cast<double>(sweep.runs[v][r].size()) *
                           static_cast<double>(spec.warmup + spec.measure) /
                           static_cast<double>(kSecond);
      std::fflush(stdout);
    }
  }
  sweep.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  return sweep;
}

void PrintMetricTable(
    const std::string& title, const std::vector<double>& rates,
    const std::vector<Variant>& variants, const SweepResult& sweep,
    const std::function<double(const RunResult&)>& extract) {
  std::vector<std::string> header{"rate(t/s)"};
  for (const Variant& v : variants) header.push_back(v.name);
  std::vector<std::vector<std::string>> rows;
  for (std::size_t r = 0; r < rates.size(); ++r) {
    std::vector<std::string> row;
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%.0f", rates[r]);
    row.emplace_back(buffer);
    for (std::size_t v = 0; v < variants.size(); ++v) {
      row.push_back(exp::FormatCi(exp::Aggregate(sweep.runs[v][r], extract)));
    }
    rows.push_back(std::move(row));
  }
  exp::PrintTable(title, header, rows);
}

namespace {

// "bench_fig09_lr_storm" -> "fig09_lr_storm".
std::string DefaultBenchName() {
  std::string name = program_invocation_short_name;
  if (name.rfind("bench_", 0) == 0) name.erase(0, 6);
  return name;
}

void CiField(JsonWriter& json, const char* key, const MeanCi& ci) {
  json.BeginObject(key)
      .Field("mean", ci.mean)
      .Field("ci95", ci.half_width)
      .EndObject();
}

}  // namespace

void WriteBenchJson(const std::vector<double>& rates,
                    const std::vector<Variant>& variants,
                    const SweepResult& sweep, const BenchMode& mode,
                    const std::string& bench) {
  const std::string name = bench.empty() ? DefaultBenchName() : bench;
  JsonWriter json;
  json.BeginObject()
      .Field("bench", name)
      .Field("mode", mode.full ? "full" : "quick")
      .Field("repetitions", mode.repetitions)
      .Field("worker_count", mode.workers)
      .Field("wall_seconds", sweep.wall_seconds)
      .Field("sim_seconds", sweep.sim_seconds)
      .Field("sim_wall_ratio", sweep.wall_seconds > 0
                                   ? sweep.sim_seconds / sweep.wall_seconds
                                   : 0.0)
      .BeginArray("series");
  for (std::size_t v = 0; v < variants.size(); ++v) {
    for (std::size_t r = 0; r < rates.size(); ++r) {
      const auto& runs = sweep.runs[v][r];
      const auto ci = [&runs](double RunResult::*field) {
        return exp::Aggregate(runs,
                              [field](const RunResult& x) { return x.*field; });
      };
      json.BeginObject()
          .Field("variant", variants[v].name)
          .Field("rate_tps", rates[r]);
      CiField(json, "throughput_tps", ci(&RunResult::throughput_tps));
      CiField(json, "avg_latency_ms", ci(&RunResult::avg_latency_ms));
      CiField(json, "avg_e2e_latency_ms", ci(&RunResult::avg_e2e_latency_ms));
      CiField(json, "qs_goal", ci(&RunResult::qs_goal));
      CiField(json, "cpu_utilization", ci(&RunResult::cpu_utilization));
      if (v < sweep.point_wall_seconds.size() &&
          r < sweep.point_wall_seconds[v].size()) {
        json.Field("wall_seconds", sweep.point_wall_seconds[v][r]);
      }
      json.EndObject();
    }
  }
  json.EndArray().EndObject();
  json.WriteFile("BENCH_" + name + ".json");
}

SweepResult RunAndPrintSweep(const std::string& title,
                             const ScenarioFactory& factory,
                             const std::vector<double>& rates,
                             const std::vector<Variant>& variants,
                             const BenchMode& mode) {
  SweepResult sweep = RunSweep(factory, rates, variants, mode);
  PrintMetricTable(title + " | Throughput (t/s)", rates, variants, sweep,
                   [](const RunResult& r) { return r.throughput_tps; });
  PrintMetricTable(title + " | Avg processing latency (ms)", rates, variants,
                   sweep, [](const RunResult& r) { return r.avg_latency_ms; });
  PrintMetricTable(title + " | Avg end-to-end latency (ms)", rates, variants,
                   sweep,
                   [](const RunResult& r) { return r.avg_e2e_latency_ms; });
  PrintMetricTable(title + " | QS goal (queue-size variance)", rates, variants,
                   sweep, [](const RunResult& r) { return r.qs_goal; });
  WriteBenchJson(rates, variants, sweep, mode);
  return sweep;
}

}  // namespace lachesis::bench
