#include "exp/report.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace lachesis::exp {

BenchMode BenchMode::FromEnv() {
  const char* mode = std::getenv("LACHESIS_BENCH_MODE");
  const bool full = mode != nullptr && std::strcmp(mode, "full") == 0;
  int workers = 1;
  if (const char* w = std::getenv("LACHESIS_BENCH_WORKERS")) {
    workers = std::max(1, std::atoi(w));
  }
  if (full) {
    // Closer to the paper's 10-minute, 5-repetition runs (still simulated).
    return {5, Seconds(10), Seconds(60), true, workers};
  }
  return {2, Seconds(5), Seconds(15), false, workers};
}

MeanCi Aggregate(const std::vector<RunResult>& runs,
                 const std::function<double(const RunResult&)>& extract) {
  std::vector<double> values;
  values.reserve(runs.size());
  for (const RunResult& r : runs) values.push_back(extract(r));
  return ConfidenceInterval95(values);
}

std::string FormatCi(const MeanCi& ci) {
  char buffer[64];
  const double magnitude = std::abs(ci.mean);
  const char* format = magnitude >= 1000 ? "%.0f±%.0f"
                       : magnitude >= 10 ? "%.1f±%.1f"
                                         : "%.3f±%.3f";
  std::snprintf(buffer, sizeof(buffer), format, ci.mean, ci.half_width);
  return buffer;
}

void PrintTable(const std::string& title,
                const std::vector<std::string>& header,
                const std::vector<std::vector<std::string>>& rows) {
  std::printf("\n== %s ==\n", title.c_str());
  std::vector<std::size_t> widths(header.size());
  for (std::size_t c = 0; c < header.size(); ++c) widths[c] = header[c].size();
  for (const auto& row : rows) {
    for (std::size_t c = 0; c < row.size() && c < widths.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  const auto print_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      std::printf("%-*s  ", static_cast<int>(widths[c]), row[c].c_str());
    }
    std::printf("\n");
  };
  print_row(header);
  std::size_t total = 0;
  for (const std::size_t w : widths) total += w + 2;
  for (std::size_t i = 0; i < total; ++i) std::printf("-");
  std::printf("\n");
  for (const auto& row : rows) print_row(row);
}

void PrintLetterValues(const std::string& label, std::vector<double> samples) {
  if (samples.empty()) {
    std::printf("%s: no samples\n", label.c_str());
    return;
  }
  std::sort(samples.begin(), samples.end());
  const auto lvs = LetterValues(samples);
  std::printf("%s  (n=%zu)\n", label.c_str(), samples.size());
  static const char* kNames[] = {"M",  "F", "E", "D", "C", "B",
                                 "A",  "Z", "Y", "X", "W"};
  for (std::size_t i = 0; i < lvs.size(); ++i) {
    const char* name = i < std::size(kNames) ? kNames[i] : "?";
    std::printf("  LV %-2s  [%12.3f , %12.3f]\n", name, lvs[i].lower,
                lvs[i].upper);
  }
  std::printf("  p99    %12.3f\n", QuantileSorted(samples, 0.99));
  std::printf("  p99.9  %12.3f\n", QuantileSorted(samples, 0.999));
}

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  return Quantile(std::move(samples), q);
}

}  // namespace lachesis::exp
