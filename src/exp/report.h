// Reporting helpers for the bench harnesses: fixed-width tables with
// mean +/- 95% CI cells, letter-value summaries (Fig 13), and quick/full
// mode selection via LACHESIS_BENCH_MODE.
#ifndef LACHESIS_EXP_REPORT_H_
#define LACHESIS_EXP_REPORT_H_

#include <functional>
#include <string>
#include <vector>

#include "common/stats.h"
#include "exp/scenario.h"

namespace lachesis::exp {

// Benchmark sizing knobs, from the environment:
//   LACHESIS_BENCH_MODE=quick (default) | full
//   LACHESIS_BENCH_WORKERS=<n>  stepper threads for fleet-mode benches
//                               (default 1 = sequential; clamped to >= 1)
struct BenchMode {
  int repetitions;
  SimDuration warmup;
  SimDuration measure;
  bool full;
  int workers = 1;

  static BenchMode FromEnv();
};

// Aggregates one scalar across repetitions.
MeanCi Aggregate(const std::vector<RunResult>& runs,
                 const std::function<double(const RunResult&)>& extract);

// "123.4±5.6" with sensible precision.
std::string FormatCi(const MeanCi& ci);

// Prints a fixed-width table: header row then data rows.
void PrintTable(const std::string& title,
                const std::vector<std::string>& header,
                const std::vector<std::vector<std::string>>& rows);

// Prints a letter-value summary (median, fourths, eighths, ... plus tail
// percentiles) for a sample set -- the textual equivalent of a boxen plot.
void PrintLetterValues(const std::string& label, std::vector<double> samples);

// Percentile helper on a sample set (q in [0,1]); 0 for empty input.
double Percentile(std::vector<double> samples, double q);

}  // namespace lachesis::exp

#endif  // LACHESIS_EXP_REPORT_H_
