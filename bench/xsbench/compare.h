// Reading BENCHMARK.json and run outputs, and judging two sets of runs
// against the bounds BENCHMARK.json fixes.
//
// A run output is what `xsbench run` prints: a header line
// "# xsbench workload=<name> ..." first and the result object
// {"correct", "attempted", "failed", "metrics"} as the last line. A file
// may hold several run outputs one after another (`>>` appends).
//
// Compare (per workload, per end-to-end metric): with each side's median
// and the parent's interquartile spread (Python's
// statistics.quantiles(n=4) quartiles, as a share of the parent median),
//   unresolved  the spread exceeds the bound, unless every change run is
//               better than every parent run;
//   regressed   otherwise, when the change median is worse than the parent
//               median by more than the bound;
//   ok          otherwise.
// A named claim (workload:metric) holds when the change wins at least
// 9/10 of the (parent[i], change[i]) pairs, ties counting for neither,
// and the medians differ in the better direction by more than the
// parent's interquartile range.

#ifndef XSKETCH_BENCH_XSBENCH_COMPARE_H_
#define XSKETCH_BENCH_XSBENCH_COMPARE_H_

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace xsbench {

struct MetricSpec {
  std::string name;
  std::string unit;
  bool higher_is_better = false;
  double bound = 0.0;  // end-to-end only: allowed worsening, share of median
};

struct BenchSpec {
  std::vector<std::string> workloads;
  std::vector<MetricSpec> end_to_end;
  std::vector<MetricSpec> per_layer;
};

xsketch::util::Result<BenchSpec> ParseBenchSpec(std::string_view json);
xsketch::util::Result<BenchSpec> LoadBenchSpec(const std::string& path);

struct RunOutput {
  std::string workload;
  bool correct = false;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::map<std::string, double> metrics;
};

xsketch::util::Result<std::vector<RunOutput>> ParseRunOutputs(
    std::string_view text);

// Quartiles of `values` as statistics.quantiles(values, n=4) computes them
// (the default 'exclusive' method). Needs at least two values.
std::vector<double> Quartiles(std::vector<double> values);
double Median(std::vector<double> values);

enum class Verdict { kOk, kRegressed, kUnresolved };

struct MetricComparison {
  std::string workload;
  std::string metric;
  double parent_median = 0.0;
  double change_median = 0.0;
  double worse_share = 0.0;   // > 0: the change is worse by this share
  double parent_spread = 0.0;  // parent IQR / parent median
  Verdict verdict = Verdict::kOk;
};

struct ClaimResult {
  std::string workload;
  std::string metric;
  int wins = 0;
  int pairs = 0;
  double gap = 0.0;          // change better than parent by this much
  double parent_iqr = 0.0;
  bool met = false;
};

struct Comparison {
  std::vector<MetricComparison> metrics;
  std::vector<ClaimResult> claims;
  std::vector<std::string> problems;  // incorrect runs, missing metrics

  bool regressed() const;
};

// `claims` are "workload:metric" names.
Comparison Compare(const BenchSpec& spec,
                   const std::vector<RunOutput>& parent,
                   const std::vector<RunOutput>& change,
                   const std::vector<std::string>& claims);

void PrintComparison(const Comparison& comparison, std::FILE* out);

}  // namespace xsbench

#endif  // XSKETCH_BENCH_XSBENCH_COMPARE_H_
