// xsbench command line.
//
//   xsbench run --workload W --seed N --seconds T --trace 0|1
//               [--out DIR]
//       One run of workload W. Prints "# xsbench workload=W ..." first,
//       notes as "# ..." lines, and the result object as the last line.
//   xsbench compare [--bench BENCHMARK.json] [--claim W:METRIC]...
//                   PARENT... -- CHANGE...
//       Judges the change's runs against the parent's with the bounds in
//       BENCHMARK.json; exits 1 on a regression, an unmet claim, or an
//       incorrect run.
//   xsbench smoke BENCHMARK.json [--out DIR]
//       Every workload at tiny scale, untraced and traced: answers must be
//       right and every metric BENCHMARK.json names must be printed.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "compare.h"
#include "net/json.h"
#include "util/posix_io.h"
#include "xsbench.h"

namespace {

using xsbench::RunOptions;
using xsbench::RunReport;

int Usage() {
  std::fprintf(
      stderr,
      "usage: xsbench run --workload W --seed N --seconds T --trace 0|1 "
      "[--out DIR]\n"
      "       xsbench compare [--bench BENCHMARK.json] [--claim W:METRIC]... "
      "PARENT... -- CHANGE...\n"
      "       xsbench smoke BENCHMARK.json [--out DIR]\n");
  return 2;
}

std::string ResultLine(const RunReport& report) {
  std::string out = "{\"correct\": ";
  out += report.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(report.attempted);
  out += ", \"failed\": " + std::to_string(report.failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const xsbench::Metric& m = report.metrics[i];
    if (i > 0) out += ", ";
    xsketch::net::AppendJsonString(&out, m.name);
    out += ": {\"value\": ";
    xsketch::net::AppendJsonNumber(&out, m.value);
    out += ", \"unit\": ";
    xsketch::net::AppendJsonString(&out, m.unit);
    out += "}";
  }
  out += "}}";
  return out;
}

void PrintRun(const RunOptions& o, const RunReport& report, std::FILE* out) {
  std::fprintf(out, "# xsbench workload=%s seed=%llu seconds=%g trace=%d%s\n",
               o.workload.c_str(), static_cast<unsigned long long>(o.seed),
               o.seconds, o.trace ? 1 : 0, o.smoke ? " smoke" : "");
  for (const std::string& note : report.notes) {
    std::fprintf(out, "# %s\n", note.c_str());
  }
  std::fprintf(out, "%s\n", ResultLine(report).c_str());
  std::fflush(out);
}

int Run(int argc, char** argv) {
  RunOptions o;
  o.out_dir = ".";
  bool have_workload = false, have_seed = false;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      return Usage();
    } else if (arg == "--workload") {
      o.workload = argv[++i];
      have_workload = true;
    } else if (arg == "--seed") {
      o.seed = std::strtoull(argv[++i], nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace") {
      o.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--out") {
      o.out_dir = argv[++i];
    } else {
      return Usage();
    }
  }
  if (!have_workload || !have_seed) return Usage();
  auto report = xsbench::RunWorkload(o);
  if (!report.ok()) {
    std::fprintf(stderr, "xsbench: %s\n", report.status().ToString().c_str());
    return 1;
  }
  PrintRun(o, report.value(), stdout);
  return 0;
}

int Compare(int argc, char** argv) {
  std::string bench = "BENCHMARK.json";
  std::vector<std::string> claims, parent_files, change_files;
  bool after_separator = false;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--") {
      after_separator = true;
    } else if (arg == "--bench" && i + 1 < argc) {
      bench = argv[++i];
    } else if (arg == "--claim" && i + 1 < argc) {
      claims.push_back(argv[++i]);
    } else {
      (after_separator ? change_files : parent_files).push_back(arg);
    }
  }
  if (parent_files.empty() || change_files.empty()) return Usage();
  auto spec = xsbench::LoadBenchSpec(bench);
  if (!spec.ok()) {
    std::fprintf(stderr, "xsbench: %s\n", spec.status().ToString().c_str());
    return 2;
  }
  std::vector<xsbench::RunOutput> parent, change;
  for (auto* side : {&parent_files, &change_files}) {
    for (const std::string& path : *side) {
      std::string text;
      xsketch::util::Status st = xsketch::util::ReadFileToString(path, &text);
      auto runs = st.ok() ? xsbench::ParseRunOutputs(text)
                          : xsketch::util::Result<
                                std::vector<xsbench::RunOutput>>(st);
      if (!runs.ok()) {
        std::fprintf(stderr, "xsbench: %s: %s\n", path.c_str(),
                     runs.status().ToString().c_str());
        return 2;
      }
      auto& into = side == &parent_files ? parent : change;
      into.insert(into.end(), runs.value().begin(), runs.value().end());
    }
  }
  const xsbench::Comparison result =
      xsbench::Compare(spec.value(), parent, change, claims);
  xsbench::PrintComparison(result, stdout);
  return result.regressed() ? 1 : 0;
}

int Smoke(int argc, char** argv) {
  if (argc < 3) return Usage();
  std::string out_dir = ".";
  if (argc >= 5 && std::strcmp(argv[3], "--out") == 0) out_dir = argv[4];
  auto spec = xsbench::LoadBenchSpec(argv[2]);
  if (!spec.ok()) {
    std::fprintf(stderr, "xsbench: %s\n", spec.status().ToString().c_str());
    return 2;
  }
  int failures = 0;
  for (const std::string& workload : spec.value().workloads) {
    for (const bool trace : {false, true}) {
      RunOptions o;
      o.workload = workload;
      o.seed = 1;
      o.seconds = 2.0;
      o.trace = trace;
      o.smoke = true;
      o.out_dir = out_dir;
      auto report = xsbench::RunWorkload(o);
      if (!report.ok()) {
        std::fprintf(stderr, "FAIL %s trace=%d: %s\n", workload.c_str(),
                     trace, report.status().ToString().c_str());
        ++failures;
        continue;
      }
      PrintRun(o, report.value(), stdout);
      std::set<std::string> printed;
      for (const xsbench::Metric& m : report.value().metrics) {
        printed.insert(m.name);
      }
      std::vector<std::string> missing;
      for (const xsbench::MetricSpec& m :
           trace ? spec.value().per_layer : spec.value().end_to_end) {
        if (printed.count(m.name) == 0) missing.push_back(m.name);
      }
      const bool ok = report.value().correct &&
                      report.value().failed == 0 && missing.empty();
      if (!ok) {
        ++failures;
        std::fprintf(stderr, "FAIL %s trace=%d: correct=%d failed=%lld",
                     workload.c_str(), trace, report.value().correct,
                     static_cast<long long>(report.value().failed));
        for (const std::string& m : missing) {
          std::fprintf(stderr, " missing=%s", m.c_str());
        }
        std::fprintf(stderr, "\n");
      }
    }
  }
  std::printf("xsbench smoke: %s\n", failures == 0 ? "OK" : "FAILED");
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::signal(SIGPIPE, SIG_IGN);
  if (argc < 2) return Usage();
  const std::string cmd = argv[1];
  if (cmd == "run") return Run(argc, argv);
  if (cmd == "compare") return Compare(argc, argv);
  if (cmd == "smoke") return Smoke(argc, argv);
  return Usage();
}
