#include "compare.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "net/json.h"
#include "util/posix_io.h"

namespace xsbench {

namespace {

namespace net = xsketch::net;
using xsketch::util::Result;
using xsketch::util::Status;

Result<std::vector<MetricSpec>> ParseMetrics(const net::JsonValue& root,
                                             std::string_view key,
                                             bool with_bound) {
  const net::JsonValue* list = root.Find(key);
  if (list == nullptr || list->kind() != net::JsonValue::Kind::kArray) {
    return Status::InvalidArgument("BENCHMARK.json: missing array '" +
                                   std::string(key) + "'");
  }
  std::vector<MetricSpec> out;
  for (const net::JsonValue& m : list->array()) {
    const std::string* name = m.FindString("name");
    const std::string* unit = m.FindString("unit");
    const std::string* better = m.FindString("better");
    const double* bound = m.FindNumber("bound");
    if (name == nullptr || unit == nullptr || better == nullptr ||
        (*better != "lower" && *better != "higher") ||
        (with_bound && bound == nullptr)) {
      return Status::InvalidArgument("BENCHMARK.json: malformed entry in '" +
                                     std::string(key) + "'");
    }
    out.push_back({*name, *unit, *better == "higher",
                   with_bound ? *bound : 0.0});
  }
  return out;
}

// Positive when `candidate` is worse than `reference`, as a share of
// `reference`.
double WorseShare(const MetricSpec& m, double reference, double candidate) {
  const double diff =
      m.higher_is_better ? reference - candidate : candidate - reference;
  if (reference == 0.0) {
    return diff > 0 ? std::numeric_limits<double>::infinity() : 0.0;
  }
  return diff / std::abs(reference);
}

bool Better(const MetricSpec& m, double a, double b) {
  return m.higher_is_better ? a > b : a < b;
}

const char* VerdictName(Verdict v) {
  switch (v) {
    case Verdict::kOk:
      return "ok";
    case Verdict::kRegressed:
      return "REGRESSED";
    case Verdict::kUnresolved:
      return "unresolved";
  }
  return "?";
}

std::vector<const RunOutput*> RunsOf(const std::vector<RunOutput>& runs,
                                     const std::string& workload) {
  std::vector<const RunOutput*> out;
  for (const RunOutput& r : runs) {
    if (r.workload == workload) out.push_back(&r);
  }
  return out;
}

// Values of `metric` across `runs`; false (and a problem noted) when a
// run lacks it.
bool Values(const std::vector<const RunOutput*>& runs,
            const std::string& metric, const char* side,
            std::vector<double>* values, std::vector<std::string>* problems) {
  values->clear();
  for (const RunOutput* r : runs) {
    auto it = r->metrics.find(metric);
    if (it == r->metrics.end()) {
      problems->push_back(std::string(side) + " run of " + r->workload +
                          " lacks metric " + metric);
      return false;
    }
    values->push_back(it->second);
  }
  return true;
}

}  // namespace

Result<BenchSpec> ParseBenchSpec(std::string_view json) {
  auto parsed = net::ParseJson(json);
  if (!parsed.ok()) return parsed.status();
  const net::JsonValue& root = parsed.value();
  BenchSpec spec;
  const net::JsonValue* workloads = root.Find("workloads");
  if (workloads == nullptr ||
      workloads->kind() != net::JsonValue::Kind::kArray) {
    return Status::InvalidArgument("BENCHMARK.json: missing 'workloads'");
  }
  for (const net::JsonValue& w : workloads->array()) {
    const std::string* name = w.FindString("name");
    if (name == nullptr) {
      return Status::InvalidArgument("BENCHMARK.json: unnamed workload");
    }
    spec.workloads.push_back(*name);
  }
  auto e2e = ParseMetrics(root, "end_to_end", /*with_bound=*/true);
  if (!e2e.ok()) return e2e.status();
  auto layers = ParseMetrics(root, "per_layer", /*with_bound=*/false);
  if (!layers.ok()) return layers.status();
  spec.end_to_end = std::move(e2e).value();
  spec.per_layer = std::move(layers).value();
  return spec;
}

Result<BenchSpec> LoadBenchSpec(const std::string& path) {
  std::string text;
  if (Status st = xsketch::util::ReadFileToString(path, &text); !st.ok()) {
    return st;
  }
  return ParseBenchSpec(text);
}

namespace {

// One run: `text` starts at its header line and ends before the next.
Result<RunOutput> ParseRun(std::string_view text) {
  RunOutput run;
  const size_t key = text.find("workload=");
  const size_t line_end = text.find('\n');
  if (key == std::string_view::npos || key > line_end) {
    return Status::InvalidArgument("header line names no workload");
  }
  const size_t value = key + 9;
  run.workload = std::string(
      text.substr(value, text.find_first_of(" \n", value) - value));

  while (!text.empty() && (text.back() == '\n' || text.back() == ' ')) {
    text.remove_suffix(1);
  }
  const size_t last = text.rfind('\n');
  auto parsed = net::ParseJson(
      last == std::string_view::npos ? text : text.substr(last + 1));
  if (!parsed.ok()) return parsed.status();
  const net::JsonValue& root = parsed.value();
  const net::JsonValue* correct = root.Find("correct");
  const double* attempted = root.FindNumber("attempted");
  const double* failed = root.FindNumber("failed");
  const net::JsonValue* metrics = root.Find("metrics");
  if (correct == nullptr || correct->kind() != net::JsonValue::Kind::kBool ||
      attempted == nullptr || failed == nullptr || metrics == nullptr ||
      metrics->kind() != net::JsonValue::Kind::kObject) {
    return Status::InvalidArgument("result line lacks a required key");
  }
  run.correct = correct->bool_value();
  run.attempted = static_cast<int64_t>(*attempted);
  run.failed = static_cast<int64_t>(*failed);
  for (const auto& [name, m] : metrics->object()) {
    const double* v = m.FindNumber("value");
    if (v == nullptr) {
      return Status::InvalidArgument("metric " + name + " has no value");
    }
    run.metrics[name] = *v;
  }
  return run;
}

}  // namespace

Result<std::vector<RunOutput>> ParseRunOutputs(std::string_view text) {
  constexpr std::string_view kHeader = "# xsbench ";
  std::vector<size_t> starts;
  for (size_t at = text.find(kHeader); at != std::string_view::npos;
       at = text.find(kHeader, at + 1)) {
    if (at == 0 || text[at - 1] == '\n') starts.push_back(at);
  }
  if (starts.empty()) {
    return Status::InvalidArgument("no '# xsbench' header line");
  }
  std::vector<RunOutput> runs;
  for (size_t i = 0; i < starts.size(); ++i) {
    const size_t end = i + 1 < starts.size() ? starts[i + 1] : text.size();
    auto run = ParseRun(text.substr(starts[i], end - starts[i]));
    if (!run.ok()) return run.status();
    runs.push_back(std::move(run).value());
  }
  return runs;
}

std::vector<double> Quartiles(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const long ld = static_cast<long>(values.size());
  const long m = ld + 1;
  std::vector<double> q;
  for (long i = 1; i < 4; ++i) {
    long j = i * m / 4;
    j = std::clamp(j, 1L, ld - 1);
    const long delta = i * m - j * 4;
    q.push_back((values[j - 1] * static_cast<double>(4 - delta) +
                 values[j] * static_cast<double>(delta)) /
                4.0);
  }
  return q;
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  if (n == 0) return 0.0;
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

bool Comparison::regressed() const {
  if (!problems.empty()) return true;
  for (const MetricComparison& m : metrics) {
    if (m.verdict == Verdict::kRegressed) return true;
  }
  for (const ClaimResult& c : claims) {
    if (!c.met) return true;
  }
  return false;
}

Comparison Compare(const BenchSpec& spec,
                   const std::vector<RunOutput>& parent,
                   const std::vector<RunOutput>& change,
                   const std::vector<std::string>& claims) {
  Comparison out;
  for (const auto* runs : {&parent, &change}) {
    for (const RunOutput& r : *runs) {
      if (!r.correct || r.failed != 0) {
        out.problems.push_back(
            std::string(runs == &parent ? "parent" : "change") + " run of " +
            r.workload + " is incorrect or has failed operations");
      }
    }
  }
  std::vector<double> pv, cv;
  for (const std::string& w : spec.workloads) {
    const auto p_runs = RunsOf(parent, w);
    const auto c_runs = RunsOf(change, w);
    if (p_runs.empty() && c_runs.empty()) continue;
    if (p_runs.empty() || c_runs.empty()) {
      out.problems.push_back("workload " + w + " has runs on one side only");
      continue;
    }
    for (const MetricSpec& m : spec.end_to_end) {
      if (!Values(p_runs, m.name, "parent", &pv, &out.problems) ||
          !Values(c_runs, m.name, "change", &cv, &out.problems)) {
        continue;
      }
      MetricComparison mc;
      mc.workload = w;
      mc.metric = m.name;
      mc.parent_median = Median(pv);
      mc.change_median = Median(cv);
      mc.worse_share = WorseShare(m, mc.parent_median, mc.change_median);
      if (pv.size() >= 2 && mc.parent_median != 0.0) {
        const std::vector<double> q = Quartiles(pv);
        mc.parent_spread = (q[2] - q[0]) / std::abs(mc.parent_median);
      }
      bool all_better = true;
      for (double c : cv) {
        for (double p : pv) all_better = all_better && Better(m, c, p);
      }
      if (mc.parent_spread > m.bound && !all_better) {
        mc.verdict = Verdict::kUnresolved;
      } else if (mc.worse_share > m.bound) {
        mc.verdict = Verdict::kRegressed;
      }
      out.metrics.push_back(mc);
    }
  }
  for (const std::string& claim : claims) {
    ClaimResult cr;
    const size_t colon = claim.find(':');
    cr.workload = claim.substr(0, colon);
    cr.metric = colon == std::string::npos ? "" : claim.substr(colon + 1);
    const MetricSpec* m = nullptr;
    for (const MetricSpec& s : spec.end_to_end) {
      if (s.name == cr.metric) m = &s;
    }
    const auto p_runs = RunsOf(parent, cr.workload);
    const auto c_runs = RunsOf(change, cr.workload);
    if (m == nullptr || p_runs.empty() || c_runs.empty() ||
        !Values(p_runs, cr.metric, "parent", &pv, &out.problems) ||
        !Values(c_runs, cr.metric, "change", &cv, &out.problems)) {
      out.problems.push_back("claim " + claim + " names no measured metric");
      continue;
    }
    cr.pairs = static_cast<int>(std::min(pv.size(), cv.size()));
    for (int i = 0; i < cr.pairs; ++i) {
      if (Better(*m, cv[i], pv[i])) ++cr.wins;
    }
    const double pm = Median(pv);
    const double cm = Median(cv);
    cr.gap = m->higher_is_better ? cm - pm : pm - cm;
    if (pv.size() >= 2) {
      const std::vector<double> q = Quartiles(pv);
      cr.parent_iqr = q[2] - q[0];
    }
    cr.met = cr.pairs > 0 && cr.wins * 10 >= cr.pairs * 9 &&
             cr.gap > cr.parent_iqr;
    out.claims.push_back(cr);
  }
  return out;
}

void PrintComparison(const Comparison& comparison, std::FILE* out) {
  std::fprintf(out, "%-12s %-16s %14s %14s %9s %9s  %s\n", "workload",
               "metric", "parent_median", "change_median", "worse", "spread",
               "verdict");
  for (const MetricComparison& m : comparison.metrics) {
    std::fprintf(out, "%-12s %-16s %14.6g %14.6g %8.2f%% %8.2f%%  %s\n",
                 m.workload.c_str(), m.metric.c_str(), m.parent_median,
                 m.change_median, 100.0 * m.worse_share,
                 100.0 * m.parent_spread, VerdictName(m.verdict));
  }
  for (const ClaimResult& c : comparison.claims) {
    std::fprintf(out,
                 "claim %s:%s  wins %d/%d  median gap %.6g vs parent IQR "
                 "%.6g  %s\n",
                 c.workload.c_str(), c.metric.c_str(), c.wins, c.pairs, c.gap,
                 c.parent_iqr, c.met ? "met" : "NOT MET");
  }
  for (const std::string& p : comparison.problems) {
    std::fprintf(out, "problem: %s\n", p.c_str());
  }
}

}  // namespace xsbench
