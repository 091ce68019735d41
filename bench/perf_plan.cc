// Plan quality: does XSKETCH close the paper's loop? The whole point of
// a selectivity estimator is to steer an optimizer, so this bench runs
// the cost-based twig planner (src/plan) three ways over §6.1 positive
// workloads — P (structure only) and P+V (half the queries carry value
// predicates) — and executes every chosen plan for real:
//
//   estimate   join orders picked from coarsest-XSKETCH cardinalities
//   exact      orders picked from ground-truth cardinalities (the oracle
//              bound: with exact cards the subset DP is provably optimal
//              over left-deep connected orders)
//   naive      the syntactic skeleton order, no statistics at all
//
// The quality metric is the executor's summed *logical* intermediate
// cardinality (ExecStats::logical_rows) — intermediate-result sizes, the
// quantity join ordering exists to minimize — plus wall time per
// strategy. Every executed plan's match count is checked against the
// workload's true count: plans change work, never answers.
//
// A second section reports the binary-vs-holistic choice: how often the
// planner picks the holistic twig join and the measured wall time of the
// mixed (planner-routed) execution against all-binary and all-holistic.
// All three rows time execution alone over plans made up front; the
// routed planning time is its own row.
//
// Scale knobs (see bench_common.h): XS_BENCH_SCALE, XS_BENCH_QUERIES.
//
// --smoke: assert-only pass on tiny inputs — correctness of every
// executed plan, exact-DP optimality (naive >= exact), and the estimate
// quality gate below. Wired into ctest's bench_smoke label.
//
// --delta: the CI gate for scripts/ci_check.sh on a pinned workload:
// estimate-driven plans must stay within XS_BENCH_PLAN_MAX_RATIO
// (default 1.2x) of the true-cardinality plans' summed intermediate
// size, plus a small absolute slack for near-zero sums. Estimates that
// drift enough to mis-order joins by more than that fail the merge.

#include <algorithm>
#include <chrono>
#include <cstring>
#include <vector>

#include "bench_common.h"
#include "exec/streams.h"
#include "exec/structural_join.h"
#include "exec/twig_stack.h"
#include "plan/cardinality.h"
#include "plan/planner.h"
#include "query/evaluator.h"

namespace {

using namespace xsketch;
using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// One strategy's totals over a workload.
struct StrategyTotals {
  double plan_seconds = 0.0;  // planner time (cardinality calls included)
  double exec_seconds = 0.0;
  uint64_t logical_rows = 0;  // summed intermediate cardinality
  uint64_t emitted_rows = 0;
  int mismatches = 0;  // executed count != workload true count
};

uint64_t SatAdd(uint64_t a, uint64_t b) {
  return a > UINT64_MAX - b ? UINT64_MAX : a + b;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  const bool delta = argc > 1 && std::strcmp(argv[1], "--delta") == 0;
  // --delta pins its own sizes so the CI gate ignores XS_BENCH_*.
  const bench::DataSet data =
      smoke ? bench::DataSet{"XMark",
                             data::GenerateXMark({.seed = 42, .scale = 0.02})}
      : delta
          ? bench::DataSet{"XMark",
                           data::GenerateXMark({.seed = 42, .scale = 0.05})}
          : bench::MakeXMark();
  const int queries_per_workload =
      smoke ? 16 : delta ? 60 : bench::BenchQueries();
  // Estimate-driven plans must land within this factor of the
  // true-cardinality plans' summed intermediate size; the +64 absolute
  // slack keeps near-zero sums from turning rounding into a failure.
  const double max_ratio = bench::EnvDouble("XS_BENCH_PLAN_MAX_RATIO", 1.2);

  const core::TwigXSketch sketch = core::TwigXSketch::Coarsest(data.doc);
  const core::Estimator estimator(sketch);
  const query::ExactEvaluator exact(data.doc);
  const plan::EstimatorCardinalities est_cards(estimator);
  const plan::ExactCardinalities exact_cards(exact);

  const exec::StreamIndex index(data.doc);
  const exec::StructuralJoinExecutor executor(index);
  const exec::HolisticTwigJoin holistic(index);

  if (!smoke && !delta) {
    std::printf(
        "# %s scale=%.2f, %d queries/workload, coarsest synopsis %.1f KB\n"
        "# logical = summed intermediate binding-tuple cardinality\n",
        data.name.c_str(), bench::BenchScale(), queries_per_workload,
        sketch.SizeBytes() / 1024.0);
  }

  bool failed = false;
  struct WorkloadSpec {
    const char* name;
    double value_pred_fraction;
    uint64_t seed;
  };
  for (const WorkloadSpec spec : {WorkloadSpec{"P", 0.0, 77},
                                  WorkloadSpec{"P+V", 0.5, 78}}) {
    query::WorkloadOptions wopts;
    wopts.seed = spec.seed;
    wopts.num_queries = queries_per_workload;
    wopts.value_pred_fraction = spec.value_pred_fraction;
    const query::Workload workload =
        query::GeneratePositiveWorkload(data.doc, wopts);

    // Plan every query up front under each provider, binary orders only
    // (consider_holistic off): this section compares join orders, so the
    // operator choice is held fixed.
    plan::PlannerOptions popts;
    popts.consider_holistic = false;

    StrategyTotals est_t, exact_t, naive_t;
    std::vector<plan::TwigPlan> est_plans(workload.queries.size());
    std::vector<plan::TwigPlan> exact_plans(workload.queries.size());
    std::vector<char> skip(workload.queries.size(), 0);

    for (size_t i = 0; i < workload.queries.size(); ++i) {
      const query::TwigQuery& q = workload.queries[i].twig;
      Clock::time_point start = Clock::now();
      auto ep = plan::PlanTwig(q, est_cards, popts);
      est_t.plan_seconds += SecondsSince(start);
      start = Clock::now();
      auto xp = plan::PlanTwig(q, exact_cards, popts);
      exact_t.plan_seconds += SecondsSince(start);
      if (!ep.ok() || !xp.ok()) {
        std::fprintf(stderr, "perf_plan: planning failed: %s\n",
                     (!ep.ok() ? ep.status() : xp.status())
                         .ToString()
                         .c_str());
        return 1;
      }
      est_plans[i] = std::move(ep).value();
      exact_plans[i] = std::move(xp).value();
    }

    // Execute each strategy's orders in a tight per-strategy loop so the
    // wall-time rows compare like with like. A query whose execution
    // trips the emitted-row cap under *any* strategy is dropped from
    // every total (the cap is a resource guard, not a verdict).
    const auto run = [&](StrategyTotals& totals, auto order_of) {
      const Clock::time_point start = Clock::now();
      for (size_t i = 0; i < workload.queries.size(); ++i) {
        if (skip[i]) continue;
        const query::TwigQuery& q = workload.queries[i].twig;
        auto r = executor.ExecuteBinary(q, order_of(i));
        if (!r.ok()) {
          if (r.status().code() == util::StatusCode::kOutOfRange) {
            skip[i] = 1;
            continue;
          }
          std::fprintf(stderr, "perf_plan: execution failed: %s\n",
                       r.status().ToString().c_str());
          std::exit(1);
        }
        const exec::ExecStats& s = r.value();
        if (s.matches != workload.queries[i].true_count) ++totals.mismatches;
        totals.logical_rows = SatAdd(totals.logical_rows, s.logical_rows);
        totals.emitted_rows += s.emitted_rows;
      }
      totals.exec_seconds = SecondsSince(start);
    };
    run(est_t, [&](size_t i) {
      return std::span<const exec::JoinEdge>(est_plans[i].order);
    });
    run(exact_t, [&](size_t i) {
      return std::span<const exec::JoinEdge>(exact_plans[i].order);
    });
    std::vector<std::vector<exec::JoinEdge>> naive_orders;
    naive_orders.reserve(workload.queries.size());
    for (const auto& wq : workload.queries) {
      naive_orders.push_back(plan::NaiveOrder(wq.twig));
    }
    run(naive_t, [&](size_t i) {
      return std::span<const exec::JoinEdge>(naive_orders[i]);
    });
    // Re-run earlier strategies' totals if a later strategy discovered a
    // capped query: totals must cover the identical query set.
    if (std::count(skip.begin(), skip.end(), 1) != 0) {
      const double est_plan_s = est_t.plan_seconds;
      const double exact_plan_s = exact_t.plan_seconds;
      est_t = {};
      exact_t = {};
      naive_t = {};
      est_t.plan_seconds = est_plan_s;
      exact_t.plan_seconds = exact_plan_s;
      run(est_t, [&](size_t i) {
        return std::span<const exec::JoinEdge>(est_plans[i].order);
      });
      run(exact_t, [&](size_t i) {
        return std::span<const exec::JoinEdge>(exact_plans[i].order);
      });
      run(naive_t, [&](size_t i) {
        return std::span<const exec::JoinEdge>(naive_orders[i]);
      });
    }

    const double est_sum = static_cast<double>(est_t.logical_rows);
    const double exact_sum = static_cast<double>(exact_t.logical_rows);
    const double naive_sum = static_cast<double>(naive_t.logical_rows);
    const double ratio = est_sum / std::max(1.0, exact_sum);
    const int skipped = static_cast<int>(
        std::count(skip.begin(), skip.end(), 1));

    if (!smoke && !delta) {
      std::printf("\n[%s] %zu queries (%d capped/skipped)\n", spec.name,
                  workload.queries.size(), skipped);
      const auto row = [&](const char* name, const StrategyTotals& t) {
        std::printf(
            "  %-9s logical %12llu   %5.2fx   plan %7.1f ms   exec %7.1f ms"
            "   %s\n",
            name, static_cast<unsigned long long>(t.logical_rows),
            static_cast<double>(t.logical_rows) / std::max(1.0, exact_sum),
            t.plan_seconds * 1e3, t.exec_seconds * 1e3,
            t.mismatches == 0 ? "counts exact" : "COUNT MISMATCH");
      };
      row("estimate", est_t);
      row("exact", exact_t);
      row("naive", naive_t);
    }

    // Correctness: every executed plan reproduces the true count.
    if (est_t.mismatches + exact_t.mismatches + naive_t.mismatches != 0) {
      std::fprintf(stderr,
                   "perf_plan FAILED [%s]: plans changed results "
                   "(est %d, exact %d, naive %d mismatches)\n",
                   spec.name, est_t.mismatches, exact_t.mismatches,
                   naive_t.mismatches);
      failed = true;
    }
    // Optimality oracle: the exact-cardinality DP minimizes summed
    // logical intermediates over this plan space, so naive can never
    // beat it. A violation means the executor's accounting and the
    // planner's cost model have diverged.
    if (naive_sum < exact_sum) {
      std::fprintf(stderr,
                   "perf_plan FAILED [%s]: naive %0.f < exact-planned %.0f "
                   "(exact DP must be optimal)\n",
                   spec.name, naive_sum, exact_sum);
      failed = true;
    }
    // The headline gate: estimate-driven plans within max_ratio of the
    // true-cardinality plans.
    const bool gate_ok = est_sum <= max_ratio * exact_sum + 64.0;
    if (smoke || delta) {
      std::printf(
          "bench_plan [%-3s]: est %.0f, exact %.0f, naive %.0f logical rows "
          "(%.2fx, gate <= %.2fx)\n",
          spec.name, est_sum, exact_sum, naive_sum, ratio, max_ratio);
    }
    if (!gate_ok) {
      std::fprintf(stderr,
                   "bench_plan FAILED [%s]: estimate-planned %.0f logical "
                   "rows exceeds %.2fx of exact-planned %.0f\n",
                   spec.name, est_sum, max_ratio, exact_sum);
      failed = true;
    }

    if (delta) continue;

    // Operator choice: let the planner route binary vs holistic and
    // compare the mixed execution against forcing either operator. Every
    // query is planned before the timed loops, so all three execution
    // rows time execution alone; routed planning is reported on its own.
    plan::PlannerOptions hopts;  // consider_holistic = true
    std::vector<plan::TwigPlan> routed_plans(workload.queries.size());
    int holistic_chosen = 0;
    const Clock::time_point plan_start = Clock::now();
    for (size_t i = 0; i < workload.queries.size(); ++i) {
      if (skip[i]) continue;
      auto p = plan::PlanTwig(workload.queries[i].twig, est_cards, hopts);
      if (!p.ok()) {
        std::fprintf(stderr, "perf_plan: routed planning failed: %s\n",
                     p.status().ToString().c_str());
        return 1;
      }
      routed_plans[i] = std::move(p).value();
      if (routed_plans[i].use_holistic) ++holistic_chosen;
    }
    const double routed_plan_s = SecondsSince(plan_start);

    int op_mismatches = 0;
    const auto time_exec = [&](auto execute) {
      const Clock::time_point start = Clock::now();
      for (size_t i = 0; i < workload.queries.size(); ++i) {
        if (skip[i]) continue;
        auto r = execute(workload.queries[i].twig, i);
        if (r.ok() && r.value().matches != workload.queries[i].true_count) {
          ++op_mismatches;
        }
      }
      return SecondsSince(start);
    };
    const double mixed_s =
        time_exec([&](const query::TwigQuery& q, size_t i) {
          return routed_plans[i].use_holistic
                     ? holistic.Execute(q)
                     : executor.ExecuteBinary(q, routed_plans[i].order);
        });
    const double binary_s =
        time_exec([&](const query::TwigQuery& q, size_t i) {
          return executor.ExecuteBinary(q, est_plans[i].order);
        });
    const double holistic_s =
        time_exec([&](const query::TwigQuery& q, size_t) {
          return holistic.Execute(q);
        });
    if (op_mismatches != 0) {
      std::fprintf(stderr,
                   "perf_plan FAILED [%s]: operator choice changed results "
                   "(%d mismatches)\n",
                   spec.name, op_mismatches);
      failed = true;
    }
    if (!smoke) {
      std::printf(
          "  routed    %d/%zu holistic   mixed %7.1f ms   all-binary %7.1f "
          "ms   all-holistic %7.1f ms   (execution only)\n",
          holistic_chosen, workload.queries.size() - skipped, mixed_s * 1e3,
          binary_s * 1e3, holistic_s * 1e3);
      std::printf("  routing   plan %7.1f ms\n", routed_plan_s * 1e3);
    }
  }

  if (failed) return 1;
  if (smoke) std::printf("perf_plan --smoke OK\n");
  return 0;
}
