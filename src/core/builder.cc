#include "core/builder.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/percentiles.h"
#include "util/thread_pool.h"

namespace xsketch::core {

namespace {

using Clock = std::chrono::steady_clock;

double MillisSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// Elements of v whose parent lies in u (b-stabilize split set).
std::vector<xml::NodeId> ElementsWithParentIn(const Synopsis& syn,
                                              SynNodeId v, SynNodeId u) {
  std::vector<xml::NodeId> subset;
  const xml::Document& doc = syn.doc();
  for (xml::NodeId e : syn.Extent(v)) {
    const xml::NodeId p = doc.parent(e);
    if (p != xml::kInvalidNode && syn.NodeOf(p) == u) subset.push_back(e);
  }
  return subset;
}

// Elements of u with at least one child in v (f-stabilize split set).
std::vector<xml::NodeId> ElementsWithChildIn(const Synopsis& syn,
                                             SynNodeId u, SynNodeId v) {
  std::vector<xml::NodeId> subset;
  const xml::Document& doc = syn.doc();
  for (xml::NodeId e : syn.Extent(u)) {
    bool has = false;
    doc.ForEachChild(e, [&](xml::NodeId c) {
      if (!has && syn.NodeOf(c) == v) has = true;
    });
    if (has) subset.push_back(e);
  }
  return subset;
}

bool ProperSubset(size_t subset, size_t total) {
  return subset > 0 && subset < total;
}

}  // namespace

bool ApplyRefinement(TwigXSketch* sketch, const Refinement& r) {
  const Synopsis& syn = sketch->synopsis();
  switch (r.kind) {
    case Refinement::Kind::kBStabilize: {
      // Split r.node so that the edge (r.other -> subset) becomes B-stable.
      const SynEdge* edge = syn.FindEdge(r.other, r.node);
      if (edge == nullptr || edge->backward_stable) return false;
      std::vector<xml::NodeId> subset =
          ElementsWithParentIn(syn, r.node, r.other);
      if (!ProperSubset(subset.size(), syn.Extent(r.node).size())) {
        return false;
      }
      sketch->SplitNode(r.node, subset);
      return true;
    }
    case Refinement::Kind::kFStabilize: {
      const SynEdge* edge = syn.FindEdge(r.node, r.other);
      if (edge == nullptr || edge->forward_stable) return false;
      std::vector<xml::NodeId> subset =
          ElementsWithChildIn(syn, r.node, r.other);
      if (!ProperSubset(subset.size(), syn.Extent(r.node).size())) {
        return false;
      }
      sketch->SplitNode(r.node, subset);
      return true;
    }
    case Refinement::Kind::kEdgeRefine: {
      const NodeSummary& s = sketch->summary(r.node);
      if (s.scope.empty()) return false;
      // Pointless once the histogram is exact (buckets < budget).
      if (s.hist.bucket_count() < s.bucket_budget) return false;
      sketch->RefineEdgeHistogram(r.node);
      return true;
    }
    case Refinement::Kind::kEdgeExpand:
      return sketch->ExpandScope(r.node, r.ref);
    case Refinement::Kind::kValueRefine: {
      const NodeSummary& s = sketch->summary(r.node);
      if (s.values.empty()) return false;
      if (s.values.bucket_count() < s.value_bucket_budget) return false;
      sketch->RefineValueHistogram(r.node);
      return true;
    }
    case Refinement::Kind::kValueExpand:
      return sketch->ExpandValueScope(r.node, r.ref);
  }
  return false;
}

const char* RefinementKindName(Refinement::Kind kind) {
  switch (kind) {
    case Refinement::Kind::kBStabilize: return "b-stabilize";
    case Refinement::Kind::kFStabilize: return "f-stabilize";
    case Refinement::Kind::kEdgeRefine: return "edge-refine";
    case Refinement::Kind::kEdgeExpand: return "edge-expand";
    case Refinement::Kind::kValueRefine: return "value-refine";
    case Refinement::Kind::kValueExpand: return "value-expand";
  }
  return "unknown";
}

XBuild::XBuild(const xml::Document& doc, const BuildOptions& options)
    : doc_(doc), options_(options) {
  // Fail fast on nonsensical sub-options instead of aborting mid-build.
  XS_CHECK_MSG(options_.num_threads >= 0,
               "BuildOptions::num_threads must be >= 0");
  const util::Status coarsest = options_.coarsest.Validate();
  XS_CHECK_MSG(coarsest.ok(), coarsest.ToString().c_str());
  const util::Status estimator = options_.estimator.Validate();
  XS_CHECK_MSG(estimator.ok(), estimator.ToString().c_str());
}

double XBuild::WorkloadError(const TwigXSketch& sketch,
                             const query::Workload& workload,
                             const EstimatorOptions& options) {
  Estimator estimator(sketch, options);
  std::vector<double> estimates;
  estimates.reserve(workload.queries.size());
  for (const auto& q : workload.queries) {
    estimates.push_back(estimator.Estimate(q.twig));
  }
  return query::AvgRelativeError(workload, estimates,
                                 workload.SanityBound());
}

std::vector<Refinement> XBuild::GenerateCandidates(const TwigXSketch& sketch,
                                                   util::Rng& rng) const {
  const Synopsis& syn = sketch.synopsis();

  // Node sampling weights: extent size * (1 + unstable incident edges).
  std::vector<double> cumulative(syn.node_count());
  double acc = 0.0;
  for (SynNodeId n = 0; n < syn.node_count(); ++n) {
    const double w =
        static_cast<double>(syn.node(n).count) *
        (1.0 + static_cast<double>(syn.UnstableDegree(n)));
    acc += w;
    cumulative[n] = acc;
  }
  if (acc <= 0.0) return {};

  auto sample_node = [&]() -> SynNodeId {
    const double u = rng.NextDouble() * acc;
    return static_cast<SynNodeId>(
        std::lower_bound(cumulative.begin(), cumulative.end(), u) -
        cumulative.begin());
  };

  std::vector<Refinement> out;
  int guard = 0;
  while (static_cast<int>(out.size()) < options_.candidates_per_iteration &&
         ++guard < options_.candidates_per_iteration * 8) {
    const SynNodeId n = sample_node();
    const SynNode& node = syn.node(n);
    const NodeSummary& summary = sketch.summary(n);

    // Collect applicable refinements at n, then pick one at random.
    std::vector<Refinement> local;
    if (options_.enable_structural) {
      for (SynNodeId p : node.parents) {
        const SynEdge* e = syn.FindEdge(p, n);
        if (e != nullptr && !e->backward_stable) {
          local.push_back({Refinement::Kind::kBStabilize, n, p, {}});
        }
      }
      for (const SynEdge& e : node.children) {
        if (!e.forward_stable) {
          local.push_back({Refinement::Kind::kFStabilize, n, e.child, {}});
        }
      }
    }
    if (options_.enable_edge_refine && !summary.scope.empty() &&
        summary.hist.bucket_count() >= summary.bucket_budget) {
      local.push_back({Refinement::Kind::kEdgeRefine, n, kInvalidSynNode, {}});
    }
    if (options_.enable_edge_expand &&
        static_cast<int>(summary.scope.size()) < options_.max_hist_dims) {
      for (const SynEdge& e : node.children) {
        if (summary.FindForwardDim(n, e.child) < 0) {
          local.push_back({Refinement::Kind::kEdgeExpand, n, kInvalidSynNode,
                           CountRef{true, n, e.child}});
        }
      }
      if (options_.allow_backward_counts) {
        // Backward candidates vastly outnumber forward ones (every edge of
        // every TSN ancestor); sample a bounded handful so they do not
        // drown out the other refinement kinds.
        std::vector<CountRef> backward;
        for (SynNodeId a : syn.TwigStableNeighborhood(n)) {
          if (a == n) continue;
          for (const SynEdge& e : syn.node(a).children) {
            if (summary.FindBackwardDim(a, e.child) < 0) {
              backward.push_back(CountRef{false, a, e.child});
            }
          }
        }
        for (int pick = 0; pick < 2 && !backward.empty(); ++pick) {
          const size_t i = rng.Uniform(backward.size());
          local.push_back({Refinement::Kind::kEdgeExpand, n,
                           kInvalidSynNode, backward[i]});
          backward.erase(backward.begin() + static_cast<long>(i));
        }
      }
    }
    if (options_.enable_value_refine && !summary.values.empty() &&
        summary.values.bucket_count() >= summary.value_bucket_budget) {
      local.push_back(
          {Refinement::Kind::kValueRefine, n, kInvalidSynNode, {}});
    }
    if (options_.allow_value_correlation && !summary.values.empty()) {
      // Correlate the node's value with counts at its (B-stable-reachable)
      // ancestors — e.g. a movie type with the movie's actor count.
      std::vector<CountRef> vrefs;
      for (SynNodeId a : syn.TwigStableNeighborhood(n)) {
        for (const SynEdge& e : syn.node(a).children) {
          bool present = false;
          for (const CountRef& r : summary.value_scope) {
            if (r.from == a && r.to == e.child) present = true;
          }
          if (!present) vrefs.push_back(CountRef{a == n, a, e.child});
        }
      }
      for (int pick = 0; pick < 2 && !vrefs.empty(); ++pick) {
        const size_t i = rng.Uniform(vrefs.size());
        local.push_back(
            {Refinement::Kind::kValueExpand, n, kInvalidSynNode, vrefs[i]});
        vrefs.erase(vrefs.begin() + static_cast<long>(i));
      }
    }
    if (local.empty()) continue;
    out.push_back(local[rng.Uniform(local.size())]);
  }
  return out;
}

TwigXSketch XBuild::Build(const StepCallback& on_step, BuildStats* stats) {
  const Clock::time_point build_start = Clock::now();
  // Trace root for the build (or a child when the caller is already
  // traced); iterations attach beneath it.
  obs::TraceContext trace_ctx = obs::CurrentTraceContext();
  if (!trace_ctx.sampled()) trace_ctx = obs::Tracer::Default().StartTrace();
  obs::SpanScope build_span(trace_ctx, obs::Stage::kBuild,
                            options_.budget_bytes);
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  obs::Counter& m_builds =
      reg.GetCounter("xsketch_build_runs_total", "XBUILD invocations");
  obs::Counter& m_iterations =
      reg.GetCounter("xsketch_build_iterations_total",
                     "accepted refinements across all builds");
  obs::Counter& m_scored =
      reg.GetCounter("xsketch_build_candidates_scored_total",
                     "sample-workload evaluations of candidate refinements");
  obs::Histogram& m_scoring_ms =
      reg.GetHistogram("xsketch_build_scoring_ms", obs::DurationBucketsMs(),
                       "per-iteration candidate-scoring wall time (ms)");
  obs::Gauge& m_final_size = reg.GetGauge(
      "xsketch_build_final_size_bytes", "size of the last built synopsis");
  obs::Gauge& m_final_error =
      reg.GetGauge("xsketch_build_final_error",
                   "sample-workload error of the last built synopsis");
  m_builds.Increment();
  TwigXSketch sketch = TwigXSketch::Coarsest(doc_, options_.coarsest);
  util::Rng rng(options_.seed);

  // Sample workload for marginal-gain scoring; true counts are exact.
  query::WorkloadOptions wopts;
  wopts.seed = options_.seed ^ 0x5eedf00dULL;
  wopts.num_queries = options_.sample_queries;
  wopts.min_nodes = 3;
  wopts.max_nodes = 6;
  wopts.existential_prob = options_.sample_existential_prob;
  wopts.value_pred_fraction = options_.sample_value_pred_fraction;
  const query::Workload sample = query::GeneratePositiveWorkload(doc_, wopts);

  // Candidate scoring is embarrassingly parallel: every trial starts from
  // a private copy of the current sketch and the sample workload is
  // read-only. The workload-oblivious ablation takes the first applicable
  // candidate without scoring, so there is nothing to fan out there.
  const int num_threads = options_.num_threads > 0
                              ? options_.num_threads
                              : util::ThreadPool::HardwareThreads();
  std::unique_ptr<util::ThreadPool> workers;
  if (options_.score_candidates && num_threads > 1) {
    workers = std::make_unique<util::ThreadPool>(num_threads);
  }

  BuildStats agg;
  agg.num_threads = workers ? num_threads : 1;
  std::vector<double> scoring_ms;

  // Per-candidate scoring slot, filled independently (possibly on a
  // worker) and reduced on the calling thread with index tie-breaks, so
  // the accepted refinement never depends on scheduling.
  struct Scored {
    bool applicable = false;
    double error_after = 0.0;
    size_t size_after = 0;
    std::optional<TwigXSketch> trial;
  };

  // Sample-workload error of the current sketch: computed once for the
  // coarsest sketch, then carried over from each accepted trial's score.
  double sketch_error =
      options_.score_candidates
          ? WorkloadError(sketch, sample, options_.estimator)
          : 0.0;

  int stall = 0;
  uint64_t iteration_no = 0;
  while (sketch.SizeBytes() < options_.budget_bytes && stall < 15) {
    obs::SpanScope iter_span(obs::Stage::kBuildIteration, iteration_no++);
    const std::vector<Refinement> candidates =
        GenerateCandidates(sketch, rng);
    if (candidates.empty()) break;
    agg.candidates_generated += static_cast<int64_t>(candidates.size());

    const size_t size_before = sketch.SizeBytes();

    if (!options_.score_candidates) {
      bool accepted = false;
      for (const Refinement& r : candidates) {
        TwigXSketch trial = sketch;
        if (!ApplyRefinement(&trial, r)) continue;
        if (trial.SizeBytes() <= size_before) continue;
        ++agg.candidates_applicable;
        sketch = std::move(trial);
        ++agg.iterations;
        ++agg.accepted_by_kind[static_cast<size_t>(r.kind)];
        accepted = true;
        break;  // workload-oblivious: take the first applicable candidate
      }
      if (!accepted) {
        ++stall;
        continue;
      }
      stall = 0;
      if (on_step) on_step(sketch, sketch.SizeBytes());
      continue;
    }

    const Clock::time_point scoring_start = Clock::now();
    std::vector<Scored> scored(candidates.size());
    auto score_one = [&](size_t i) {
      TwigXSketch trial = sketch;
      if (!ApplyRefinement(&trial, candidates[i])) return;
      const size_t size_after = trial.SizeBytes();
      if (size_after <= size_before) return;
      scored[i].applicable = true;
      scored[i].error_after =
          WorkloadError(trial, sample, options_.estimator);
      scored[i].size_after = size_after;
      scored[i].trial.emplace(std::move(trial));
    };
    if (workers) {
      util::TaskGroup group(workers.get());
      for (size_t i = 0; i < candidates.size(); ++i) {
        group.Submit([&, i] { score_one(i); });
      }
      group.Wait();
    } else {
      for (size_t i = 0; i < candidates.size(); ++i) score_one(i);
    }
    scoring_ms.push_back(MillisSince(scoring_start));
    m_scoring_ms.Observe(scoring_ms.back());

    // Deterministic reduction: best gain wins, earliest candidate on ties.
    int best_i = -1;
    double best_gain = -std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < scored.size(); ++i) {
      if (!scored[i].applicable) continue;
      ++agg.candidates_applicable;
      ++agg.candidates_scored;
      const double gain =
          (sketch_error - scored[i].error_after) /
          static_cast<double>(scored[i].size_after - size_before);
      if (best_i < 0 || gain > best_gain) {
        best_gain = gain;
        best_i = static_cast<int>(i);
      }
    }
    if (best_i < 0) {
      ++stall;
      continue;
    }
    stall = 0;
    Scored& best = scored[static_cast<size_t>(best_i)];
    sketch = std::move(*best.trial);
    sketch_error = best.error_after;
    ++agg.iterations;
    ++agg.accepted_by_kind[static_cast<size_t>(
        candidates[static_cast<size_t>(best_i)].kind)];
    if (on_step) on_step(sketch, sketch.SizeBytes());
  }

  m_iterations.Increment(static_cast<uint64_t>(agg.iterations));
  m_scored.Increment(static_cast<uint64_t>(agg.candidates_scored));
  m_final_size.Set(static_cast<double>(sketch.SizeBytes()));

  if (stats != nullptr) {
    agg.scoring_p50_ms = util::Percentile(scoring_ms, 0.50);
    agg.scoring_p95_ms = util::Percentile(scoring_ms, 0.95);
    agg.wall_ms = MillisSince(build_start);
    agg.final_size_bytes = sketch.SizeBytes();
    agg.final_error = sketch_error;
    m_final_error.Set(agg.final_error);
    *stats = agg;
  }
  return sketch;
}

}  // namespace xsketch::core
