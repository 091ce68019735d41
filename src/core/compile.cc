#include "core/compile.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <unordered_map>
#include <utility>

#include "obs/trace.h"
#include "query/xpath_parser.h"
#include "util/check.h"
#include "util/simd.h"

namespace xsketch::core {

namespace {

double Clamp01(double x) { return std::clamp(x, 0.0, 1.0); }

const double kUnitProb = 1.0;

// Stats counters saturate at INT_MAX instead of overflowing: one memo hit
// adds a whole plan's replayed work, and nested '//' expansions multiply
// that past what an int holds.
void Tally(int& counter, int64_t n) {
  counter = static_cast<int>(std::min<int64_t>(
      int64_t{counter} + n, std::numeric_limits<int>::max()));
}

// The counters `now` gained since `before` (estimate unused).
EstimateStats CountsSince(const EstimateStats& now,
                          const EstimateStats& before) {
  EstimateStats d;
  d.covered_terms = now.covered_terms - before.covered_terms;
  d.uniformity_terms = now.uniformity_terms - before.uniformity_terms;
  d.conditioned_nodes = now.conditioned_nodes - before.conditioned_nodes;
  d.value_fractions = now.value_fractions - before.value_fractions;
  d.existential_terms = now.existential_terms - before.existential_terms;
  d.descendant_chains = now.descendant_chains - before.descendant_chains;
  return d;
}

void AddCounts(EstimateStats& into, const EstimateStats& d) {
  Tally(into.covered_terms, d.covered_terms);
  Tally(into.uniformity_terms, d.uniformity_terms);
  Tally(into.conditioned_nodes, d.conditioned_nodes);
  Tally(into.value_fractions, d.value_fractions);
  Tally(into.existential_terms, d.existential_terms);
  Tally(into.descendant_chains, d.descendant_chains);
}

// Process-wide compiled-execution metrics. The per-term counters are the
// SAME registry entries the estimator mirrors into — E/U/D activity is a
// property of the workload, not of the engine that evaluated it — plus
// compiled-only counters so the two paths stay distinguishable.
struct CompiledMetrics {
  obs::Counter* queries;
  obs::Counter* covered_terms;
  obs::Counter* uniformity_terms;
  obs::Counter* conditioned_nodes;
  obs::Counter* value_fractions;
  obs::Counter* existential_terms;
  obs::Counter* descendant_chains;
};

CompiledMetrics& Metrics() {
  static CompiledMetrics m = [] {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
    CompiledMetrics mm;
    mm.queries = &reg.GetCounter("xsketch_compiled_queries_total",
                                 "twig queries executed via compiled plans");
    mm.covered_terms =
        &reg.GetCounter("xsketch_estimator_covered_terms_total",
                        "E_i terms: fanouts read from histogram buckets");
    mm.uniformity_terms =
        &reg.GetCounter("xsketch_estimator_uniformity_terms_total",
                        "U_i terms: Forward Uniformity fallbacks");
    mm.conditioned_nodes =
        &reg.GetCounter("xsketch_estimator_conditioned_nodes_total",
                        "D_i terms: Correlation Scope conditionings");
    mm.value_fractions =
        &reg.GetCounter("xsketch_estimator_value_fractions_total",
                        "value-predicate fractions applied");
    mm.existential_terms =
        &reg.GetCounter("xsketch_estimator_existential_terms_total",
                        "branching-predicate factors");
    mm.descendant_chains =
        &reg.GetCounter("xsketch_estimator_descendant_chains_total",
                        "'//' expansion alternatives evaluated");
    return mm;
  }();
  return m;
}

}  // namespace

ExecScratch& ThreadLocalExecScratch() {
  static thread_local ExecScratch scratch;
  return scratch;
}

// ---------------------------------------------------------------------------
// Execution

// The interpreter. One instance per Execute call; mirrors the estimator's
// EvalSubtree / ChildTerm / ChainTerm / StepFactor recursion over the flat
// program, with the same operations in the same order (see estimator.cc —
// every arithmetic expression here has a corresponding line there).
//
// The plan memo is on in both modes unless the sketch has backward dims.
// Without them no point set or value fraction reads the context stack, so
// a plan's value — and with it every branch its evaluation takes, hence
// every counter it bumps — is the same on each visit. Stats mode therefore
// stores each plan's counter deltas with its value and replays them on a
// hit, which sums to exactly what the reference's full replay counts.
class CompiledTwig::Executor {
 public:
  Executor(const CompiledTwig& ct, ExecScratch& sc, EstimateStats* stats)
      : ct_(ct),
        fz_(*ct.frozen_),
        sc_(sc),
        stats_(stats),
        memo_enabled_(!ct.enumerate_all_) {}

  double Run() {
    Metrics().queries->Increment();
    sc_.ctx.clear();
    if (memo_enabled_) {
      if (sc_.memo_epoch.size() < ct_.plans_.size()) {
        sc_.memo_epoch.resize(ct_.plans_.size(), 0);
        sc_.memo_val.resize(ct_.plans_.size(), 0.0);
        sc_.memo_stats.resize(ct_.plans_.size());
      }
      if (++sc_.epoch == 0) {  // epoch wrapped: flush stale marks
        std::fill(sc_.memo_epoch.begin(), sc_.memo_epoch.end(), 0u);
        sc_.epoch = 1;
      }
    }
    double total = 0.0;
    for (const Root& root : ct_.roots_) {
      const double vf = Vf(root.vf);
      const double sub = root.plan < 0 ? 1.0 : ExecPlan(root.plan);
      if (root.mul_count) {
        const double term = root.count * vf * sub;
        total += term;
      } else {
        total = vf * sub;
      }
    }
    return std::max(0.0, total);
  }

 private:
  // A materialized histogram-point set: probabilities plus (for runtime-
  // conditioned sets) the surviving bucket indices into the frozen columns.
  struct PointView {
    const double* probs = nullptr;
    const uint32_t* buckets = nullptr;  // nullptr: identity mapping
    uint32_t size = 0;
    bool has_values = false;
  };
  // Backing storage for a runtime-conditioned view; owned by the caller's
  // frame because the point loop recurses while the view is live.
  struct RuntimePoints {
    std::vector<double> probs;
    std::vector<uint32_t> buckets;
  };

  uint32_t BucketOf(const PointView& pv, uint32_t i) const {
    return pv.buckets != nullptr ? pv.buckets[i] : i;
  }

  // ConditionedPoints / hist.Condition, over frozen columns. The SIMD
  // passes are elementwise with one pass per conditioning pair in scope
  // order — the same per-bucket multiply order as the scalar reference —
  // and both weight totals are scalar sums in bucket order.
  PointView MaterializePoints(SynNodeId n, PointsKind kind, bool has_values,
                              RuntimePoints& storage) {
    if (kind == PointsKind::kUnit) {
      return PointView{&kUnitProb, nullptr, 1, false};
    }
    const uint32_t nb = fz_.bucket_count(n);
    if (kind == PointsKind::kStatic) {
      return PointView{fz_.static_probs(n), nullptr, nb, has_values};
    }
    // kRuntime: collect (dim, value) pairs — backward dims with an
    // assignment on the context stack, nearest assignment first.
    struct Given {
      int dim;
      double value;
    };
    Given given[8];
    int n_given = 0;
    std::vector<Given> given_overflow;
    for (const FrozenSynopsis::BackwardDim* b = fz_.bwd_begin(n);
         b != fz_.bwd_end(n); ++b) {
      for (auto it = sc_.ctx.rbegin(); it != sc_.ctx.rend(); ++it) {
        if (it->from == b->from && it->to == b->to) {
          if (n_given < 8) {
            given[n_given++] = Given{b->dim, it->value};
          } else {
            given_overflow.push_back(Given{b->dim, it->value});
          }
          break;
        }
      }
    }
    auto for_each_given = [&](auto&& fn) {
      for (int i = 0; i < n_given; ++i) fn(given[i]);
      for (const Given& g : given_overflow) fn(g);
    };
    if (n_given == 0) {
      return PointView{fz_.static_probs(n), nullptr, nb, has_values};
    }
    if (stats_ != nullptr) Tally(stats_->conditioned_nodes, 1);

    std::vector<double>& w = storage.probs;
    w.assign(fz_.fractions(n), fz_.fractions(n) + nb);
    for_each_given([&](const Given& g) {
      util::simd::ConditionRangePass(w.data(), fz_.lo_minus(n, g.dim),
                                     fz_.hi_plus(n, g.dim),
                                     fz_.inv_span(n, g.dim), g.value, nb);
    });
    double total = 0.0;
    for (uint32_t b = 0; b < nb; ++b) total += w[b];
    if (total <= 0.0) {
      // Inverse-distance fallback, exactly as hist::EdgeHistogram.
      std::vector<double> dist2(nb, 0.0);
      for_each_given([&](const Given& g) {
        util::simd::Dist2Accumulate(dist2.data(), fz_.means(n, g.dim),
                                    g.value, nb);
      });
      util::simd::InverseDistanceWeights(w.data(), fz_.fractions(n),
                                         dist2.data(), nb);
      for (uint32_t b = 0; b < nb; ++b) total += w[b];
    }
    XS_CHECK(total > 0.0);

    storage.buckets.clear();
    uint32_t out = 0;
    for (uint32_t b = 0; b < nb; ++b) {
      if (w[b] <= 0.0) continue;
      w[out] = w[b] / total;
      storage.buckets.push_back(b);
      ++out;
    }
    return PointView{w.data(), storage.buckets.data(), out, has_values};
  }

  void PushForwardDims(SynNodeId n, uint32_t bucket) {
    for (const FrozenSynopsis::ForwardDim* f = fz_.fwd_begin(n);
         f != fz_.fwd_end(n); ++f) {
      sc_.ctx.push_back(
          ExecScratch::CtxEntry{n, f->to, fz_.means(n, f->dim)[bucket]});
    }
  }

  double ExecPlan(int32_t id) {
    if (memo_enabled_ && sc_.memo_epoch[id] == sc_.epoch) {
      if (stats_ != nullptr) AddCounts(*stats_, sc_.memo_stats[id]);
      return sc_.memo_val[id];
    }
    const Plan& p = ct_.plans_[id];
    double result;
    if (stats_ != nullptr) {
      const EstimateStats before = *stats_;
      result = General(p);
      if (memo_enabled_) sc_.memo_stats[id] = CountsSince(*stats_, before);
    } else if (p.zero_child) {
      // Some child always contributes factor 0; with every other factor
      // finite and non-negative each bucket term is +0, so the sum is 0.
      result = 0.0;
    } else if (p.vector_fast) {
      result = VectorFast(p);
    } else {
      result = General(p);
    }
    if (memo_enabled_) {
      sc_.memo_epoch[id] = sc_.epoch;
      sc_.memo_val[id] = result;
    }
    return result;
  }

  double General(const Plan& p) {
    RuntimePoints storage;
    const PointView pv =
        MaterializePoints(p.n, p.points_kind, p.has_values, storage);
    double result = 0.0;
    for (uint32_t i = 0; i < pv.size; ++i) {
      const uint32_t bucket = BucketOf(pv, i);
      const size_t ctx_mark = sc_.ctx.size();
      if (pv.has_values) PushForwardDims(p.n, bucket);
      double term = pv.probs[i];
      for (uint32_t c = p.child_begin; c < p.child_end; ++c) {
        if (term == 0.0) break;
        term *= ChildTerm(ct_.children_[c], p.n, pv, bucket);
      }
      result += term;
      sc_.ctx.resize(ctx_mark);
    }
    return result;
  }

  double ChildTerm(const Child& child, SynNodeId n, const PointView& pv,
                   uint32_t bucket) {
    if (child.kind == Child::Kind::kZero) return 0.0;
    if (stats_ != nullptr) {
      if (child.existential) Tally(stats_->existential_terms, 1);
      if (child.descendant) {
        Tally(stats_->descendant_chains,
              child.chain_end - child.chain_begin);
      }
    }
    double sum = 0.0;        // output semantics
    double prob_none = 1.0;  // existential semantics
    for (uint32_t ci = child.chain_begin; ci < child.chain_end; ++ci) {
      const Chain& chain = ct_.chains_[ci];
      const Step& s0 = ct_.steps_[chain.step_begin];
      double factor;
      if (s0.covered_dim >= 0 && pv.has_values) {
        if (stats_ != nullptr) Tally(stats_->covered_terms, 1);
        factor = StepFactor(chain, 0, fz_.means(n, s0.covered_dim)[bucket],
                            /*covered=*/true, child.existential);
      } else {
        if (stats_ != nullptr) Tally(stats_->uniformity_terms, 1);
        factor = StepFactor(chain, 0, s0.avg, /*covered=*/false,
                            child.existential);
      }
      if (child.existential) {
        prob_none *= 1.0 - Clamp01(factor);
      } else {
        sum += factor;
      }
    }
    return child.existential ? 1.0 - prob_none : sum;
  }

  double StepFactor(const Chain& chain, uint32_t index, double count,
                    bool covered, bool existential) {
    const Step& st = ct_.steps_[chain.step_begin + index];
    const bool last = (index + 1 == chain.len);
    double inner;
    if (last) {
      const double vf = Vf(st.vf);
      inner = (vf == 0.0)
                  ? 0.0
                  : vf * (st.tail_plan < 0 ? 1.0 : ExecPlan(st.tail_plan));
    } else {
      inner = ChainTerm(chain, index + 1, existential);
    }
    if (!existential) return count * inner;
    const double q = Clamp01(inner);
    if (covered) {
      return count <= 0.0 ? 0.0 : 1.0 - std::pow(1.0 - q, count);
    }
    if (st.parent_zero) return 0.0;
    return st.exist_frac * (1.0 - std::pow(1.0 - q, st.avg_given_exist));
  }

  double ChainTerm(const Chain& chain, uint32_t index, bool existential) {
    const Step& st = ct_.steps_[chain.step_begin + index];
    if (st.covered_dim < 0) {
      if (stats_ != nullptr) Tally(stats_->uniformity_terms, 1);
      return StepFactor(chain, index, st.avg, /*covered=*/false,
                        existential);
    }
    RuntimePoints storage;
    const PointView pv =
        MaterializePoints(st.from, st.points_kind, true, storage);
    double result = 0.0;
    for (uint32_t i = 0; i < pv.size; ++i) {
      const uint32_t bucket = BucketOf(pv, i);
      const size_t ctx_mark = sc_.ctx.size();
      if (pv.has_values) PushForwardDims(st.from, bucket);
      const double sf =
          StepFactor(chain, index, fz_.means(st.from, st.covered_dim)[bucket],
                     /*covered=*/true, existential);
      const double term = pv.probs[i] * sf;
      result += term;
      sc_.ctx.resize(ctx_mark);
    }
    return result;
  }

  double Vf(const VfSite& site) {
    switch (site.kind) {
      case VfSite::Kind::kOne:
        return 1.0;
      case VfSite::Kind::kStatic:
        if (stats_ != nullptr) Tally(stats_->value_fractions, 1);
        return site.fraction;
      case VfSite::Kind::kDynamic:
        if (stats_ != nullptr) Tally(stats_->value_fractions, 1);
        return DynamicVf(site);
    }
    return 1.0;  // unreachable
  }

  // Joint H^v(V, C...) conditioning, over the frozen value layer: the
  // scope match and the conditional range fraction are transcriptions of
  // the original histogram code (see FrozenSynopsis), bit-identical to
  // delegating back to the sketch.
  double DynamicVf(const VfSite& site) {
    const std::span<const FrozenSynopsis::ValueRef> scope =
        fz_.value_scope(site.n);
    std::vector<std::pair<int, double>> given;
    for (size_t d = 0; d < scope.size(); ++d) {
      for (auto it = sc_.ctx.rbegin(); it != sc_.ctx.rend(); ++it) {
        if (it->from == scope[d].from && it->to == scope[d].to) {
          given.emplace_back(static_cast<int>(d) + 1, it->value);
          break;
        }
      }
    }
    if (!given.empty()) {
      return fz_.JointConditionalRangeFraction(site.n, site.lo_coord,
                                               site.hi_coord, given);
    }
    return site.fraction;  // context-free marginal, precompiled
  }

  // The vector-fast path: with static points and no existential child,
  // every chain's tail value is bucket-independent, so the point loop
  // factors into per-bucket columns:
  //   child_acc[b] = Σ_chains (covered ? mean_d[b] * inner : avg * inner)
  //   term_acc[b]  = prob[b] * Π_children child_acc[b]
  //   result       = Σ_b term_acc[b]   (scalar, bucket order)
  // Per element this performs the reference's exact operation sequence;
  // only the loop nesting is transposed, which touches no float op order.
  // Phase 1 (tail recursion) runs before any accumulator is written, so
  // the shared scratch buffers never see nested use.
  double VectorFast(const Plan& p) {
    const uint32_t nb = fz_.bucket_count(p.n);
    const size_t mark = sc_.inners.size();
    for (uint32_t c = p.child_begin; c < p.child_end; ++c) {
      const Child& child = ct_.children_[c];
      for (uint32_t ci = child.chain_begin; ci < child.chain_end; ++ci) {
        const Chain& chain = ct_.chains_[ci];
        const Step& s0 = ct_.steps_[chain.step_begin];
        double inner;
        if (chain.len == 1) {
          const double vf = Vf(s0.vf);
          inner = (vf == 0.0)
                      ? 0.0
                      : vf * (s0.tail_plan < 0 ? 1.0
                                               : ExecPlan(s0.tail_plan));
        } else {
          inner = ChainTerm(chain, 1, /*existential=*/false);
        }
        sc_.inners.push_back(inner);
      }
    }
    if (sc_.child_acc.size() < nb) {
      sc_.child_acc.resize(nb);
      sc_.term_acc.resize(nb);
    }
    const double* probs = fz_.static_probs(p.n);
    std::copy(probs, probs + nb, sc_.term_acc.begin());
    size_t k = mark;
    for (uint32_t c = p.child_begin; c < p.child_end; ++c) {
      const Child& child = ct_.children_[c];
      std::fill_n(sc_.child_acc.begin(), nb, 0.0);
      for (uint32_t ci = child.chain_begin; ci < child.chain_end; ++ci) {
        const Step& s0 = ct_.steps_[ct_.chains_[ci].step_begin];
        const double inner = sc_.inners[k++];
        if (s0.covered_dim >= 0) {
          util::simd::MulScalarAccumulate(
              sc_.child_acc.data(), fz_.means(p.n, s0.covered_dim), inner,
              nb);
        } else {
          util::simd::AddScalarAccumulate(sc_.child_acc.data(),
                                          s0.avg * inner, nb);
        }
      }
      util::simd::MulAccumulate(sc_.term_acc.data(), sc_.child_acc.data(),
                                nb);
    }
    double result = 0.0;
    for (uint32_t b = 0; b < nb; ++b) result += sc_.term_acc[b];
    sc_.inners.resize(mark);
    return result;
  }

  const CompiledTwig& ct_;
  const FrozenSynopsis& fz_;
  ExecScratch& sc_;
  EstimateStats* stats_;
  const bool memo_enabled_;
};

double CompiledTwig::Execute(ExecScratch& scratch) const {
  Executor ex(*this, scratch, nullptr);
  return ex.Run();
}

EstimateStats CompiledTwig::ExecuteWithStats(ExecScratch& scratch) const {
  EstimateStats stats;
  Executor ex(*this, scratch, &stats);
  stats.estimate = ex.Run();
  // Mirror the per-call term counts into the process-wide registry —
  // the same counters the estimator's stats path feeds.
  CompiledMetrics& m = Metrics();
  m.covered_terms->Increment(static_cast<uint64_t>(stats.covered_terms));
  m.uniformity_terms->Increment(
      static_cast<uint64_t>(stats.uniformity_terms));
  m.conditioned_nodes->Increment(
      static_cast<uint64_t>(stats.conditioned_nodes));
  m.value_fractions->Increment(static_cast<uint64_t>(stats.value_fractions));
  m.existential_terms->Increment(
      static_cast<uint64_t>(stats.existential_terms));
  m.descendant_chains->Increment(
      static_cast<uint64_t>(stats.descendant_chains));
  return stats;
}

size_t CompiledTwig::SizeBytes() const {
  return plans_.size() * sizeof(Plan) + children_.size() * sizeof(Child) +
         chains_.size() * sizeof(Chain) + steps_.size() * sizeof(Step) +
         roots_.size() * sizeof(Root);
}

// ---------------------------------------------------------------------------
// Compilation

TwigCompiler::TwigCompiler(std::shared_ptr<const FrozenSynopsis> frozen,
                           const EstimatorOptions& options)
    : frozen_(std::move(frozen)), options_(options) {
  XS_CHECK(frozen_ != nullptr);
  const util::Status st = options_.Validate();
  XS_CHECK_MSG(st.ok(), st.ToString().c_str());
  // Satellite of the estimator's per-construction resolution: the "use
  // document max depth + 1" default is pinned once, here.
  path_length_cap_ =
      options_.max_path_length > 0
          ? options_.max_path_length
          : static_cast<int>(frozen_->doc_max_depth()) + 1;
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  metric_compiles_ = &reg.GetCounter("xsketch_compile_total",
                                     "twig queries lowered to compiled plans");
  metric_compile_us_ =
      &reg.GetHistogram("xsketch_compile_latency_us", obs::LatencyBucketsUs(),
                        "twig compilation latency (microseconds)");
}

const DescendantPathCache::Paths& TwigCompiler::DescendantPaths(
    SynNodeId n, xml::TagId tag) const {
  const uint64_t key = (static_cast<uint64_t>(n) << 32) | tag;
  if (const DescendantPathCache::Paths* hit = path_cache_.Find(key)) {
    return *hit;
  }
  // Identical enumeration to Estimator::DescendantPaths: depth-first over
  // the synopsis adjacency (frozen edges preserve edge order), capped by
  // max_descendant_paths / path_length_cap_.
  std::vector<std::vector<SynNodeId>> paths;
  std::vector<SynNodeId> current;
  const FrozenSynopsis& fz = *frozen_;
  auto dfs = [&](auto&& self, SynNodeId cur) -> void {
    if (static_cast<int>(paths.size()) >= options_.max_descendant_paths) {
      return;
    }
    if (static_cast<int>(current.size()) >= path_length_cap_) return;
    for (const FrozenSynopsis::Edge* e = fz.edges_begin(cur);
         e != fz.edges_end(cur); ++e) {
      current.push_back(e->child);
      if (fz.tag(e->child) == tag) paths.push_back(current);
      self(self, e->child);
      current.pop_back();
      if (static_cast<int>(paths.size()) >= options_.max_descendant_paths) {
        return;
      }
    }
  };
  if (tag != query::kUnknownTag) dfs(dfs, n);
  return path_cache_.Insert(key, std::move(paths));
}

// Per-Compile lowering state. Plans are built bottom-up: a plan's children
// (and their tail plans, recursively) are assembled in frame-local storage
// and appended to the flat arrays contiguously once complete, so nested
// CompilePlan calls never interleave a plan's records.
class TwigCompiler::Builder {
 public:
  Builder(const TwigCompiler& compiler, const query::TwigQuery& twig,
          CompiledTwig* out)
      : compiler_(compiler),
        fz_(*compiler.frozen_),
        twig_(twig),
        out_(out) {}

  void Build() {
    out_->enumerate_all_ = fz_.has_backward_dims();
    out_->path_length_cap_ = compiler_.path_length_cap_;
    if (twig_.empty()) return;
    const auto& root = twig_.node(twig_.root());
    if (root.tag == query::kUnknownTag) return;
    if (root.axis == query::Axis::kChild) {
      // Absolute '/tag': only the document root element can match.
      const SynNodeId n0 = fz_.root_node();
      if (fz_.tag(n0) == root.tag) {
        CompiledTwig::Root r;
        r.n = n0;
        r.count = fz_.count(n0);
        r.mul_count = false;
        r.vf = MakeVfSite(n0, root);
        r.plan = CompilePlan(n0, twig_.root());
        out_->roots_.push_back(r);
      }
    } else {
      for (SynNodeId n : fz_.NodesWithTag(root.tag)) {
        CompiledTwig::Root r;
        r.n = n;
        r.count = fz_.count(n);
        r.mul_count = true;
        r.vf = MakeVfSite(n, root);
        r.plan = CompilePlan(n, twig_.root());
        out_->roots_.push_back(r);
      }
    }
  }

 private:
  using PointsKind = CompiledTwig::PointsKind;
  using VfSite = CompiledTwig::VfSite;

  struct ChainRec {
    std::vector<CompiledTwig::Step> steps;
  };
  struct ChildRec {
    CompiledTwig::Child::Kind kind = CompiledTwig::Child::Kind::kNormal;
    bool existential = false;
    bool descendant = false;
    std::vector<ChainRec> chains;
  };

  VfSite MakeVfSite(SynNodeId n, const query::TwigQuery::Node& tnode) {
    VfSite site;
    if (!tnode.pred.has_value()) return site;  // kOne
    if (!fz_.node_has_values(n)) {
      // No element of n carries a value: the fraction is 0 regardless of
      // context (still a counted value-fraction site).
      site.kind = VfSite::Kind::kStatic;
      site.fraction = 0.0;
      return site;
    }
    if (fz_.has_joint_values(n)) {
      const int64_t value_offset = fz_.value_offset(n);
      site.kind = VfSite::Kind::kDynamic;
      site.n = n;
      site.lo_coord = static_cast<double>(
          tnode.pred->lo == INT64_MIN ? 0 : tnode.pred->lo - value_offset);
      site.hi_coord = static_cast<double>(
          tnode.pred->hi == INT64_MAX
              ? std::numeric_limits<uint32_t>::max()
              : tnode.pred->hi - value_offset);
      // Context-free fallback: the 1-D marginal.
      site.fraction = fz_.ValueFraction(n, tnode.pred->lo, tnode.pred->hi);
      return site;
    }
    site.kind = VfSite::Kind::kStatic;
    site.fraction = fz_.ValueFraction(n, tnode.pred->lo, tnode.pred->hi);
    return site;
  }

  // Lowers EvalSubtree(n, t). Returns the plan id, or -1 when twig node t
  // is a leaf (the estimator returns 1.0 before any other work).
  int32_t CompilePlan(SynNodeId n, int t) {
    const auto& tnode = twig_.node(t);
    if (tnode.children.empty()) return -1;
    const uint64_t key =
        (static_cast<uint64_t>(static_cast<uint32_t>(t)) << 32) | n;
    if (auto it = plan_memo_.find(key); it != plan_memo_.end()) {
      return it->second;
    }

    // Mirrors the estimator's enumeration decision: condition-and-
    // enumerate the histogram iff some child's first step is covered, or
    // the sketch has backward dims anywhere (context must flow for deeper
    // conditioning).
    bool any_covered = false;
    if (!fz_.hist_empty(n)) {
      for (int c : tnode.children) {
        const auto& cnode = twig_.node(c);
        if (cnode.axis == query::Axis::kChild) {
          for (const FrozenSynopsis::Edge* e = fz_.edges_begin(n);
               e != fz_.edges_end(n); ++e) {
            if (e->child_tag == cnode.tag &&
                fz_.FindForwardDim(n, e->child) >= 0) {
              any_covered = true;
            }
          }
        } else {
          any_covered = true;
        }
        if (any_covered) break;
      }
    }

    CompiledTwig::Plan plan;
    plan.n = n;
    if (any_covered || (!fz_.hist_empty(n) && fz_.has_backward_dims())) {
      plan.points_kind =
          fz_.has_bwd(n) ? PointsKind::kRuntime : PointsKind::kStatic;
      plan.has_values = fz_.hist_dims(n) > 0;
    } else {
      plan.points_kind = PointsKind::kUnit;
    }

    bool vector_fast = plan.points_kind == PointsKind::kStatic &&
                       !fz_.has_backward_dims();
    std::vector<ChildRec> recs;
    recs.reserve(tnode.children.size());
    for (int c : tnode.children) {
      const auto& cnode = twig_.node(c);
      ChildRec rec;
      rec.existential = cnode.existential;
      rec.descendant = cnode.axis == query::Axis::kDescendant;
      if (cnode.existential) vector_fast = false;
      if (cnode.tag == query::kUnknownTag) {
        rec.kind = CompiledTwig::Child::Kind::kZero;
        plan.zero_child = true;
        recs.push_back(std::move(rec));
        continue;
      }
      // Alternatives: single-step chains for '/', label paths for '//'.
      std::vector<std::vector<SynNodeId>> local_chains;
      const std::vector<std::vector<SynNodeId>>* chains = nullptr;
      if (cnode.axis == query::Axis::kChild) {
        for (const FrozenSynopsis::Edge* e = fz_.edges_begin(n);
             e != fz_.edges_end(n); ++e) {
          if (e->child_tag == cnode.tag) local_chains.push_back({e->child});
        }
        chains = &local_chains;
      } else {
        chains = &compiler_.DescendantPaths(n, cnode.tag);
      }
      if (chains->empty()) {
        rec.kind = CompiledTwig::Child::Kind::kZero;
        plan.zero_child = true;
        recs.push_back(std::move(rec));
        continue;
      }
      for (const std::vector<SynNodeId>& chain : *chains) {
        ChainRec cr;
        SynNodeId cur = n;
        for (size_t idx = 0; idx < chain.size(); ++idx) {
          const SynNodeId next = chain[idx];
          CompiledTwig::Step st;
          st.from = cur;
          st.to = next;
          st.covered_dim = fz_.FindForwardDim(cur, next);
          const FrozenSynopsis::Edge* e = fz_.FindEdge(cur, next);
          XS_CHECK(e != nullptr);
          st.avg = e->avg;
          st.exist_frac = e->exist_frac;
          st.avg_given_exist = e->avg_given_exist;
          st.parent_zero = e->parent_zero != 0;
          if (idx > 0 && st.covered_dim >= 0) {
            // Covered interior step: ChainTerm enumerates `cur`'s
            // histogram unconditionally.
            XS_CHECK(!fz_.hist_empty(cur));
            st.points_kind =
                fz_.has_bwd(cur) ? PointsKind::kRuntime : PointsKind::kStatic;
          }
          if (idx + 1 == chain.size()) {
            st.vf = MakeVfSite(next, cnode);
            st.tail_plan = CompilePlan(next, c);
          }
          cr.steps.push_back(st);
          cur = next;
        }
        rec.chains.push_back(std::move(cr));
      }
      recs.push_back(std::move(rec));
    }
    if (plan.zero_child) vector_fast = false;
    plan.vector_fast = vector_fast;

    // Append contiguously (recursion above may have appended other plans'
    // records in the meantime; ours land as one block).
    plan.child_begin = static_cast<uint32_t>(out_->children_.size());
    for (ChildRec& rec : recs) {
      CompiledTwig::Child child;
      child.kind = rec.kind;
      child.existential = rec.existential;
      child.descendant = rec.descendant;
      child.chain_begin = static_cast<uint32_t>(out_->chains_.size());
      for (ChainRec& cr : rec.chains) {
        CompiledTwig::Chain ch;
        ch.step_begin = static_cast<uint32_t>(out_->steps_.size());
        ch.len = static_cast<uint32_t>(cr.steps.size());
        out_->steps_.insert(out_->steps_.end(), cr.steps.begin(),
                            cr.steps.end());
        out_->chains_.push_back(ch);
      }
      child.chain_end = static_cast<uint32_t>(out_->chains_.size());
      out_->children_.push_back(child);
    }
    plan.child_end = static_cast<uint32_t>(out_->children_.size());

    const int32_t id = static_cast<int32_t>(out_->plans_.size());
    out_->plans_.push_back(plan);
    plan_memo_.emplace(key, id);
    return id;
  }

  const TwigCompiler& compiler_;
  const FrozenSynopsis& fz_;
  const query::TwigQuery& twig_;
  CompiledTwig* out_;
  std::unordered_map<uint64_t, int32_t> plan_memo_;
};

util::Result<std::shared_ptr<const CompiledTwig>> TwigCompiler::Compile(
    const query::TwigQuery& twig) const {
  obs::SpanScope span(obs::Stage::kCompile,
                      static_cast<uint64_t>(twig.size()));
  if (util::Status st = twig.Validate(); !st.ok()) return st;
  const auto start = std::chrono::steady_clock::now();
  auto compiled = std::shared_ptr<CompiledTwig>(new CompiledTwig());
  compiled->frozen_ = frozen_;
  Builder(*this, twig, compiled.get()).Build();
  metric_compiles_->Increment();
  metric_compile_us_->Observe(
      std::chrono::duration<double, std::micro>(
          std::chrono::steady_clock::now() - start)
          .count());
  return std::shared_ptr<const CompiledTwig>(std::move(compiled));
}

}  // namespace xsketch::core
