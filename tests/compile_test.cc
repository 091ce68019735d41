// Tests for the compiled query path: FrozenSynopsis snapshot invariants,
// TwigCompiler lowering (including the max_path_length resolution the
// compiler performs once per sketch), bit-identity of CompiledTwig
// execution against the reference estimator, the service's LRU plan
// cache, and concurrent Prepare/Execute (a ThreadSanitizer target driven
// by tests/run_sanitizers.sh).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <span>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/compile.h"
#include "core/estimator.h"
#include "core/frozen.h"
#include "core/twig_xsketch.h"
#include "data/figures.h"
#include "data/xmark.h"
#include "obs/explain.h"
#include "query/workload.h"
#include "query/xpath_parser.h"
#include "service/estimation_service.h"
#include "testing/doc_generator.h"
#include "xsketch_api.h"

namespace xsketch::core {
namespace {

bool BitEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

std::vector<query::TwigQuery> XMarkWorkload(const xml::Document& doc,
                                            int num_queries) {
  query::WorkloadOptions wopts;
  wopts.seed = 11;
  wopts.num_queries = num_queries;
  wopts.value_pred_fraction = 0.3;
  const query::Workload wl = query::GeneratePositiveWorkload(doc, wopts);
  std::vector<query::TwigQuery> queries;
  for (const auto& wq : wl.queries) queries.push_back(wq.twig);
  return queries;
}

// --- FrozenSynopsis ------------------------------------------------------

TEST(FrozenSynopsisTest, MirrorsSketchStructure) {
  xml::Document doc = data::GenerateXMark({.seed = 42, .scale = 0.05});
  TwigXSketch sketch = TwigXSketch::Coarsest(doc);
  const Synopsis& syn = sketch.synopsis();
  FrozenSynopsis frozen(sketch);

  ASSERT_EQ(frozen.node_count(), syn.node_count());
  EXPECT_EQ(frozen.doc_max_depth(), doc.max_depth());
  EXPECT_EQ(frozen.root_node(), syn.RootNode());

  for (SynNodeId n = 0; n < frozen.node_count(); ++n) {
    const SynNode& node = syn.node(n);
    EXPECT_EQ(frozen.tag(n), node.tag);
    EXPECT_EQ(frozen.count(n), static_cast<double>(node.count));
    // CSR adjacency preserves the synopsis's edge order.
    ASSERT_EQ(frozen.edges_end(n) - frozen.edges_begin(n),
              static_cast<ptrdiff_t>(node.children.size()));
    const FrozenSynopsis::Edge* e = frozen.edges_begin(n);
    for (const SynEdge& se : node.children) {
      EXPECT_EQ(e->child, se.child);
      EXPECT_EQ(e->child_tag, syn.node(se.child).tag);
      // Pre-divided Forward Uniformity: the same division the estimator
      // performs per query.
      EXPECT_TRUE(BitEqual(
          e->avg, static_cast<double>(se.child_count) / node.count));
      ++e;
    }
    EXPECT_EQ(frozen.FindEdge(n, kInvalidSynNode), nullptr);
  }

  // Tag index preserves NodesWithTag order.
  for (xml::TagId t = 0; t < doc.tag_count(); ++t) {
    const std::span<const core::SynNodeId> got = frozen.NodesWithTag(t);
    const std::vector<core::SynNodeId>& want = syn.NodesWithTag(t);
    ASSERT_EQ(got.size(), want.size());
    EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin()));
  }
  EXPECT_GT(frozen.SizeBytes(), 0u);
}

TEST(FrozenSynopsisTest, StaticProbsMatchUnconditionedHistogram) {
  // On a refined sketch the frozen Condition({}) slice must be bitwise
  // what the live histogram produces for an empty context.
  xml::Document doc = data::GenerateXMark({.seed = 42, .scale = 0.05});
  core::BuildOptions bopts;
  bopts.budget_bytes = 16 * 1024;
  TwigXSketch sketch = core::XBuild(doc, bopts).Build();
  FrozenSynopsis frozen(sketch);

  size_t checked = 0;
  for (SynNodeId n = 0; n < frozen.node_count(); ++n) {
    if (frozen.hist_empty(n)) continue;
    const auto pts = sketch.summary(n).hist.Condition({});
    ASSERT_EQ(pts.size(), frozen.bucket_count(n));
    for (size_t b = 0; b < pts.size(); ++b) {
      EXPECT_TRUE(BitEqual(pts[b].prob, frozen.static_probs(n)[b]));
    }
    checked += pts.size();
  }
  EXPECT_GT(checked, 0u);
}

// --- CompiledTwig bit-identity -------------------------------------------

// Estimate bits and all six counters.
void ExpectSameStats(const EstimateStats& got, const EstimateStats& want,
                     const std::string& what) {
  EXPECT_TRUE(BitEqual(got.estimate, want.estimate))
      << what << ": " << got.estimate << " vs " << want.estimate;
  EXPECT_EQ(got.covered_terms, want.covered_terms) << what;
  EXPECT_EQ(got.uniformity_terms, want.uniformity_terms) << what;
  EXPECT_EQ(got.conditioned_nodes, want.conditioned_nodes) << what;
  EXPECT_EQ(got.value_fractions, want.value_fractions) << what;
  EXPECT_EQ(got.existential_terms, want.existential_terms) << what;
  EXPECT_EQ(got.descendant_chains, want.descendant_chains) << what;
}

// Compiles each of `queries` and checks plain and stats execution against
// the reference estimator: Estimate bits, and EstimateWithStats bits plus
// every counter. Returns the largest descendant_chains count seen.
int ExpectMatchesReference(const TwigXSketch& sketch,
                           const EstimatorOptions& options,
                           const std::vector<query::TwigQuery>& queries) {
  const Estimator estimator(sketch, options);
  const TwigCompiler compiler(std::make_shared<const FrozenSynopsis>(sketch),
                              options);
  int max_chains = 0;
  for (const auto& q : queries) {
    const std::string what = q.ToString(sketch.doc().tags());
    auto plan = compiler.Compile(q);
    EXPECT_TRUE(plan.ok()) << what << ": " << plan.status().ToString();
    if (!plan.ok()) continue;
    EXPECT_TRUE(BitEqual(plan.value()->Execute(), estimator.Estimate(q)))
        << what;
    const EstimateStats want = estimator.EstimateWithStats(q);
    ExpectSameStats(plan.value()->ExecuteWithStats(), want, what);
    max_chains = std::max(max_chains, want.descendant_chains);
  }
  return max_chains;
}

std::vector<query::TwigQuery> ParseAll(const xml::Document& doc,
                                       std::span<const std::string> paths) {
  std::vector<query::TwigQuery> out;
  for (const std::string& p : paths) {
    auto q = query::ParsePath(p, doc.tags());
    EXPECT_TRUE(q.ok()) << p << ": " << q.status().ToString();
    if (q.ok()) out.push_back(std::move(q).value());
  }
  return out;
}

TEST(CompiledTwigTest, BitIdenticalToEstimator) {
  xml::Document doc = data::GenerateXMark({.seed = 42, .scale = 0.05});
  const auto queries = XMarkWorkload(doc, 60);
  ASSERT_FALSE(queries.empty());
  ExpectMatchesReference(TwigXSketch::Coarsest(doc), {}, queries);
}

// Stats mode memoizes plans (and their counter deltas) on sketches without
// backward dims. These twigs reach inner plans from many histogram points
// and many '//' alternatives, so most of their counters come from memo
// hits; each must still equal the reference's full replay.
TEST(CompiledTwigTest, StatsMemoMatchesReplayOnNestedDescendants) {
  const xml::Document doc = xsketch::testing::GenerateRandomDocument(
      xsketch::testing::ShapePreset(xsketch::testing::DocShape::kRecursive,
                                    7));
  const TwigXSketch sketch = TwigXSketch::Coarsest(doc);
  ASSERT_FALSE(sketch.HasBackwardDims());
  // Few '//' alternatives keep the reference's un-memoized replay fast.
  EstimatorOptions options;
  options.max_descendant_paths = 8;

  std::vector<std::string> paths;
  const size_t tags = std::min<size_t>(doc.tag_count(), 5);
  for (size_t a = 0; a < tags; ++a) {
    for (size_t b = 0; b < tags; ++b) {
      const std::string ab =
          "//" + doc.tags().Get(a) + "//" + doc.tags().Get(b);
      paths.push_back(ab);
      for (size_t c = 0; c < tags; ++c) {
        paths.push_back(ab + "//" + doc.tags().Get(c));
      }
    }
  }
  const int max_chains =
      ExpectMatchesReference(sketch, options, ParseAll(doc, paths));
  // Inner '//' children are revisited: one query alone counts more
  // alternatives than the whole expansion holds.
  EXPECT_GT(max_chains, options.max_descendant_paths * 3);
}

TEST(CompiledTwigTest, StatsMemoMatchesReplayOnBranchesUnderCoveredSteps) {
  xml::Document doc = data::GenerateXMark({.seed = 42, .scale = 0.05});
  CoarsestOptions copts;
  copts.max_initial_dims = 3;  // histograms cover several child edges
  const TwigXSketch sketch = TwigXSketch::Coarsest(doc, copts);
  ASSERT_FALSE(sketch.HasBackwardDims());
  const std::string paths[] = {
      "//open_auction[bidder/increase][seller]/annotation//text",
      "//open_auction[bidder][initial]/bidder/increase",
      "//person[profile/interest][watches/watch]/address/city",
      "//person[address][phone]/profile[education]/interest",
      "//item[mailbox/mail/text]/description//listitem//text",
      "//item[location][quantity]/incategory",
      "//closed_auction[annotation//listitem][price]/buyer",
  };
  ExpectMatchesReference(sketch, {}, ParseAll(doc, paths));
}

// Nested '//' over XMark's parlist/listitem recursion: the reference
// replay needs minutes and overflows its int counters; the memoized stats
// path answers at once, with counters pinned at INT_MAX.
TEST(CompiledTwigTest, StatsCountersSaturateInsteadOfOverflowing) {
  xml::Document doc = data::GenerateXMark({.seed = 42, .scale = 0.05});
  const TwigXSketch sketch = TwigXSketch::Coarsest(doc);
  const TwigCompiler compiler(std::make_shared<const FrozenSynopsis>(sketch));
  auto q = query::ParsePath("//site//parlist//listitem//parlist//text",
                            doc.tags());
  ASSERT_TRUE(q.ok());
  auto plan = compiler.Compile(q.value());
  ASSERT_TRUE(plan.ok());
  const EstimateStats stats = plan.value()->ExecuteWithStats();
  EXPECT_TRUE(BitEqual(stats.estimate, plan.value()->Execute()));
  EXPECT_EQ(stats.uniformity_terms, std::numeric_limits<int>::max());
}

// With backward dims a plan's value depends on the context its ancestors
// pushed, so both modes keep the memo off and replay like the reference.
TEST(CompiledTwigTest, BackwardDimsStatsMatchReferenceWithMemoOff) {
  const xml::Document doc = data::MakeBibliography();
  CoarsestOptions copts;
  copts.initial_buckets = 16;
  copts.max_initial_dims = 3;
  TwigXSketch sketch = TwigXSketch::Coarsest(doc, copts);
  const Synopsis& syn = sketch.synopsis();
  const SynNodeId a = syn.NodesWithTag(doc.LookupTag("author"))[0];
  const SynNodeId b = syn.NodesWithTag(doc.LookupTag("book"))[0];
  const SynNodeId p = syn.NodesWithTag(doc.LookupTag("paper"))[0];
  ASSERT_TRUE(sketch.ExpandScope(a, CountRef{true, a, b}));
  // The paper histogram conditions on its author's paper count.
  ASSERT_TRUE(sketch.ExpandScope(p, CountRef{false, a, p}));
  ASSERT_TRUE(sketch.HasBackwardDims());

  std::vector<query::TwigQuery> queries = ParseAll(
      doc, std::vector<std::string>{"//author/paper/keyword",
                                    "//author[book]/paper[year]/keyword",
                                    "//bib//author//keyword",
                                    "//author[name]/paper[keyword]/year"});
  auto twig = query::ParseForClause(
      "for t0 in //author, t1 in t0/book, t2 in t0/name, t3 in t0/paper, "
      "t4 in t3/keyword, t5 in t3/year",
      doc.tags());
  ASSERT_TRUE(twig.ok());
  queries.push_back(std::move(twig).value());
  ExpectMatchesReference(sketch, {}, queries);

  // A context-free memo would reuse the first author bucket's conditioning
  // for every bucket; the replay reads each one and lands on the exact
  // count (paper §4).
  const TwigCompiler compiler(std::make_shared<const FrozenSynopsis>(sketch));
  auto plan = compiler.Compile(queries.back());
  ASSERT_TRUE(plan.ok());
  EXPECT_NEAR(plan.value()->ExecuteWithStats().estimate, 1.0, 1e-6);
}

// One scratch serves both modes over programs of different sizes: the
// memo epoch must keep every run's values and counter deltas private.
TEST(CompiledTwigTest, SharedScratchAcrossModesMatchesFreshScratch) {
  xml::Document doc = data::GenerateXMark({.seed = 42, .scale = 0.05});
  const TwigXSketch sketch = TwigXSketch::Coarsest(doc);
  const TwigCompiler compiler(std::make_shared<const FrozenSynopsis>(sketch));

  std::vector<query::TwigQuery> queries = XMarkWorkload(doc, 12);
  for (query::TwigQuery& q : ParseAll(
           doc, std::vector<std::string>{"//site//parlist//listitem//text",
                                         "//item//text", "//person"})) {
    queries.push_back(std::move(q));
  }
  std::vector<std::shared_ptr<const CompiledTwig>> plans;
  for (const auto& q : queries) {
    auto plan = compiler.Compile(q);
    ASSERT_TRUE(plan.ok());
    plans.push_back(std::move(plan).value());
  }

  ExecScratch shared;
  for (int round = 0; round < 3; ++round) {
    for (size_t i = 0; i < plans.size(); ++i) {
      const CompiledTwig& plan = *plans[i];
      const std::string what = queries[i].ToString(doc.tags()) +
                               " round " + std::to_string(round);
      ExecScratch fresh;
      // Execute, ExecuteWithStats, Execute, ... rotating over programs.
      if ((i + round) % 3 == 1) {
        const EstimateStats want = plan.ExecuteWithStats(fresh);
        ExpectSameStats(plan.ExecuteWithStats(shared), want, what);
      } else {
        EXPECT_TRUE(BitEqual(plan.Execute(shared), plan.Execute(fresh)))
            << what;
      }
    }
  }
}

TEST(CompiledTwigTest, UnknownTagCompilesToZero) {
  xml::Document doc = data::MakeBibliography();
  TwigXSketch sketch = TwigXSketch::Coarsest(doc);
  const auto frozen = std::make_shared<const FrozenSynopsis>(sketch);
  const TwigCompiler compiler(frozen);

  query::TwigQuery twig;
  twig.AddNode(-1, query::Axis::kDescendant, query::kUnknownTag);
  auto plan = compiler.Compile(twig);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan.value()->root_count(), 0u);
  EXPECT_TRUE(BitEqual(plan.value()->Execute(), 0.0));
}

TEST(CompiledTwigTest, RejectsMalformedTwig) {
  xml::Document doc = data::MakeBibliography();
  TwigXSketch sketch = TwigXSketch::Coarsest(doc);
  const auto frozen = std::make_shared<const FrozenSynopsis>(sketch);
  const TwigCompiler compiler(frozen);

  query::TwigQuery twig;  // empty: Validate() fails
  auto plan = compiler.Compile(twig);
  EXPECT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), util::StatusCode::kInvalidArgument);
}

// --- max_path_length resolution (compile-time, once) ---------------------

TEST(CompiledTwigTest, DefaultPathLengthCapResolvesToDocDepth) {
  // max_path_length = 0 means "document max depth + 1". The compiler
  // resolves that once at construction; an explicit cap of the same value
  // must produce bitwise-identical programs and estimates.
  xml::Document doc = data::GenerateXMark({.seed = 42, .scale = 0.05});
  TwigXSketch sketch = TwigXSketch::Coarsest(doc);
  const auto frozen = std::make_shared<const FrozenSynopsis>(sketch);

  EstimatorOptions defaulted;  // max_path_length = 0
  EstimatorOptions explicit_cap;
  explicit_cap.max_path_length = static_cast<int>(doc.max_depth()) + 1;

  const TwigCompiler c_default(frozen, defaulted);
  const TwigCompiler c_explicit(frozen, explicit_cap);
  EXPECT_EQ(c_default.path_length_cap(), explicit_cap.max_path_length);
  EXPECT_EQ(c_explicit.path_length_cap(), explicit_cap.max_path_length);

  for (const char* p : {"//item//keyword", "//person//name", "//bidder"}) {
    auto q = query::ParsePath(p, doc.tags());
    ASSERT_TRUE(q.ok());
    auto pd = c_default.Compile(q.value());
    auto pe = c_explicit.Compile(q.value());
    ASSERT_TRUE(pd.ok() && pe.ok());
    EXPECT_EQ(pd.value()->path_length_cap(), pe.value()->path_length_cap());
    EXPECT_EQ(pd.value()->step_count(), pe.value()->step_count());
    EXPECT_TRUE(BitEqual(pd.value()->Execute(), pe.value()->Execute()));
  }
}

TEST(CompiledTwigTest, TruncatedPathLengthCapMatchesEstimator) {
  // A non-default cap prunes '//' expansions identically in both
  // implementations — bit-identity must hold under every option value,
  // not just the default.
  xml::Document doc = data::GenerateXMark({.seed = 42, .scale = 0.05});
  TwigXSketch sketch = TwigXSketch::Coarsest(doc);
  const auto frozen = std::make_shared<const FrozenSynopsis>(sketch);

  EstimatorOptions opts;
  opts.max_path_length = 3;
  const Estimator estimator(sketch, opts);
  const TwigCompiler compiler(frozen, opts);
  EXPECT_EQ(compiler.path_length_cap(), 3);

  for (const char* p : {"//item//keyword", "//person//name",
                        "//open_auction//increase"}) {
    auto q = query::ParsePath(p, doc.tags());
    ASSERT_TRUE(q.ok());
    auto plan = compiler.Compile(q.value());
    ASSERT_TRUE(plan.ok());
    EXPECT_TRUE(BitEqual(plan.value()->Execute(), estimator.Estimate(q.value())));
  }
}

// --- Plan cache ----------------------------------------------------------

TEST(PlanCacheTest, RepeatedPrepareHitsAndReturnsSharedProgram) {
  xml::Document doc = data::MakeBibliography();
  TwigXSketch sketch = TwigXSketch::Coarsest(doc);
  auto svc = service::EstimationService::Create(std::move(sketch), {});
  ASSERT_TRUE(svc.ok());

  auto q = query::ParsePath("//author/paper", doc.tags());
  ASSERT_TRUE(q.ok());
  auto p1 = svc.value()->Prepare(q.value());
  auto p2 = svc.value()->Prepare(q.value());
  ASSERT_TRUE(p1.ok() && p2.ok());
  EXPECT_EQ(p1.value().get(), p2.value().get());  // cached, not recompiled

  const auto c = svc.value()->plan_cache_counters();
  EXPECT_EQ(c.lookups, 2u);
  EXPECT_EQ(c.hits, 1u);
  EXPECT_EQ(c.evictions, 0u);
  EXPECT_EQ(c.size, 1u);
}

TEST(PlanCacheTest, EvictsLeastRecentlyUsed) {
  xml::Document doc = data::MakeBibliography();
  TwigXSketch sketch = TwigXSketch::Coarsest(doc);
  service::ServiceOptions opts;
  opts.plan_cache_capacity = 2;
  auto svc = service::EstimationService::Create(std::move(sketch), opts);
  ASSERT_TRUE(svc.ok());

  const char* paths[] = {"//author", "//paper", "//book"};
  std::vector<query::TwigQuery> queries;
  for (const char* p : paths) {
    auto q = query::ParsePath(p, doc.tags());
    ASSERT_TRUE(q.ok());
    queries.push_back(std::move(q).value());
  }

  // Fill to capacity, then overflow: the least recently used entry
  // (queries[0]) is evicted.
  for (const auto& q : queries) ASSERT_TRUE(svc.value()->Prepare(q).ok());
  auto c = svc.value()->plan_cache_counters();
  EXPECT_EQ(c.lookups, 3u);
  EXPECT_EQ(c.hits, 0u);
  EXPECT_EQ(c.evictions, 1u);
  EXPECT_EQ(c.size, 2u);

  // queries[2] is resident (hit); queries[0] was evicted (miss, which in
  // turn evicts queries[1]).
  ASSERT_TRUE(svc.value()->Prepare(queries[2]).ok());
  EXPECT_EQ(svc.value()->plan_cache_counters().hits, 1u);
  ASSERT_TRUE(svc.value()->Prepare(queries[0]).ok());
  c = svc.value()->plan_cache_counters();
  EXPECT_EQ(c.lookups, 5u);
  EXPECT_EQ(c.hits, 1u);
  EXPECT_EQ(c.evictions, 2u);
  EXPECT_EQ(c.size, 2u);
  ASSERT_TRUE(svc.value()->Prepare(queries[1]).ok());
  EXPECT_EQ(svc.value()->plan_cache_counters().hits, 1u);
}

TEST(PlanCacheTest, ZeroCapacityDisablesCaching) {
  xml::Document doc = data::MakeBibliography();
  TwigXSketch sketch = TwigXSketch::Coarsest(doc);
  service::ServiceOptions opts;
  opts.plan_cache_capacity = 0;
  auto svc = service::EstimationService::Create(std::move(sketch), opts);
  ASSERT_TRUE(svc.ok());

  auto q = query::ParsePath("//author/paper", doc.tags());
  ASSERT_TRUE(q.ok());
  auto p1 = svc.value()->Prepare(q.value());
  auto p2 = svc.value()->Prepare(q.value());
  ASSERT_TRUE(p1.ok() && p2.ok());
  EXPECT_NE(p1.value().get(), p2.value().get());  // fresh compile each time
  const auto c = svc.value()->plan_cache_counters();
  EXPECT_EQ(c.hits, 0u);
  EXPECT_EQ(c.size, 0u);
  // Uncached programs still execute correctly.
  EXPECT_TRUE(BitEqual(p1.value()->Execute(), p2.value()->Execute()));
}

// --- Concurrency (ThreadSanitizer target) --------------------------------

TEST(CompileConcurrencyTest, ConcurrentPrepareExecuteBitIdentical) {
  // 8 threads hammer Prepare + Execute on a shared service with a plan
  // cache small enough to force concurrent compile/evict/hit traffic.
  // Every result must be bitwise what the sequential reference computes.
  xml::Document doc = data::GenerateXMark({.seed = 42, .scale = 0.05});
  TwigXSketch sketch = TwigXSketch::Coarsest(doc);
  const Estimator reference(sketch);

  const auto queries = XMarkWorkload(doc, 48);
  std::vector<double> expected;
  for (const auto& q : queries) expected.push_back(reference.Estimate(q));

  service::ServiceOptions opts;
  opts.plan_cache_capacity = 8;  // far fewer slots than distinct shapes
  auto svc = service::EstimationService::Create(std::move(sketch), opts);
  ASSERT_TRUE(svc.ok());

  constexpr int kThreads = 8;
  constexpr int kRounds = 20;
  std::vector<std::thread> threads;
  std::vector<int> mismatches(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ExecScratch scratch;
      for (int r = 0; r < kRounds; ++r) {
        for (size_t i = t % 3; i < queries.size(); i += 1 + t % 3) {
          auto plan = svc.value()->Prepare(queries[i]);
          if (!plan.ok() ||
              !BitEqual(plan.value()->Execute(scratch), expected[i])) {
            ++mismatches[t];
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[t], 0);

  const auto c = svc.value()->plan_cache_counters();
  EXPECT_LE(c.hits, c.lookups);
  EXPECT_LE(c.size, 8u);
  EXPECT_GT(c.evictions, 0u);
}

// --- Tier-1 facade -------------------------------------------------------

TEST(ApiSessionTest, PrepareExecuteExplainAgree) {
  xml::Document doc = data::MakeBibliography();
  TwigXSketch sketch = TwigXSketch::Coarsest(doc);
  const Estimator reference(sketch);

  auto session = api::Session::Open(TwigXSketch::Coarsest(doc));
  ASSERT_TRUE(session.ok()) << session.status().ToString();

  for (const char* p :
       {"//author/paper", "//author[book]/paper/keyword", "//paper"}) {
    auto prepared = session.value().Prepare(p);
    ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
    auto twig = query::ParsePath(p, doc.tags());
    ASSERT_TRUE(twig.ok());
    const double expected = reference.Estimate(twig.value());
    EXPECT_TRUE(BitEqual(prepared.value().Execute(), expected));
    EXPECT_TRUE(
        BitEqual(prepared.value().ExecuteWithStats().estimate, expected));

    // Explain runs the reference interpreter with a full trace; its
    // estimate is bitwise the compiled path's output.
    obs::ExplainTrace trace;
    auto explained = session.value().Explain(twig.value(), &trace);
    ASSERT_TRUE(explained.ok());
    EXPECT_TRUE(BitEqual(explained.value().estimate, expected));
    EXPECT_TRUE(BitEqual(trace.estimate(), expected));
  }

  // Parse errors surface through Prepare(string_view).
  EXPECT_FALSE(session.value().Prepare("//[broken").ok());
}

TEST(ApiSessionTest, ExecuteBatchMatchesPrepared) {
  xml::Document doc = data::GenerateXMark({.seed = 42, .scale = 0.05});
  auto session = api::Session::Open(TwigXSketch::Coarsest(doc));
  ASSERT_TRUE(session.ok());

  const auto queries = XMarkWorkload(doc, 24);
  service::BatchStats stats;
  auto results = session.value().ExecuteBatch(queries, &stats);
  ASSERT_EQ(results.size(), queries.size());
  EXPECT_EQ(stats.queries, queries.size());
  EXPECT_EQ(stats.plan_cache_lookups, queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE(results[i].ok());
    auto prepared = session.value().Prepare(queries[i]);
    ASSERT_TRUE(prepared.ok());
    EXPECT_TRUE(
        BitEqual(results[i].value().estimate, prepared.value().Execute()));
  }
}

}  // namespace
}  // namespace xsketch::core
