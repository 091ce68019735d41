// Unit tests of xsbench's own machinery: the latency histogram, the
// twig->text renderer and its pools, the quartile and compare rules, and
// span self times.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "compare.h"
#include "histogram.h"
#include "query/evaluator.h"
#include "query/xpath_parser.h"
#include "render.h"
#include "service/estimation_service.h"
#include "spans.h"
#include "util/percentiles.h"
#include "util/posix_io.h"
#include "util/random.h"
#include "data/xmark.h"

namespace xsbench {
namespace {

using xsketch::query::Axis;
using xsketch::query::TwigQuery;
using xsketch::query::ValuePredicate;

// --- LatencyHistogram -----------------------------------------------------

TEST(LatencyHistogramTest, MatchesNearestRankPercentileWithinOnePercent) {
  xsketch::util::Rng rng(7);
  LatencyHistogram h;
  std::vector<double> samples;
  for (int i = 0; i < 20000; ++i) {
    // Log-normal-ish latencies from ~1 us to ~10 ms.
    const uint64_t ns = static_cast<uint64_t>(
        std::exp(rng.Gaussian(std::log(50'000.0), 1.2)));
    h.Record(ns);
    samples.push_back(static_cast<double>(ns));
  }
  std::sort(samples.begin(), samples.end());
  for (double p : {0.01, 0.25, 0.5, 0.9, 0.99, 0.999}) {
    const double want = xsketch::util::PercentileSorted(samples, p);
    const std::optional<double> got = h.Percentile(p);
    ASSERT_TRUE(got.has_value()) << p;
    EXPECT_LE(std::abs(*got - want), 0.01 * want) << "p=" << p;
  }
}

TEST(LatencyHistogramTest, SmallValuesAreExact) {
  LatencyHistogram h;
  std::vector<double> samples;
  for (uint64_t v = 0; v < 128; ++v) {
    h.Record(v);
    samples.push_back(static_cast<double>(v));
  }
  EXPECT_EQ(h.Percentile(0.5), xsketch::util::PercentileSorted(samples, 0.5));
}

TEST(LatencyHistogramTest, RefusesTailsWithFewerThanTenSamplesBeyond) {
  LatencyHistogram h;
  for (int i = 0; i < 100; ++i) h.Record(1000 + i);
  EXPECT_TRUE(h.Percentile(0.5).has_value());
  EXPECT_TRUE(h.Percentile(0.89).has_value());  // rank 88: 11 beyond
  EXPECT_FALSE(h.Percentile(0.99).has_value());  // rank 98: 1 beyond
  LatencyHistogram tiny;
  for (int i = 0; i < 10; ++i) tiny.Record(5);
  EXPECT_FALSE(tiny.Percentile(0.5).has_value());
  EXPECT_FALSE(LatencyHistogram().Percentile(0.5).has_value());
}

TEST(LatencyHistogramTest, MergeAddsCounts) {
  LatencyHistogram a, b;
  for (int i = 0; i < 50; ++i) a.Record(100);
  for (int i = 0; i < 50; ++i) b.Record(1'000'000);
  a.Merge(b);
  EXPECT_EQ(a.count(), 100u);
  EXPECT_EQ(a.Percentile(0.25), 100.0);
  EXPECT_NEAR(*a.Percentile(0.75), 1e6, 1e6 * 0.01);
}

// --- renderer -------------------------------------------------------------

class RenderTest : public ::testing::Test {
 protected:
  RenderTest() {
    for (const char* t : {"a", "b", "c", "d"}) tags_.Intern(t);
  }
  xsketch::util::StringInterner tags_;
};

TEST_F(RenderTest, ParseOrderTwigRoundTrips) {
  // for t0 in //a[b[c]][d>=5], t4 in t0/c, t5 in t4//d[.=3]
  TwigQuery twig;
  const int a = twig.AddNode(TwigQuery::kNoParent, Axis::kDescendant, 0);
  const int b = twig.AddNode(a, Axis::kChild, 1, /*existential=*/true);
  twig.AddNode(b, Axis::kChild, 2, true);
  twig.AddNode(a, Axis::kChild, 3, true, ValuePredicate{5, INT64_MAX});
  const int c = twig.AddNode(a, Axis::kChild, 2);
  twig.AddNode(c, Axis::kDescendant, 3, false, ValuePredicate{3, 3});
  const std::string text = RenderTwig(twig, tags_);
  EXPECT_EQ(text,
            "for t0 in //a[b[c]][d[.>=5]], t4 in t0/c, t5 in t4//d[.=3]");
  EXPECT_TRUE(RoundTrips(twig, text, tags_));
}

TEST_F(RenderTest, BranchGrownAfterALaterBindingDoesNotRoundTrip) {
  // The existential [b] on the root is node 2, after binding node 1: the
  // for-clause grammar puts a node's predicates right after it.
  TwigQuery twig;
  const int a = twig.AddNode(TwigQuery::kNoParent, Axis::kChild, 0);
  twig.AddNode(a, Axis::kChild, 2);
  twig.AddNode(a, Axis::kChild, 1, /*existential=*/true);
  EXPECT_FALSE(RoundTrips(twig, RenderTwig(twig, tags_), tags_));
}

TEST_F(RenderTest, TwoSidedRangesRoundTripOnlyOnceOneSided) {
  TwigQuery twig;
  const int a = twig.AddNode(TwigQuery::kNoParent, Axis::kChild, 0);
  twig.AddNode(a, Axis::kChild, 1, false, ValuePredicate{3, 7});
  EXPECT_FALSE(RoundTrips(twig, RenderTwig(twig, tags_), tags_));
  EXPECT_TRUE(MakeOneSided(&twig));
  EXPECT_EQ(twig.node(1).pred->lo, 3);
  EXPECT_EQ(twig.node(1).pred->hi, INT64_MAX);
  EXPECT_TRUE(RoundTrips(twig, RenderTwig(twig, tags_), tags_));
  EXPECT_FALSE(MakeOneSided(&twig));
}

TEST(PoolTest, DistinctRoundTrippingQueriesWithExactCounts) {
  const xsketch::xml::Document doc =
      xsketch::data::GenerateXMark({.seed = 42, .scale = 0.02});
  const Pool pool = MakePool(doc, 5, 40, 0.5);
  ASSERT_EQ(pool.queries.size(), 40u);
  EXPECT_GE(pool.candidates, pool.round_trips);
  EXPECT_GE(pool.round_trips, pool.queries.size());
  const xsketch::query::ExactEvaluator exact(doc);
  std::vector<std::string> keys;
  for (const PoolQuery& q : pool.queries) {
    EXPECT_TRUE(RoundTrips(q.twig, q.text, doc.tags())) << q.text;
    EXPECT_GT(q.true_count, 0u);
    EXPECT_EQ(q.true_count, exact.Selectivity(q.twig)) << q.text;
    keys.push_back(xsketch::service::CanonicalTwigKey(q.twig));
  }
  std::sort(keys.begin(), keys.end());
  EXPECT_EQ(std::unique(keys.begin(), keys.end()), keys.end());
  EXPECT_GE(pool.sanity_bound, 1.0);
}

// --- quartiles and compare ----------------------------------------------

TEST(QuartilesTest, MatchPythonStatisticsQuantiles) {
  // statistics.quantiles(data, n=4) on each input.
  EXPECT_EQ(Quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}),
            (std::vector<double>{2.75, 5.5, 8.25}));
  EXPECT_EQ(Quartiles({10.2, 9.9, 10.0}),
            (std::vector<double>{9.9, 10.0, 10.2}));
  EXPECT_EQ(Quartiles({8.0, 10.0, 13.0, 4.0}),
            (std::vector<double>{5.0, 9.0, 12.25}));
  EXPECT_EQ(Quartiles({5.0, 1.0}), (std::vector<double>{0.0, 3.0, 6.0}));
  EXPECT_EQ(Median({3.0, 1.0, 2.0, 10.0}), 2.5);
}

class CompareTest : public ::testing::Test {
 protected:
  static std::vector<RunOutput> Load(const std::string& name) {
    std::string text;
    EXPECT_TRUE(xsketch::util::ReadFileToString(
                    std::string(XSBENCH_TESTDATA) + "/" + name, &text)
                    .ok());
    auto runs = ParseRunOutputs(text);
    EXPECT_TRUE(runs.ok()) << runs.status().ToString();
    return runs.ok() ? runs.value() : std::vector<RunOutput>();
  }
  static BenchSpec Spec() {
    auto spec = LoadBenchSpec(std::string(XSBENCH_TESTDATA) +
                              "/BENCHMARK.json");
    EXPECT_TRUE(spec.ok());
    return spec.value();
  }
  static Verdict VerdictOf(const Comparison& c, const std::string& workload,
                           const std::string& metric) {
    for (const MetricComparison& m : c.metrics) {
      if (m.workload == workload && m.metric == metric) return m.verdict;
    }
    ADD_FAILURE() << "no comparison for " << workload << ":" << metric;
    return Verdict::kOk;
  }
};

TEST_F(CompareTest, ParsesRunsAppendedToOneFile) {
  const std::vector<RunOutput> runs = Load("parent.out");
  ASSERT_EQ(runs.size(), 6u);
  EXPECT_EQ(runs[0].workload, "hot");
  EXPECT_EQ(runs[5].workload, "cold");
  EXPECT_TRUE(runs[0].correct);
  EXPECT_EQ(runs[0].attempted, 100);
  EXPECT_EQ(runs[1].metrics.at("latency_ms"), 10.2);
}

TEST_F(CompareTest, SameCodeIsWithinBounds) {
  const Comparison c = Compare(Spec(), Load("parent.out"),
                               Load("parent.out"), {});
  EXPECT_EQ(c.metrics.size(), 4u);
  EXPECT_FALSE(c.regressed());
}

TEST_F(CompareTest, SlowerChangeRegresses) {
  const Comparison c = Compare(Spec(), Load("parent.out"),
                               Load("slower.out"), {});
  EXPECT_EQ(VerdictOf(c, "hot", "latency_ms"), Verdict::kRegressed);
  EXPECT_EQ(VerdictOf(c, "hot", "throughput"), Verdict::kOk);
  EXPECT_EQ(VerdictOf(c, "cold", "latency_ms"), Verdict::kOk);
  EXPECT_TRUE(c.regressed());
}

TEST_F(CompareTest, NoisyParentIsUnresolvedNotRegressed) {
  const Comparison c = Compare(Spec(), Load("noisy.out"),
                               Load("slower.out"), {});
  EXPECT_EQ(VerdictOf(c, "hot", "latency_ms"), Verdict::kUnresolved);
  EXPECT_FALSE(c.regressed());
}

TEST_F(CompareTest, NoisyParentBeatenByEveryRunIsOk) {
  const Comparison c = Compare(Spec(), Load("noisy.out"),
                               Load("faster.out"), {});
  // faster's hot latencies (7.9-8.1) do not all beat noisy's 8.0.
  EXPECT_EQ(VerdictOf(c, "hot", "latency_ms"), Verdict::kUnresolved);
  const Comparison d = Compare(Spec(), Load("slower.out"),
                               Load("faster.out"), {});
  EXPECT_EQ(VerdictOf(d, "hot", "latency_ms"), Verdict::kOk);
}

TEST_F(CompareTest, NamedClaimNeedsNineTenthsOfWinsAndAGapBeyondTheIqr) {
  const Comparison met = Compare(Spec(), Load("parent.out"),
                                 Load("faster.out"), {"hot:latency_ms"});
  ASSERT_EQ(met.claims.size(), 1u);
  EXPECT_TRUE(met.claims[0].met);
  EXPECT_EQ(met.claims[0].wins, 3);
  EXPECT_FALSE(met.regressed());

  const Comparison not_met = Compare(Spec(), Load("parent.out"),
                                     Load("parent.out"), {"hot:throughput"});
  ASSERT_EQ(not_met.claims.size(), 1u);
  EXPECT_FALSE(not_met.claims[0].met);
  EXPECT_TRUE(not_met.regressed());
}

TEST_F(CompareTest, IncorrectRunIsAProblem) {
  std::vector<RunOutput> change = Load("parent.out");
  change[0].correct = false;
  const Comparison c = Compare(Spec(), Load("parent.out"), change, {});
  EXPECT_FALSE(c.problems.empty());
  EXPECT_TRUE(c.regressed());
}

TEST(BenchSpecTest, RepositoryBenchmarkJsonParses) {
  auto spec = LoadBenchSpec(std::string(XSBENCH_TESTDATA) +
                            "/../../../BENCHMARK.json");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(spec.value().workloads.size(), 4u);
  bool setup = false;
  for (const MetricSpec& m : spec.value().end_to_end) {
    EXPECT_GT(m.bound, 0.0) << m.name;
    EXPECT_LE(m.bound, 0.25) << m.name;
    setup = setup || (m.name == "setup_s" && m.unit == "s" &&
                      !m.higher_is_better);
  }
  EXPECT_TRUE(setup);
}

// --- spans ------------------------------------------------------------------

TEST(SpansTest, SelfTimeIsDurationMinusChildren) {
  ResetSpans();
  SetTracing(true);
  {
    Span outer("outer");
    { Span inner("inner"); }
    { Span inner("inner"); }
  }
  SetTracing(false);
  { Span ignored("off"); }
  const std::vector<SpanRecord> spans = CollectSpans();
  ASSERT_EQ(spans.size(), 3u);
  const std::vector<uint64_t> self = SelfTimesNs(spans);
  const SpanRecord& outer = spans[2];
  ASSERT_STREQ(outer.name, "outer");
  EXPECT_EQ(spans[0].parent, outer.id);
  EXPECT_EQ(spans[1].parent, outer.id);
  EXPECT_EQ(self[0], spans[0].dur_ns);
  EXPECT_EQ(self[2], outer.dur_ns - spans[0].dur_ns - spans[1].dur_ns);
  ResetSpans();
}

}  // namespace
}  // namespace xsbench
