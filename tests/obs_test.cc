// Telemetry-layer tests: MetricsRegistry semantics and exposition
// formats, ExplainTrace bit-for-bit reproduction of the estimator, and
// concurrent registry/audit-mode consistency (run under TSan via
// tests/run_sanitizers.sh).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <clocale>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/estimator.h"
#include "core/twig_xsketch.h"
#include "data/figures.h"
#include "data/xmark.h"
#include "obs/explain.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "query/evaluator.h"
#include "query/workload.h"
#include "query/xpath_parser.h"
#include "service/estimation_service.h"

namespace xsketch {
namespace {

bool BitEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// --- MetricsRegistry ---------------------------------------------------------

TEST(MetricsTest, CounterAndGaugeBasics) {
  obs::MetricsRegistry reg;
  obs::Counter& c = reg.GetCounter("c_total", "help text");
  EXPECT_EQ(c.value(), 0u);
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.value(), 42u);

  obs::Gauge& g = reg.GetGauge("g");
  g.Set(2.5);
  EXPECT_EQ(g.value(), 2.5);

  // First-use registration returns stable references: the same name must
  // yield the same metric object.
  EXPECT_EQ(&reg.GetCounter("c_total"), &c);
  EXPECT_EQ(&reg.GetGauge("g"), &g);
}

TEST(MetricsTest, HistogramBucketsAndSnapshot) {
  obs::MetricsRegistry reg;
  obs::Histogram& h = reg.GetHistogram("h", {1.0, 10.0, 100.0});
  h.Observe(0.5);    // bucket 0 (<= 1)
  h.Observe(1.0);    // bucket 0 (inclusive upper bound)
  h.Observe(7.0);    // bucket 1
  h.Observe(1000.0); // overflow bucket
  const obs::Histogram::Snapshot snap = h.snapshot();
  ASSERT_EQ(snap.bounds.size(), 3u);
  ASSERT_EQ(snap.counts.size(), 4u);
  EXPECT_EQ(snap.counts[0], 2u);
  EXPECT_EQ(snap.counts[1], 1u);
  EXPECT_EQ(snap.counts[2], 0u);
  EXPECT_EQ(snap.counts[3], 1u);
  EXPECT_EQ(snap.count, 4u);  // defined as the sum of bucket counts
  EXPECT_DOUBLE_EQ(snap.sum, 1008.5);
  EXPECT_DOUBLE_EQ(snap.Mean(), 1008.5 / 4.0);
  // Conservative quantile: smallest bound covering q * count.
  EXPECT_EQ(snap.Quantile(0.5), 1.0);
  // Later registrations with different bounds reuse the first layout.
  EXPECT_EQ(&reg.GetHistogram("h", {5.0}), &h);
}

TEST(MetricsTest, SnapshotIsNameOrdered) {
  obs::MetricsRegistry reg;
  reg.GetCounter("zzz");
  reg.GetCounter("aaa");
  reg.GetGauge("mmm");
  const auto snaps = reg.Snapshot();
  ASSERT_EQ(snaps.size(), 3u);
  EXPECT_EQ(snaps[0].name, "aaa");
  EXPECT_EQ(snaps[1].name, "mmm");
  EXPECT_EQ(snaps[2].name, "zzz");
}

TEST(MetricsTest, JsonExposition) {
  obs::MetricsRegistry reg;
  reg.GetCounter("requests_total", "requests served").Increment(3);
  reg.GetHistogram("lat", {1.0, 2.0}).Observe(1.5);
  const std::string json = reg.ToJson();
  EXPECT_NE(json.find("\"name\":\"requests_total\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"counter\""), std::string::npos);
  EXPECT_NE(json.find("\"value\":3"), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"histogram\""), std::string::npos);
  EXPECT_NE(json.find("\"le\":"), std::string::npos);
  EXPECT_NE(json.find("\"count\":1"), std::string::npos);
}

TEST(MetricsTest, PrometheusExposition) {
  obs::MetricsRegistry reg;
  reg.GetCounter("requests_total", "requests served").Increment(3);
  reg.GetGauge("size_bytes").Set(17.0);
  obs::Histogram& h = reg.GetHistogram("lat", {1.0, 2.0});
  h.Observe(0.5);
  h.Observe(1.5);
  const std::string text = reg.ToPrometheusText();
  EXPECT_NE(text.find("# HELP requests_total requests served"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE requests_total counter"), std::string::npos);
  EXPECT_NE(text.find("requests_total 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE size_bytes gauge"), std::string::npos);
  EXPECT_NE(text.find("# TYPE lat histogram"), std::string::npos);
  // Cumulative buckets: le="1" sees 1 observation, le="2" sees 2, +Inf 2.
  EXPECT_NE(text.find("lat_bucket{le=\"1\"} 1"), std::string::npos);
  EXPECT_NE(text.find("lat_bucket{le=\"2\"} 2"), std::string::npos);
  EXPECT_NE(text.find("lat_bucket{le=\"+Inf\"} 2"), std::string::npos);
  EXPECT_NE(text.find("lat_sum 2"), std::string::npos);
  EXPECT_NE(text.find("lat_count 2"), std::string::npos);
}

TEST(MetricsTest, PrometheusExpositionGoldenLayout) {
  // Byte-exact golden for the exposition layout: families are
  // name-ordered, HELP precedes TYPE, histogram buckets are cumulative
  // with a trailing +Inf, and exemplars never leak into the text format
  // (they are JSON-only). Scrape configs parse this text — any diff here
  // is a dashboard-visible format change and must be deliberate.
  obs::MetricsRegistry reg;
  reg.GetCounter("requests_total", "requests served").Increment(3);
  reg.GetGauge("size_bytes").Set(17.0);
  obs::Histogram& h = reg.GetHistogram("lat", {1.0, 2.0}, "latency micros");
  h.Observe(0.5);
  h.Observe(1.5, /*trace_id=*/99);  // exemplar recorded, text unchanged
  const char* golden =
      "# HELP lat latency micros\n"
      "# TYPE lat histogram\n"
      "lat_bucket{le=\"1\"} 1\n"
      "lat_bucket{le=\"2\"} 2\n"
      "lat_bucket{le=\"+Inf\"} 2\n"
      "lat_sum 2\n"
      "lat_count 2\n"
      "# HELP requests_total requests served\n"
      "# TYPE requests_total counter\n"
      "requests_total 3\n"
      "# TYPE size_bytes gauge\n"
      "size_bytes 17\n";
  EXPECT_EQ(reg.ToPrometheusText(), golden);
}

// Switches LC_NUMERIC to an installed comma-decimal locale for the
// object's lifetime; ok() is false when none is installed.
class CommaDecimalLocale {
 public:
  CommaDecimalLocale() : saved_(std::setlocale(LC_NUMERIC, nullptr)) {
    for (const char* name :
         {"de_DE.UTF-8", "de_DE.utf8", "de_DE", "fr_FR.UTF-8", "fr_FR.utf8",
          "fr_FR", "nl_NL.UTF-8", "es_ES.UTF-8", "ru_RU.UTF-8"}) {
      if (std::setlocale(LC_NUMERIC, name) != nullptr &&
          std::string(std::localeconv()->decimal_point) == ",") {
        ok_ = true;
        return;
      }
    }
    std::setlocale(LC_NUMERIC, saved_.c_str());
  }
  ~CommaDecimalLocale() { std::setlocale(LC_NUMERIC, saved_.c_str()); }
  bool ok() const { return ok_; }

 private:
  std::string saved_;
  bool ok_ = false;
};

TEST(LocaleTest, NumberTextIgnoresCommaDecimalLocale) {
  // /metrics, flight records, explain traces and Chrome traces are read
  // by machines: a host program's setlocale must not turn 0.5 into 0,5.
  obs::MetricsRegistry reg;
  reg.GetGauge("ratio").Set(0.5);
  reg.GetHistogram("lat", {0.25, 2.5}).Observe(1.5, /*trace_id=*/7);
  obs::FlightRecord rec;
  rec.estimate = 0.5;
  rec.total_us = 1.25;
  obs::ExplainTrace trace;
  trace.Open(obs::ExplainOp::kProduct, "query", "q");
  trace.Leaf("p", "bucket probability", 0.5);
  trace.Close(0.5);
  obs::Span span;
  span.start_ns = 1500;
  span.dur_ns = 250;
  const auto render = [&] {
    return reg.ToPrometheusText() + reg.ToJson() + rec.ToJson() +
           trace.ToJson() + trace.ToText() + obs::Tracer::ToChromeJson({span});
  };
  const std::string c_text = render();
  EXPECT_NE(c_text.find("ratio 0.5\n"), std::string::npos);
  EXPECT_NE(c_text.find("\"ts\":1.500,\"dur\":0.250"), std::string::npos);

  CommaDecimalLocale comma;
  if (!comma.ok()) GTEST_SKIP() << "no comma-decimal locale installed";
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%.1f", 0.5);
  ASSERT_STREQ(buf, "0,5");  // printf does follow the switched locale
  EXPECT_EQ(render(), c_text);
}

TEST(MetricsTest, GaugeAddSub) {
  obs::MetricsRegistry reg;
  obs::Gauge& g = reg.GetGauge("g");
  g.Add(10.0);
  g.Add(2.5);
  g.Sub(4.0);
  EXPECT_EQ(g.value(), 8.5);
  g.Set(100.0);
  g.Sub(100.0);
  EXPECT_EQ(g.value(), 0.0);
}

TEST(MetricsConcurrencyTest, GaugeAddSubFromManyThreads) {
  // The CAS-loop Add/Sub must lose no update under contention: N threads
  // each add and subtract balanced amounts plus one net +1, so the final
  // value is exactly the thread count.
  obs::MetricsRegistry reg;
  obs::Gauge& g = reg.GetGauge("inflight");
  constexpr int kThreads = 8;
  constexpr int kIters = 20000;
  std::vector<std::thread> threads;
  for (int w = 0; w < kThreads; ++w) {
    threads.emplace_back([&g] {
      for (int i = 0; i < kIters; ++i) {
        g.Add(3.0);
        g.Sub(2.0);
        g.Sub(1.0);
      }
      g.Add(1.0);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(g.value(), static_cast<double>(kThreads));
}

TEST(MetricsTest, ResetZeroesEverything) {
  obs::MetricsRegistry reg;
  reg.GetCounter("c").Increment(5);
  reg.GetHistogram("h", {1.0}).Observe(0.5);
  reg.Reset();
  EXPECT_EQ(reg.GetCounter("c").value(), 0u);
  const auto snap = reg.GetHistogram("h", {1.0}).snapshot();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_EQ(snap.sum, 0.0);
}

TEST(MetricsTest, DefaultRegistryCarriesSubsystemMetrics) {
  // Constructing an estimator registers its counters in the default
  // registry; estimating bumps the query counter.
  xml::Document doc = data::MakeBibliography();
  core::TwigXSketch sketch = core::TwigXSketch::Coarsest(doc);
  core::Estimator est(sketch);
  obs::Counter& queries = obs::MetricsRegistry::Default().GetCounter(
      "xsketch_estimator_queries_total");
  const uint64_t before = queries.value();
  auto q = query::ParsePath("//paper", doc.tags());
  ASSERT_TRUE(q.ok());
  est.Estimate(q.value());
  EXPECT_EQ(queries.value(), before + 1);
}

// --- ExplainTrace ------------------------------------------------------------

std::vector<query::TwigQuery> TraceWorkload(const xml::Document& doc) {
  query::WorkloadOptions wopts;
  wopts.seed = 99;
  wopts.num_queries = 50;
  wopts.min_nodes = 3;
  wopts.max_nodes = 6;
  wopts.value_pred_fraction = 0.4;
  wopts.existential_prob = 0.4;
  const query::Workload wl = query::GeneratePositiveWorkload(doc, wopts);
  std::vector<query::TwigQuery> queries;
  for (const auto& wq : wl.queries) queries.push_back(wq.twig);
  for (const char* p : {"//item//keyword", "//person//name", "//site//text",
                        "//open_auction/bidder"}) {
    auto q = query::ParsePath(p, doc.tags());
    if (q.ok()) queries.push_back(std::move(q).value());
  }
  return queries;
}

TEST(ExplainTraceTest, ReproducesEstimateBitForBit) {
  // Across a mixed workload (child and '//' steps, branching and value
  // predicates), the trace's recorded root AND the value re-derived from
  // its sum/product/existential nodes must equal Estimate() bitwise.
  xml::Document doc = data::GenerateXMark({.seed = 42, .scale = 0.05});
  core::TwigXSketch sketch = core::TwigXSketch::Coarsest(doc);
  core::Estimator est(sketch);
  int nonzero = 0;
  for (const query::TwigQuery& q : TraceWorkload(doc)) {
    const double plain = est.Estimate(q);
    obs::ExplainTrace trace;
    const core::EstimateStats stats = est.EstimateWithTrace(q, &trace);
    ASSERT_FALSE(trace.empty());
    EXPECT_TRUE(BitEqual(trace.estimate(), plain))
        << "trace " << trace.estimate() << " vs " << plain;
    EXPECT_TRUE(BitEqual(trace.Recompute(), plain))
        << "recompute " << trace.Recompute() << " vs " << plain;
    EXPECT_TRUE(BitEqual(stats.estimate, plain));
    if (plain > 0.0) ++nonzero;
  }
  EXPECT_GT(nonzero, 10);  // the workload must actually exercise the tree
}

TEST(ExplainTraceTest, PaperExampleBreakdown) {
  // Bibliography //paper/keyword: covered (E) terms come from the
  // keyword-count histogram at the paper node; the rendering must expose
  // the per-node breakdown whose product/sum reproduces the estimate.
  xml::Document doc = data::MakeBibliography();
  core::TwigXSketch sketch = core::TwigXSketch::Coarsest(doc);
  core::Estimator est(sketch);
  auto q = query::ParsePath("//paper/keyword", doc.tags());
  ASSERT_TRUE(q.ok());
  obs::ExplainTrace trace;
  const core::EstimateStats stats = est.EstimateWithTrace(q.value(), &trace);
  EXPECT_TRUE(BitEqual(trace.estimate(), est.Estimate(q.value())));
  EXPECT_TRUE(BitEqual(trace.Recompute(), trace.estimate()));

  const std::string text = trace.ToText();
  EXPECT_NE(text.find("query //paper"), std::string::npos);
  EXPECT_NE(text.find("extent"), std::string::npos);
  // Histogram enumeration with bucket counts must be annotated.
  EXPECT_NE(text.find("buckets]"), std::string::npos);
  EXPECT_GT(stats.covered_terms, 0);

  const std::string json = trace.ToJson();
  EXPECT_NE(json.find("\"op\":\"sum\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"query\""), std::string::npos);
  EXPECT_NE(json.find("\"twig_node\":"), std::string::npos);
}

TEST(ExplainTraceTest, EmptyTraceAndClear) {
  obs::ExplainTrace trace;
  EXPECT_TRUE(trace.empty());
  EXPECT_EQ(trace.estimate(), 0.0);
  EXPECT_EQ(trace.Recompute(), 0.0);
  EXPECT_EQ(trace.ToJson(), "{}");
  trace.Open(obs::ExplainOp::kSum, "query", "x");
  trace.Leaf("n", "count", 2.0);
  trace.Leaf("n", "count", 3.0);
  trace.Close(5.0);
  EXPECT_EQ(trace.estimate(), 5.0);
  EXPECT_EQ(trace.Recompute(), 5.0);
  trace.Clear();
  EXPECT_TRUE(trace.empty());
}

// --- Concurrency (TSan targets) ----------------------------------------------

TEST(MetricsConcurrencyTest, EightWritersOneRegistry) {
  obs::MetricsRegistry reg;
  obs::Counter& lookups = reg.GetCounter("lookups_total");
  obs::Counter& hits = reg.GetCounter("hits_total");
  obs::Histogram& lat = reg.GetHistogram("lat_us", obs::LatencyBucketsUs());

  constexpr int kThreads = 8;
  constexpr int kIters = 20000;
  std::atomic<bool> stop{false};

  // A reader thread snapshots continuously while writers hammer the
  // metrics: snapshots must never crash or tear (values only checked for
  // internal consistency mid-flight).
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const auto snaps = reg.Snapshot();
      for (const auto& s : snaps) {
        if (s.kind == obs::MetricsRegistry::Kind::kHistogram) {
          uint64_t total = 0;
          for (uint64_t c : s.histogram.counts) total += c;
          // count is defined as the bucket sum, so this always holds.
          EXPECT_EQ(s.histogram.count, total);
        }
      }
      (void)reg.ToPrometheusText();
    }
  });

  std::vector<std::thread> writers;
  for (int w = 0; w < kThreads; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < kIters; ++i) {
        lookups.Increment();
        if ((i + w) % 2 == 0) hits.Increment();
        lat.Observe(static_cast<double>((i * 7 + w) % 2000));
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  reader.join();

  // At quiescence every recorded observation must be accounted for.
  EXPECT_EQ(lookups.value(),
            static_cast<uint64_t>(kThreads) * kIters);
  EXPECT_EQ(hits.value(), static_cast<uint64_t>(kThreads) * kIters / 2);
  EXPECT_EQ(lat.snapshot().count,
            static_cast<uint64_t>(kThreads) * kIters);
  EXPECT_LE(hits.value(), lookups.value());
}

TEST(MetricsConcurrencyTest, AuditModeBatchSharedRegistry) {
  // 8 worker threads estimating + auditing through one service while a
  // snapshot thread reads the shared default registry: the path-cache
  // invariant (hits <= lookups) and histogram bucket-sum consistency must
  // hold throughout, and at quiescence the latency histogram must have
  // grown by exactly the number of queries.
  xml::Document doc = data::GenerateXMark({.seed = 42, .scale = 0.05});
  core::TwigXSketch sketch = core::TwigXSketch::Coarsest(doc);

  query::WorkloadOptions wopts;
  wopts.seed = 7;
  wopts.num_queries = 200;
  wopts.value_pred_fraction = 0.3;
  const query::Workload wl = query::GeneratePositiveWorkload(doc, wopts);
  std::vector<query::TwigQuery> queries;
  for (const auto& wq : wl.queries) queries.push_back(wq.twig);
  for (const char* p : {"//item//keyword", "//person//name"}) {
    auto q = query::ParsePath(p, doc.tags());
    ASSERT_TRUE(q.ok());
    queries.push_back(std::move(q).value());
  }

  service::ServiceOptions opts;
  opts.num_threads = 8;
  opts.audit_fraction = 0.5;
  opts.audit_seed = 3;
  auto svc = service::EstimationService::Create(std::move(sketch), opts);
  ASSERT_TRUE(svc.ok()) << svc.status().ToString();

  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  const uint64_t lat_before =
      reg.GetHistogram("xsketch_service_query_latency_us",
                       obs::LatencyBucketsUs())
          .snapshot()
          .count;
  const uint64_t audit_before =
      reg.GetCounter("xsketch_service_audit_samples_total").value();

  std::atomic<bool> stop{false};
  std::thread snapshotter([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const auto cache = svc.value()->estimator().path_cache_counters();
      EXPECT_LE(cache.hits, cache.lookups);
      for (const auto& s : reg.Snapshot()) {
        if (s.kind == obs::MetricsRegistry::Kind::kHistogram) {
          uint64_t total = 0;
          for (uint64_t c : s.histogram.counts) total += c;
          EXPECT_EQ(s.histogram.count, total);
        }
      }
    }
  });

  service::BatchStats stats;
  auto results = svc.value()->EstimateBatch(queries, &stats);
  stop.store(true, std::memory_order_release);
  snapshotter.join();

  ASSERT_EQ(results.size(), queries.size());
  for (const auto& r : results) EXPECT_TRUE(r.ok());
  EXPECT_EQ(stats.queries, queries.size());
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_LE(stats.cache_hits, stats.cache_lookups);
  // The compiled batch path resolves '//' at Prepare time, so cache
  // activity shows up on the plan cache rather than the estimator's
  // per-query path cache.
  EXPECT_LE(stats.plan_cache_hits, stats.plan_cache_lookups);
  EXPECT_GT(stats.plan_cache_lookups, 0u);
  // audit_fraction = 0.5 over 200+ queries: the sample cannot be empty or
  // everything.
  EXPECT_GT(stats.audited, 0u);
  EXPECT_LT(stats.audited, queries.size());
  EXPECT_GE(stats.audit_max_rel_error, stats.audit_mean_rel_error);

  // Quiescent accounting: one latency observation per query, one audit
  // sample counted per audited query.
  const uint64_t lat_after =
      reg.GetHistogram("xsketch_service_query_latency_us",
                       obs::LatencyBucketsUs())
          .snapshot()
          .count;
  EXPECT_EQ(lat_after - lat_before, queries.size());
  EXPECT_EQ(reg.GetCounter("xsketch_service_audit_samples_total").value() -
                audit_before,
            stats.audited);
}

TEST(ServiceAuditTest, FullAuditMatchesExactEvaluator) {
  // audit_fraction = 1: every successful query is audited and the mean
  // relative error must match a by-hand computation against the exact
  // evaluator, with the paper's |r - c| / max(s, c) metric.
  xml::Document doc = data::MakeBibliography();
  core::TwigXSketch sketch = core::TwigXSketch::Coarsest(doc);

  std::vector<query::TwigQuery> queries;
  for (const char* p :
       {"//paper", "//paper/keyword", "//author/paper/title", "//book"}) {
    auto q = query::ParsePath(p, doc.tags());
    ASSERT_TRUE(q.ok());
    queries.push_back(std::move(q).value());
  }

  service::ServiceOptions opts;
  opts.num_threads = 2;
  opts.audit_fraction = 1.0;
  auto svc = service::EstimationService::Create(sketch, opts);
  ASSERT_TRUE(svc.ok());
  service::BatchStats stats;
  auto results = svc.value()->EstimateBatch(queries, &stats);

  ASSERT_EQ(stats.audited, queries.size());
  query::ExactEvaluator exact(doc);
  double sum = 0.0, max_err = 0.0;
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE(results[i].ok());
    const double r = results[i].value().estimate;
    const double c = static_cast<double>(exact.Selectivity(queries[i]));
    const double e = std::abs(r - c) / std::max(1.0, c);
    sum += e;
    max_err = std::max(max_err, e);
  }
  EXPECT_NEAR(stats.audit_mean_rel_error,
              sum / static_cast<double>(queries.size()), 1e-12);
  EXPECT_NEAR(stats.audit_max_rel_error, max_err, 1e-12);
}

TEST(ServiceAuditTest, AuditSamplingIsDeterministic) {
  xml::Document doc = data::MakeBibliography();
  core::TwigXSketch sketch = core::TwigXSketch::Coarsest(doc);
  std::vector<query::TwigQuery> queries;
  for (int i = 0; i < 32; ++i) {
    auto q = query::ParsePath("//paper/keyword", doc.tags());
    ASSERT_TRUE(q.ok());
    queries.push_back(std::move(q).value());
  }
  service::ServiceOptions opts;
  opts.num_threads = 4;
  opts.audit_fraction = 0.4;
  opts.audit_seed = 11;
  auto svc = service::EstimationService::Create(sketch, opts);
  ASSERT_TRUE(svc.ok());
  service::BatchStats a, b;
  svc.value()->EstimateBatch(queries, &a);
  svc.value()->EstimateBatch(queries, &b);
  // Same seed, same positions -> the same queries are sampled.
  EXPECT_EQ(a.audited, b.audited);
  EXPECT_GT(a.audited, 0u);
}

}  // namespace
}  // namespace xsketch
