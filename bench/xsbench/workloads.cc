// The four workloads: inputs, timed set-up, the measured load with every
// answer checked, and the end-to-end metrics.

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "client.h"
#include "compare.h"
#include "histogram.h"
#include "spans.h"
#include "util/posix_io.h"
#include "xsbench.h"
#include "xsketch_api.h"

namespace xsbench {

using Clock = std::chrono::steady_clock;
namespace xs = xsketch;

uint64_t SubSeed(uint64_t seed, uint64_t purpose) {
  uint64_t x = seed + purpose * 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

RegistryMark RegistryMark::Take() {
  auto& reg = xs::obs::MetricsRegistry::Default();
  RegistryMark m;
  m.daemon_requests = reg.GetCounter("xsketch_daemon_requests_total").value();
  m.handler_us = reg.GetHistogram("xsketch_daemon_handler_us",
                                  xs::obs::LatencyBucketsUs())
                     .snapshot();
  m.plan_lookups =
      reg.GetCounter("xsketch_service_plan_cache_lookups_total").value();
  m.plan_hits = reg.GetCounter("xsketch_service_plan_cache_hits_total").value();
  m.plan_evictions =
      reg.GetCounter("xsketch_service_plan_cache_evictions_total").value();
  const struct mallinfo2 heap = ::mallinfo2();
  m.heap_mb = static_cast<double>(heap.uordblks + heap.hblkhd) / (1 << 20);
  return m;
}

RequestStream::RequestStream(const Shape& shape,
                             const std::vector<Corpus>& corpora, uint64_t seed)
    : shape_(shape),
      rng_(seed),
      // Zipf shapes serve one corpus; the sampler ranks its pool.
      zipf_(corpora.front().pool.queries.size(), 1.0) {
  for (const Corpus& c : corpora) {
    pool_sizes_.push_back(static_cast<int>(c.pool.queries.size()));
  }
}

Request RequestStream::Next() {
  Request r;
  r.corpus = static_cast<int>(rng_.Uniform(pool_sizes_.size()));
  for (int i = 0; i < shape_.batch; ++i) {
    r.queries.push_back(static_cast<int>(
        shape_.zipf ? zipf_.Sample(rng_)
                    : rng_.Uniform(static_cast<uint64_t>(
                          pool_sizes_[r.corpus]))));
  }
  return r;
}

xs::util::Result<std::unique_ptr<ServingDaemon>> ServingDaemon::Start(
    const std::vector<Corpus>& corpora) {
  xs::daemon::DaemonOptions options;
  options.server.port = 0;
  for (const Corpus& c : corpora) {
    options.sketches.emplace_back(c.spec.id, c.sketch_path);
  }
  options.worker_threads = 2;
  options.batch_threads = 2;
  auto created = xs::daemon::Daemon::Create(std::move(options));
  if (!created.ok()) return created.status();
  return std::unique_ptr<ServingDaemon>(
      new ServingDaemon(std::move(created).value()));
}

ServingDaemon::ServingDaemon(std::unique_ptr<xs::daemon::Daemon> d)
    : daemon_(std::move(d)), loop_([this] { daemon_->Run(); }) {}

ServingDaemon::~ServingDaemon() {
  daemon_->BeginDrain();
  loop_.join();
}

namespace {

constexpr int kSetupReps = 3;
constexpr int kSlices = 10;

int XBuildThreads() {
  return std::min(4, xs::util::ThreadPool::HardwareThreads());
}
// Closed-loop clients (or optimizer threads): at most min(4, nproc), and
// two where the host has them.
int LoadThreads() { return std::min(2, xs::util::ThreadPool::HardwareThreads()); }

xs::util::Result<Shape> ShapeFor(const std::string& name, bool smoke) {
  const double big = smoke ? 0.02 : 0.25;
  const double small = smoke ? 0.02 : 0.1;
  const size_t budget = smoke ? 8 << 10 : 32 << 10;
  using Kind = DocSpec::Kind;
  Shape s;
  s.name = name;
  s.budget_bytes = budget;
  if (name == "serve-hot") {
    s.docs = {{"xmark", Kind::kXMark, big}};
    s.pool_size = smoke ? 16 : 64;
    s.zipf = true;
  } else if (name == "serve-churn") {
    s.docs = {{"xmark", Kind::kXMark, small},
              {"imdb", Kind::kImdb, small},
              {"sprot", Kind::kSwissProt, small}};
    s.budget_bytes = smoke ? 8 << 10 : 16 << 10;
    s.pool_size = smoke ? 128 : 2048;
    s.batch = 32;
  } else if (name == "optimize" || name == "build") {
    s.docs = {{"xmark", Kind::kXMark, big}};
    // optimize: enough queries that the slowest 1% (the p99) is a stable
    // set of shapes from seed to seed; build: the post-rebuild check.
    s.pool_size = smoke ? 100 : name == "optimize" ? 2000 : 1000;
  } else {
    return xs::util::Status::InvalidArgument(
        "unknown workload '" + name +
        "' (serve-hot, serve-churn, optimize, build)");
  }
  return s;
}

// The corpus is fixed (the generators' canonical seeds); the run seed
// draws the query pools, the request streams and the churn schedule.
xs::xml::Document Generate(const DocSpec& d) {
  switch (d.kind) {
    case DocSpec::Kind::kXMark:
      return xs::data::GenerateXMark({.seed = 42, .scale = d.scale});
    case DocSpec::Kind::kImdb:
      return xs::data::GenerateImdb({.seed = 7, .scale = d.scale});
    case DocSpec::Kind::kSwissProt:
      return xs::data::GenerateSwissProt({.seed = 11, .scale = d.scale});
  }
  return xs::xml::Document();
}

// Writes next to `path` and renames into place, so a sketch still mapped
// from the old file keeps its pages.
xs::util::Status WriteSketchFile(const std::string& path,
                                 const std::string& image) {
  const std::string tmp = path + ".tmp";
  if (xs::util::Status st = xs::util::WriteStringToFile(tmp, image);
      !st.ok()) {
    return st;
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    return xs::util::Status::Internal("rename " + tmp + ": " + ec.message());
  }
  return xs::util::Status::OK();
}

// XBUILDs every corpus and writes its XSK3 file, adding the XBUILD wall
// time to *xbuild_s and, when `step_ns` is given, each accepted
// refinement's time. XBUILD is deterministic at any thread count, so every
// build must reproduce the first build's bytes.
xs::util::Status BuildSketches(const Shape& shape,
                               std::vector<Corpus>& corpora, double* xbuild_s,
                               RunReport* report,
                               std::vector<uint64_t>* step_ns = nullptr) {
  for (Corpus& c : corpora) {
    xs::core::BuildOptions options;
    options.budget_bytes = shape.budget_bytes;
    options.num_threads = XBuildThreads();
    const Clock::time_point start = Clock::now();
    Clock::time_point last_step = start;
    xs::core::XBuild::StepCallback on_step;
    if (step_ns != nullptr) {
      on_step = [&](const xs::core::TwigXSketch&, size_t) {
        const Clock::time_point now = Clock::now();
        step_ns->push_back(static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(now -
                                                                 last_step)
                .count()));
        last_step = now;
      };
    }
    xs::core::TwigXSketch sketch = [&] {
      Span span("xbuild");
      return xs::core::XBuild(c.doc, options).Build(on_step, &c.build);
    }();
    *xbuild_s += SecondsSince(start);
    Span span("save");
    auto image = xs::core::SaveFrozen(xs::core::FrozenSynopsis(sketch));
    if (!image.ok()) return image.status();
    if (c.sketch_image.empty()) {
      c.sketch_image = image.value();
    } else if (image.value() != c.sketch_image) {
      report->Fail("XBUILD of " + c.spec.id +
                   " gave different XSK3 bytes than its first build");
    }
    if (xs::util::Status st = WriteSketchFile(c.sketch_path, image.value());
        !st.ok()) {
      return st;
    }
  }
  return xs::util::Status::OK();
}

// The answers a correct daemon gives: an in-process Session over the same
// XSK3 file, fed the same query text.
xs::util::Status ComputeExpected(std::vector<Corpus>& corpora,
                                 RunReport* report) {
  for (Corpus& c : corpora) {
    auto frozen = xs::core::LoadFrozenFile(c.sketch_path);
    if (!frozen.ok()) return frozen.status();
    c.frozen = frozen.value();
    xs::service::ServiceOptions options;
    options.num_threads = 1;
    auto session = xs::api::Session::Open(c.frozen, options);
    if (!session.ok()) return session.status();
    c.expected.clear();
    for (const PoolQuery& q : c.pool.queries) {
      auto twig = xs::query::ParseForClause(
          q.text, session.value().service().tags());
      std::optional<double> estimate;
      if (twig.ok() && xs::service::CanonicalTwigKey(twig.value()) ==
                           xs::service::CanonicalTwigKey(q.twig)) {
        auto prepared = session.value().Prepare(twig.value());
        if (prepared.ok()) estimate = prepared.value().Execute();
      }
      if (!estimate.has_value()) {
        report->Fail("no in-process estimate for " + q.text);
      }
      c.expected.push_back(
          estimate.value_or(std::numeric_limits<double>::quiet_NaN()));
    }
  }
  return xs::util::Status::OK();
}

double MeanRelError(const std::vector<Corpus>& corpora) {
  double sum = 0.0;
  for (const Corpus& c : corpora) {
    double err = 0.0;
    for (size_t i = 0; i < c.pool.queries.size(); ++i) {
      const double truth = static_cast<double>(c.pool.queries[i].true_count);
      err += std::abs(c.expected[i] - truth) /
             std::max(c.pool.sanity_bound, truth);
    }
    sum += err / static_cast<double>(c.pool.queries.size());
  }
  return sum / static_cast<double>(corpora.size());
}

// The measured window: `slices` equal slices after the warm-up.
struct Window {
  Clock::time_point start;
  Clock::duration slice;
  int slices = kSlices;

  Clock::time_point end() const { return start + slice * slices; }
  double seconds() const {
    return std::chrono::duration<double>(slice * slices).count();
  }
  // Slice of an operation started at `t`; -1 during warm-up.
  int SliceOf(Clock::time_point t) const {
    if (t < start) return -1;
    return std::min(slices - 1, static_cast<int>((t - start) / slice));
  }
};

Window MakeWindow(double warmup_s, double seconds) {
  Window w;
  w.slice = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds / w.slices));
  w.start = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(warmup_s));
  return w;
}

struct LoadStats {
  explicit LoadStats(int slices) : slice_ns(slices), slice_ops(slices, 0) {}

  std::vector<LatencyHistogram> slice_ns;  // answered, measured window
  std::vector<int64_t> slice_ops;          // estimates / queries completed
  int64_t attempted = 0;
  int64_t wrong = 0;
  int64_t shed = 0;
  int64_t errors = 0;
  int64_t transport = 0;
  // Traced serve runs: pings sent beside the requests, and the round trips
  // of those sent in untraced slices.
  int64_t pings = 0;
  LatencyHistogram untraced_ping_ns;

  int64_t failed() const { return wrong + shed + errors + transport; }

  void Record(int slice, uint64_t ns, int64_t ops) {
    if (slice < 0) return;
    slice_ns[slice].Record(ns);
    slice_ops[slice] += ops;
  }

  void Merge(const LoadStats& o) {
    for (size_t i = 0; i < slice_ns.size(); ++i) {
      slice_ns[i].Merge(o.slice_ns[i]);
      slice_ops[i] += o.slice_ops[i];
    }
    attempted += o.attempted;
    wrong += o.wrong;
    shed += o.shed;
    errors += o.errors;
    transport += o.transport;
    pings += o.pings;
    untraced_ping_ns.Merge(o.untraced_ping_ns);
  }
};

uint64_t NanosSince(Clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           start)
          .count());
}

struct Summary {
  double qps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  uint64_t samples = 0;
  bool per_slice = false;
};

// Medians over the slices when every slice supports its own p99 (so one
// disturbed slice cannot move the result); otherwise the pooled sample.
// nullopt when even the pooled sample cannot support a p99.
std::optional<Summary> Summarize(const LoadStats& s, double window_s) {
  const int n = static_cast<int>(s.slice_ns.size());
  Summary out;
  LatencyHistogram pooled;
  int64_t ops = 0;
  out.per_slice = n > 1;
  for (int i = 0; i < n; ++i) {
    pooled.Merge(s.slice_ns[i]);
    ops += s.slice_ops[i];
    if (!s.slice_ns[i].Percentile(0.99).has_value()) out.per_slice = false;
  }
  out.samples = pooled.count();
  if (out.per_slice) {
    std::vector<double> qps, p50, p99;
    for (int i = 0; i < n; ++i) {
      qps.push_back(static_cast<double>(s.slice_ops[i]) / (window_s / n));
      p50.push_back(*s.slice_ns[i].Percentile(0.5) / 1e3);
      p99.push_back(*s.slice_ns[i].Percentile(0.99) / 1e3);
    }
    out.qps = Median(qps);
    out.p50_us = Median(p50);
    out.p99_us = Median(p99);
    return out;
  }
  const auto p50 = pooled.Percentile(0.5);
  const auto p99 = pooled.Percentile(0.99);
  if (!p50.has_value() || !p99.has_value()) return std::nullopt;
  out.qps = static_cast<double>(ops) / window_s;
  out.p50_us = *p50 / 1e3;
  out.p99_us = *p99 / 1e3;
  return out;
}

// Traced runs alternate untraced and traced periods (slices, or build
// cycles); the gap between their median throughputs is the tracing
// overhead.
double TraceOverhead(const std::vector<double>& untraced,
                     const std::vector<double>& traced) {
  if (untraced.empty() || traced.empty() || Median(untraced) <= 0.0) {
    return 0.0;
  }
  return 1.0 - Median(traced) / Median(untraced);
}

// Median latency of a traced run's untraced (even) slices, in us.
double UntracedP50Us(const LoadStats& s) {
  LatencyHistogram pooled;
  for (size_t i = 0; i < s.slice_ns.size(); i += 2) pooled.Merge(s.slice_ns[i]);
  return pooled.Percentile(0.5).value_or(0.0) / 1e3;
}

double SliceOverhead(const LoadStats& s) {
  std::vector<double> untraced, traced;
  for (size_t i = 0; i < s.slice_ops.size(); ++i) {
    (i % 2 == 0 ? untraced : traced)
        .push_back(static_cast<double>(s.slice_ops[i]));
  }
  return TraceOverhead(untraced, traced);
}

// Main thread during a load: flips tracing at slice boundaries in traced
// runs, then waits out the window.
void PaceWindow(const Window& w, bool trace) {
  if (trace) {
    for (int i = 0; i < w.slices; ++i) {
      std::this_thread::sleep_until(w.start + w.slice * i);
      SetTracing(i % 2 == 1);
    }
  }
  std::this_thread::sleep_until(w.end());
  SetTracing(trace);
}

// What a run measured besides its load's samples.
struct Measured {
  std::vector<double> setup_s;
  std::vector<double> xbuild_s;
  // Heap in use before set-up, with the run's inputs and its load's
  // sample buffers already allocated: heap_mb counts what set-up and the
  // load add on top, the serving state.
  double heap_base_mb = 0.0;
  RegistryMark load_start;
  RegistryMark load_end;
  std::optional<Summary> summary;  // of the load (untraced runs)
  double trace_overhead = 0.0;     // of the load (traced runs)
};

// Reports a finished load: an untraced run's end-to-end metrics, or a
// traced run's load-level layer metrics followed by the ledger.
void Finish(const Shape& shape, const RunOptions& opt,
            std::vector<Corpus>& corpora, ServingDaemon* server,
            const LoadStats& load, const Measured& m, RunReport* report) {
  report->attempted = load.attempted;
  report->failed = load.failed();
  const double rel_error = MeanRelError(corpora);
  report->notes.push_back("mean relative error of the served estimates " +
                          std::to_string(rel_error));
  if (!opt.trace) {
    if (!m.summary.has_value()) {
      report->Fail("too few latency samples to support a p99");
      return;
    }
    char note[160];
    std::snprintf(note, sizeof(note),
                  "latency samples %llu (%s), setups %zu, xbuilds %zu",
                  static_cast<unsigned long long>(m.summary->samples),
                  m.summary->per_slice ? "median over 10 slices" : "pooled",
                  m.setup_s.size(), m.xbuild_s.size());
    report->notes.push_back(note);
    std::snprintf(note, sizeof(note),
                  "heap over the pre-set-up mark: %.3f MB as the load began, "
                  "%.3f MB as it ended",
                  m.load_start.heap_mb - m.heap_base_mb,
                  m.load_end.heap_mb - m.heap_base_mb);
    report->notes.push_back(note);
    report->Add("setup_s", Median(m.setup_s), "s");
    report->Add("throughput_qps", m.summary->qps, "1/s");
    report->Add("latency_p50_us", m.summary->p50_us, "us");
    report->Add("latency_p99_us", m.summary->p99_us, "us");
    report->Add("heap_mb", m.load_end.heap_mb - m.heap_base_mb, "MB");
    return;
  }
  const RegistryMark& a = m.load_start;
  const RegistryMark& b = m.load_end;
  const uint64_t lookups = b.plan_lookups - a.plan_lookups;
  report->Add("service.plan_cache_hit_ratio",
              lookups == 0 ? 0.0
                           : static_cast<double>(b.plan_hits - a.plan_hits) /
                                 static_cast<double>(lookups),
              "ratio");
  report->Add("service.plan_cache_evictions",
              static_cast<double>(b.plan_evictions - a.plan_evictions),
              "count");
  report->Add("core.mean_rel_error", rel_error, "ratio");
  report->Add("core.xbuild_ms", Median(m.xbuild_s) * 1e3, "ms");
  report->Add("bench.trace_overhead", m.trace_overhead, "ratio");
  LayerInputs in;
  in.shape = &shape;
  in.corpora = &corpora;
  in.seed = opt.seed;
  in.smoke = opt.smoke;
  in.daemon = server;
  in.load_start = a;
  in.client_p50_us = UntracedP50Us(load);
  in.ping_p50_us = load.untraced_ping_ns.Percentile(0.5).value_or(0.0) / 1e3;
  MeasureLayers(in, report);
}

// Set-up, kSetupReps times: XBUILD every corpus, write its XSK3, then
// open() the serving surface into *surface. The previous repetition's
// surface goes down before the clock starts; the last one stays up.
template <typename Surface, typename Open>
xs::util::Status SetUp(const Shape& shape, std::vector<Corpus>& corpora,
                       Surface* surface, Open&& open, Measured* m,
                       RunReport* report) {
  for (int rep = 0; rep < kSetupReps; ++rep) {
    *surface = Surface();
    Span span("setup");
    const Clock::time_point start = Clock::now();
    double xb = 0.0;
    if (xs::util::Status st = BuildSketches(shape, corpora, &xb, report);
        !st.ok()) {
      return st;
    }
    auto opened = open();
    if (!opened.ok()) return opened.status();
    *surface = std::move(opened).value();
    m->setup_s.push_back(SecondsSince(start));
    m->xbuild_s.push_back(xb);
  }
  return xs::util::Status::OK();
}

// --- serve-hot / serve-churn --------------------------------------------

// Traced serve runs send one XSKB ping per this many requests, on a
// second connection: the ledger's measure of the time a request
// spends outside the daemon's handler, taken under the same load.
constexpr int kPingEvery = 8;

void ServeClient(const Shape& shape, const std::vector<Corpus>& corpora,
                 uint16_t port, uint64_t seed, const Window& w, bool ping,
                 LoadStats* s) {
  RequestStream stream(shape, corpora, seed);
  Connection conn(port, /*binary=*/shape.batch == 1);
  std::optional<Connection> pinger;
  if (ping) pinger.emplace(port, /*binary=*/true);
  if (!conn.ok() || (pinger.has_value() && !pinger->ok())) {
    ++s->transport;
    return;
  }
  std::vector<std::string> texts;
  std::vector<double> got(1);
  for (int64_t sent = 1;; ++sent) {
    if (pinger.has_value() && sent % kPingEvery == 0) {
      const Clock::time_point start = Clock::now();
      if (start >= w.end()) break;
      ++s->pings;
      if (pinger->Ping() != Outcome::kOk) {
        ++s->transport;
        return;
      }
      const int slice = w.SliceOf(start);
      if (slice >= 0 && slice % 2 == 0) {
        s->untraced_ping_ns.Record(NanosSince(start));
      }
    }
    const Request r = stream.Next();
    const Corpus& c = corpora[r.corpus];
    if (shape.batch > 1) {
      texts.clear();
      for (int q : r.queries) texts.push_back(c.pool.queries[q].text);
    }
    const Clock::time_point start = Clock::now();
    if (start >= w.end()) break;
    Outcome outcome;
    {
      Span span("client.request");
      outcome =
          shape.batch == 1
              ? conn.Estimate(c.spec.id, c.pool.queries[r.queries[0]].text,
                              &got[0])
              : conn.Batch(c.spec.id, texts, &got);
    }
    const uint64_t ns = NanosSince(start);
    ++s->attempted;
    if (outcome == Outcome::kShed) {
      ++s->shed;
    } else if (outcome == Outcome::kError) {
      ++s->errors;
    } else if (outcome == Outcome::kTransport) {
      ++s->transport;
      return;  // the connection is gone
    } else {
      bool right = got.size() == r.queries.size();
      for (size_t i = 0; right && i < r.queries.size(); ++i) {
        right = SameBits(got[i], c.expected[r.queries[i]]);
      }
      if (!right) {
        ++s->wrong;
        continue;
      }
      s->Record(w.SliceOf(start), ns, static_cast<int64_t>(r.queries.size()));
    }
  }
}

xs::util::Status RunServe(const Shape& shape, const RunOptions& opt,
                          std::vector<Corpus>& corpora, RunReport* report) {
  const int clients = LoadThreads();
  std::vector<LoadStats> per(clients, LoadStats(kSlices));
  std::unique_ptr<ServingDaemon> server;
  Measured m;
  m.heap_base_mb = RegistryMark::Take().heap_mb;
  if (xs::util::Status st = SetUp(
          shape, corpora, &server,
          [&] { return ServingDaemon::Start(corpora); }, &m, report);
      !st.ok()) {
    return st;
  }
  if (xs::util::Status st = ComputeExpected(corpora, report); !st.ok()) {
    return st;
  }
  SetTracing(false);

  const Window w = MakeWindow(opt.smoke ? 0.1 : 1.0, opt.seconds);
  m.load_start = RegistryMark::Take();
  const xs::daemon::Daemon::Stats before = server->daemon().stats();
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      ServeClient(shape, corpora, server->port(), SubSeed(opt.seed, 200 + c),
                  w, opt.trace, &per[c]);
    });
  }
  // serve-churn: every fifth of the window, hot-swap a byte-identical copy
  // of one doc's sketch, so catalog swaps land among the reads.
  std::vector<double> put_ms;
  std::vector<std::string> swap_failures;
  std::thread swapper;
  if (corpora.size() > 1) {
    swapper = std::thread([&] {
      for (int k = 1; k < 5; ++k) {
        std::this_thread::sleep_until(w.start + w.slice * (2 * k));
        const Corpus& c = corpora[k % corpora.size()];
        const std::string path =
            c.sketch_path + ".swap" + std::to_string(k);
        const Clock::time_point start = Clock::now();
        xs::util::Status st = WriteSketchFile(path, c.sketch_image);
        if (st.ok()) st = server->daemon().AddSketch(c.spec.id, path);
        put_ms.push_back(SecondsSince(start) * 1e3);
        if (!st.ok()) swap_failures.push_back(st.ToString());
      }
    });
  }
  PaceWindow(w, opt.trace);
  for (std::thread& t : threads) t.join();
  if (swapper.joinable()) swapper.join();
  m.load_end = RegistryMark::Take();
  const xs::daemon::Daemon::Stats after = server->daemon().stats();

  LoadStats total(w.slices);
  for (const LoadStats& s : per) total.Merge(s);
  for (const std::string& f : swap_failures) report->Fail("hot swap: " + f);
  // Every request is answered explicitly and the daemon's counters
  // reconcile with what the clients saw.
  const uint64_t requests = after.requests - before.requests;
  if (requests != static_cast<uint64_t>(total.attempted + total.pings) ||
      after.shed - before.shed != static_cast<uint64_t>(total.shed) ||
      after.errors - before.errors != static_cast<uint64_t>(total.errors)) {
    report->Fail("daemon counters do not reconcile: sent " +
                 std::to_string(total.attempted) + " and " +
                 std::to_string(total.pings) +
                 " pings, daemon_requests_total +" +
                 std::to_string(requests) + ", shed +" +
                 std::to_string(after.shed - before.shed) + ", errors +" +
                 std::to_string(after.errors - before.errors));
  }
  if (!put_ms.empty()) {
    report->notes.push_back("hot swaps " + std::to_string(put_ms.size()) +
                            ", median AddSketch " +
                            std::to_string(Median(put_ms)) + " ms");
  }

  m.summary = Summarize(total, w.seconds());
  m.trace_overhead = SliceOverhead(total);
  Finish(shape, opt, corpora, server.get(), total, m, report);
  return xs::util::Status::OK();
}

// --- optimize -------------------------------------------------------------

// The optimizer's side of the system: a Session over the mapped sketch for
// cardinalities, and structural-join executors over the document.
struct Optimizer {
  Optimizer(xs::api::Session s, const xs::xml::Document& doc)
      : session(std::move(s)), index(doc), binary(index), holistic(index) {}

  xs::api::Session session;
  xs::exec::StreamIndex index;
  xs::exec::StructuralJoinExecutor binary;
  xs::exec::HolisticTwigJoin holistic;
};

xs::util::Result<xs::exec::ExecStats> PlanAndExecute(
    const Optimizer& o, const xs::query::TwigQuery& twig) {
  auto plan = [&] {
    Span span("plan");
    return o.session.Plan(twig);
  }();
  if (!plan.ok()) return plan.status();
  if (plan.value().use_holistic) {
    Span span("exec.holistic");
    return o.holistic.Execute(twig);
  }
  Span span("exec.binary");
  return o.binary.ExecuteBinary(twig, plan.value().order);
}

xs::util::Result<std::unique_ptr<Optimizer>> OpenOptimizer(
    const Corpus& c) {
  auto frozen = xs::core::LoadFrozenFile(c.sketch_path);
  if (!frozen.ok()) return frozen.status();
  xs::service::ServiceOptions options;
  options.num_threads = 2;
  auto session = xs::api::Session::Open(std::move(frozen).value(), options);
  if (!session.ok()) return session.status();
  return std::make_unique<Optimizer>(std::move(session).value(), c.doc);
}

void OptimizeWorker(const Optimizer& o, const Corpus& c, uint64_t seed,
                    const Window& w, LoadStats* s) {
  std::vector<int> order(c.pool.queries.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  xs::util::Rng rng(seed);
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.Uniform(i)]);
  }
  for (size_t i = 0;; ++i) {
    const PoolQuery& q = c.pool.queries[order[i % order.size()]];
    const Clock::time_point start = Clock::now();
    if (start >= w.end()) break;
    auto r = [&] {
      Span span("query");
      return PlanAndExecute(o, q.twig);
    }();
    const uint64_t ns = NanosSince(start);
    ++s->attempted;
    if (!r.ok()) {
      ++s->errors;
    } else if (r.value().matches != q.true_count) {
      ++s->wrong;
    } else {
      s->Record(w.SliceOf(start), ns, 1);
    }
  }
}

xs::util::Status RunOptimize(const Shape& shape, const RunOptions& opt,
                             std::vector<Corpus>& corpora,
                             RunReport* report) {
  const int threads_n = LoadThreads();
  std::vector<LoadStats> per(threads_n, LoadStats(kSlices));
  // Planned once more after the load, in order; drawn from a fixed seed,
  // not the run's.
  const Pool settle = MakePool(corpora[0].doc, SubSeed(0, 500),
                               opt.smoke ? 32 : 256, /*value_pred_fraction=*/0.5);
  std::unique_ptr<Optimizer> optimizer;
  Measured m;
  m.heap_base_mb = RegistryMark::Take().heap_mb;
  if (xs::util::Status st = SetUp(
          shape, corpora, &optimizer,
          [&] { return OpenOptimizer(corpora[0]); }, &m, report);
      !st.ok()) {
    return st;
  }
  SetTracing(false);

  // A query whose plan trips the executor's emitted-row cap (OutOfRange,
  // a resource guard) is dropped up front: no operation of the load may
  // fail.
  Corpus& c = corpora[0];
  std::vector<PoolQuery> kept;
  for (PoolQuery& q : c.pool.queries) {
    auto r = PlanAndExecute(*optimizer, q.twig);
    if (!r.ok() && r.status().code() == xs::util::StatusCode::kOutOfRange) {
      continue;
    }
    kept.push_back(std::move(q));
  }
  report->notes.push_back(
      "optimize pool: " + std::to_string(kept.size()) + " of " +
      std::to_string(c.pool.queries.size()) +
      " queries kept (the rest exceed the executor's row cap)");
  c.pool.queries = std::move(kept);
  c.pool.sanity_bound = SanityBound(c.pool.queries);
  if (xs::util::Status st = ComputeExpected(corpora, report); !st.ok()) {
    return st;
  }

  const Window w = MakeWindow(opt.smoke ? 0.1 : 1.0, opt.seconds);
  m.load_start = RegistryMark::Take();
  std::vector<std::thread> threads;
  for (int t = 0; t < threads_n; ++t) {
    threads.emplace_back([&, t] {
      OptimizeWorker(*optimizer, c, SubSeed(opt.seed, 300 + t), w, &per[t]);
    });
  }
  PaceWindow(w, opt.trace);
  for (std::thread& t : threads) t.join();
  // Which plans the LRU plan cache holds at the end depends on the seed's
  // pool and on how the two threads interleaved, and plans differ in size
  // by more than heap_mb's bound. Planning one fixed query set in order
  // leaves the same plans in it on every run, so heap_mb measures the
  // size of the plans and of the rest of the serving state.
  for (const PoolQuery& q : settle.queries) {
    if (!optimizer->session.Plan(q.twig).ok()) {
      report->Fail("settling pass: cannot plan " + q.text);
    }
  }
  m.load_end = RegistryMark::Take();

  LoadStats total(w.slices);
  for (const LoadStats& s : per) total.Merge(s);
  m.summary = Summarize(total, w.seconds());
  m.trace_overhead = SliceOverhead(total);
  Finish(shape, opt, corpora, nullptr, total, m, report);
  return xs::util::Status::OK();
}

// --- build ----------------------------------------------------------------

xs::util::Result<xs::api::Session> OpenSession(const Corpus& c) {
  auto frozen = [&] {
    Span span("load");
    return xs::core::LoadFrozenFile(c.sketch_path);
  }();
  if (!frozen.ok()) return frozen.status();
  return xs::api::Session::Open(std::move(frozen).value());
}

xs::util::Status RunBuild(const Shape& shape, const RunOptions& opt,
                          std::vector<Corpus>& corpora, RunReport* report) {
  LoadStats total(1);
  Measured m;
  m.heap_base_mb = RegistryMark::Take().heap_mb;
  std::optional<xs::api::Session> session;
  if (xs::util::Status st = SetUp(
          shape, corpora, &session,
          [&] { return OpenSession(corpora[0]); }, &m, report);
      !st.ok()) {
    return st;
  }
  if (xs::util::Status st = ComputeExpected(corpora, report); !st.ok()) {
    return st;
  }

  // Rebuild cycles: XBUILD, persist, map, and answer the pool on the fresh
  // sketch (every query a plan-cache miss; no answer may change). The
  // measured operation is one accepted XBUILD refinement: throughput is
  // refinements per second of the loop, latency the time each took.
  // Traced runs trace every other cycle.
  const Corpus& c = corpora[0];
  m.load_start = RegistryMark::Take();
  std::vector<double> untraced_qps, traced_qps;
  std::vector<uint64_t> steps;
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(opt.seconds));
  // At least two cycles when traced (one of each kind), and enough
  // refinements for a supported p99.
  for (int cycle = 0; Clock::now() < end || (opt.trace && cycle < 2) ||
                      !total.slice_ns[0].Percentile(0.99).has_value();
       ++cycle) {
    const bool traced = opt.trace && cycle % 2 == 1;
    SetTracing(traced);
    const Clock::time_point cycle_start = Clock::now();
    Span span("cycle");
    session.reset();
    double xb = 0.0;
    steps.clear();
    if (xs::util::Status st =
            BuildSketches(shape, corpora, &xb, report, &steps);
        !st.ok()) {
      return st;
    }
    m.xbuild_s.push_back(xb);
    ++total.attempted;  // the build itself, checked byte for byte
    for (uint64_t ns : steps) total.Record(0, ns, 1);
    auto opened = OpenSession(c);
    if (!opened.ok()) return opened.status();
    session = std::move(opened).value();
    for (size_t i = 0; i < c.pool.queries.size(); ++i) {
      std::optional<double> estimate;
      {
        Span q_span("estimate");
        auto prepared = session->Prepare(c.pool.queries[i].twig);
        if (prepared.ok()) estimate = prepared.value().Execute();
      }
      ++total.attempted;
      if (!estimate.has_value()) {
        ++total.errors;
      } else if (!SameBits(*estimate, c.expected[i])) {
        ++total.wrong;
      }
    }
    (traced ? traced_qps : untraced_qps)
        .push_back(static_cast<double>(steps.size()) /
                   SecondsSince(cycle_start));
  }
  const double window_s = SecondsSince(start);
  SetTracing(opt.trace);
  m.load_end = RegistryMark::Take();  // the last cycle's session still open
  session.reset();

  m.summary = Summarize(total, window_s);
  m.trace_overhead = TraceOverhead(untraced_qps, traced_qps);
  Finish(shape, opt, corpora, nullptr, total, m, report);
  return xs::util::Status::OK();
}

}  // namespace

xs::util::Result<RunReport> RunWorkload(const RunOptions& options) {
  auto shape = ShapeFor(options.workload, options.smoke);
  if (!shape.ok()) return shape.status();
  if (!(options.seconds > 0.0)) {
    return xs::util::Status::InvalidArgument("--seconds must be > 0");
  }
  // Sketch files live in a per-process directory removed on the way out.
  const std::filesystem::path run_dir =
      std::filesystem::path(options.out_dir) /
      ("run-" + std::to_string(::getpid()));
  std::error_code ec;
  std::filesystem::create_directories(run_dir, ec);
  if (ec) {
    return xs::util::Status::Internal("cannot create " + run_dir.string() +
                                      ": " + ec.message());
  }
  struct RemoveDir {
    std::filesystem::path dir;
    ~RemoveDir() {
      std::error_code ignored;
      std::filesystem::remove_all(dir, ignored);
    }
  } cleanup{run_dir};

  RunReport report;
  std::vector<Corpus> corpora(shape.value().docs.size());
  for (size_t i = 0; i < corpora.size(); ++i) {
    Corpus& c = corpora[i];
    c.spec = shape.value().docs[i];
    c.doc = Generate(c.spec);
    c.pool = MakePool(c.doc, SubSeed(options.seed, 100 + i),
                      shape.value().pool_size, /*value_pred_fraction=*/0.5);
    c.sketch_path = (run_dir / (c.spec.id + ".xsk3")).string();
    char note[200];
    std::snprintf(note, sizeof(note),
                  "%s: %zu elements; pool %zu distinct keys, round-trip "
                  "kept %zu of %zu candidates (%.0f%%), sanity bound %.0f",
                  c.spec.id.c_str(), c.doc.size(), c.pool.queries.size(),
                  c.pool.round_trips, c.pool.candidates,
                  100.0 * c.pool.kept_share(), c.pool.sanity_bound);
    report.notes.push_back(note);
  }

  ResetSpans();
  SetTracing(options.trace);
  xs::util::Status st;
  if (options.workload == "serve-hot" || options.workload == "serve-churn") {
    st = RunServe(shape.value(), options, corpora, &report);
  } else if (options.workload == "optimize") {
    st = RunOptimize(shape.value(), options, corpora, &report);
  } else {
    st = RunBuild(shape.value(), options, corpora, &report);
  }
  SetTracing(false);
  if (!st.ok()) return st;
  if (report.failed != 0) {
    report.Fail(std::to_string(report.failed) + " of " +
                std::to_string(report.attempted) +
                " operations failed, were shed, or answered wrongly");
  }

  if (options.trace) {
    // One file per workload: the latest traced run's spans.
    const std::string path = (std::filesystem::path(options.out_dir) /
                              ("trace-" + options.workload + ".json"))
                                 .string();
    const std::vector<SpanRecord> spans = CollectSpans();
    if (xs::util::Status w = WriteChromeTrace(path, spans); !w.ok()) {
      return w;
    }
    report.notes.push_back("trace: " + path + " (" +
                           std::to_string(spans.size()) + " spans, " +
                           std::to_string(DroppedSpans()) + " dropped)");
  }
  return report;
}

}  // namespace xsbench
