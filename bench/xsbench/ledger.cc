// The traced run's per-layer numbers.
//
// Ledger: the first requests of the run's seed are replayed through
// public functions, one layer more at each level —
//   1 CompiledTwig::Execute          5 + EstimationService::Estimate
//   2 + TwigQuery::Validate             (flight record)
//   3 + CanonicalTwigKey             6 + EstimateBatch
//   4 + EstimationService::Prepare   7 + wire / HTTP+JSON codec, in process
//                                    8 + daemon round trip over loopback
// Levels are timed interleaved, best of k rounds, and each level's excess
// over the one below is that layer's marginal cost per request.
//
// Beside the ledger, isolated calls into each layer are timed. The
// daemon's registry deltas give its handler time; pings and the two
// cross-thread handoffs give the time outside it. Together with the
// ledger's in-process path they must account for the client's median
// latency on serve-hot.

#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "client.h"
#include "compare.h"
#include "net/http.h"
#include "net/json.h"
#include "net/wire.h"
#include "spans.h"
#include "xsbench.h"
#include "xsketch_api.h"

namespace xsbench {

namespace {

using Clock = std::chrono::steady_clock;
namespace xs = xsketch;

// Keeps a computed value alive against dead-code elimination.
template <typename T>
void Keep(const T& value) {
  asm volatile("" : : "g"(&value) : "memory");
}

double NowSeconds() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

// Best (smallest) of `rounds` timings of fn(), in seconds.
template <typename Fn>
double BestOf(int rounds, Fn&& fn) {
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < rounds; ++r) {
    const double start = NowSeconds();
    fn();
    best = std::min(best, NowSeconds() - start);
  }
  return best;
}

// Median of `reps` timings of fn(), in seconds. What fn() returns is
// destroyed after the clock stops, so teardown is not timed.
template <typename Fn>
double MedianOf(int reps, Fn&& fn) {
  std::vector<double> samples;
  for (int r = 0; r < reps; ++r) {
    const double start = NowSeconds();
    const auto held = fn();
    samples.push_back(NowSeconds() - start);
  }
  return Median(samples);
}

// One replayed request, materialized for every level.
struct Replay {
  const Corpus* corpus = nullptr;
  xs::service::EstimationService* service = nullptr;
  std::vector<xs::query::TwigQuery> twigs;
  std::vector<std::string> texts;
  std::vector<double> expected;
  std::vector<std::shared_ptr<const xs::core::CompiledTwig>> plans;
};

std::string RenderBatchBody(
    const std::vector<xs::util::Result<xs::core::EstimateStats>>& results) {
  // The daemon's /batch response layout, built with the same net/json
  // helpers it uses.
  std::string body = "{\"results\":[";
  for (size_t i = 0; i < results.size(); ++i) {
    if (i > 0) body += ",";
    body += "{\"estimate\":";
    xs::net::AppendJsonNumber(&body, results[i].ok()
                                         ? results[i].value().estimate
                                         : 0.0);
    body += "}";
  }
  body += "],\"deadline_exceeded\":false,\"abandoned\":0}\n";
  return body;
}

// Level 7: the request's full in-process life without a socket — client
// encode, server decode and query parse, EstimateBatch, server encode,
// client decode. Returns the estimates the client would read.
std::vector<double> CodecRoundTrip(const Replay& r) {
  std::vector<double> out;
  std::vector<xs::query::TwigQuery> twigs;
  if (r.texts.size() == 1) {
    std::string frame;
    xs::net::WireEstimateRequest req;
    req.doc = r.corpus->spec.id;
    req.query = r.texts[0];
    xs::net::AppendWireFrame(&frame, xs::net::FrameType::kEstimate,
                             xs::net::EncodeEstimateRequest(req));
    auto parsed = xs::net::ParseWireFrame(frame, 1 << 20);
    auto decoded = xs::net::DecodeEstimateRequest(parsed.frame.payload);
    if (!decoded.ok()) return out;
    auto twig =
        xs::query::ParseForClause(decoded.value().query, r.service->tags());
    if (!twig.ok()) return out;
    twigs.push_back(std::move(twig).value());
    auto results = r.service->EstimateBatch(twigs);
    if (!results[0].ok()) return out;
    std::string resp;
    xs::net::AppendWireFrame(
        &resp, xs::net::FrameType::kEstimateOk,
        xs::net::EncodeEstimateOk(results[0].value().estimate));
    auto back = xs::net::ParseWireFrame(resp, 1 << 20);
    auto estimate = xs::net::DecodeEstimateOk(back.frame.payload);
    if (estimate.ok()) out.push_back(estimate.value());
    return out;
  }
  const std::string request =
      BatchHttpRequest(BatchRequestBody(r.corpus->spec.id, r.texts));
  auto parsed = xs::net::ParseHttpRequest(request, xs::net::HttpLimits{});
  if (parsed.outcome != xs::net::HttpParseOutcome::kRequest) return out;
  auto json = xs::net::ParseJson(parsed.request.body);
  if (!json.ok()) return out;
  const xs::net::JsonValue* queries = json.value().Find("queries");
  if (queries == nullptr) return out;
  for (const xs::net::JsonValue& q : queries->array()) {
    auto twig = xs::query::ParseForClause(q.string_value(), r.service->tags());
    if (!twig.ok()) return out;
    twigs.push_back(std::move(twig).value());
  }
  const std::string response = xs::net::SerializeHttpResponse(
      200, "application/json", RenderBatchBody(r.service->EstimateBatch(twigs)),
      /*keep_alive=*/true);
  const size_t split = response.find("\r\n\r\n");
  ParseBatchResponse(response.substr(split + 4), &out);
  return out;
}

constexpr int kLevels = 8;
constexpr std::array<const char*, kLevels + 1> kLevelSpan = {
    "",
    "ledger.execute",
    "ledger.validate",
    "ledger.twig_key",
    "ledger.prepare",
    "ledger.estimate",
    "ledger.batch",
    "ledger.codec",
    "ledger.daemon"};
constexpr std::array<const char*, kLevels + 1> kLevelMetric = {
    "",
    "ledger.execute_ns",
    "ledger.validate_ns",
    "ledger.twig_key_ns",
    "ledger.prepare_ns",
    "ledger.estimate_ns",
    "ledger.batch_ns",
    "ledger.codec_ns",
    "ledger.daemon_ns"};

// Runs every replayed request at `level`; returns the number of answers
// that differ from the expected estimates.
int64_t RunLevel(int level, const std::vector<Replay>& replays,
                 Connection& conn, std::vector<double>* round_trip_us) {
  int64_t wrong = 0;
  std::vector<double> got;
  for (const Replay& r : replays) {
    got.clear();
    switch (level) {
      case 1:
        for (const auto& plan : r.plans) got.push_back(plan->Execute());
        break;
      case 2:
        for (size_t i = 0; i < r.twigs.size(); ++i) {
          Keep(r.twigs[i].Validate());
          got.push_back(r.plans[i]->Execute());
        }
        break;
      case 3:
        for (size_t i = 0; i < r.twigs.size(); ++i) {
          Keep(r.twigs[i].Validate());
          Keep(xs::service::CanonicalTwigKey(r.twigs[i]));
          got.push_back(r.plans[i]->Execute());
        }
        break;
      case 4:
        for (const auto& twig : r.twigs) {
          auto plan = r.service->Prepare(twig);
          if (plan.ok()) got.push_back(plan.value()->Execute());
        }
        break;
      case 5:
        for (const auto& twig : r.twigs) {
          auto stats = r.service->Estimate(twig);
          if (stats.ok()) got.push_back(stats.value().estimate);
        }
        break;
      case 6:
        for (const auto& result : r.service->EstimateBatch(r.twigs)) {
          if (result.ok()) got.push_back(result.value().estimate);
        }
        break;
      case 7:
        got = CodecRoundTrip(r);
        break;
      case 8: {
        const Clock::time_point start = Clock::now();
        Outcome o;
        if (r.texts.size() == 1) {
          got.resize(1);
          o = conn.Estimate(r.corpus->spec.id, r.texts[0], &got[0]);
        } else {
          o = conn.Batch(r.corpus->spec.id, r.texts, &got);
        }
        round_trip_us->push_back(
            std::chrono::duration<double, std::micro>(Clock::now() - start)
                .count());
        if (o != Outcome::kOk) got.clear();
        break;
      }
    }
    bool right = got.size() == r.expected.size();
    for (size_t i = 0; right && i < got.size(); ++i) {
      right = SameBits(got[i], r.expected[i]);
    }
    if (!right) ++wrong;
  }
  return wrong;
}

// Interpolated quantile of a registry histogram delta. The daemon's
// handler buckets grow x4, so the bucket bound alone is too coarse;
// interpolate geometrically inside the bucket (linearly in the first).
double HistogramDeltaQuantile(const xs::obs::Histogram::Snapshot& a,
                              const xs::obs::Histogram::Snapshot& b,
                              double q) {
  const uint64_t count = b.count - a.count;
  if (count == 0) return 0.0;
  const double target = q * static_cast<double>(count);
  double seen = 0.0;
  for (size_t i = 0; i < b.counts.size(); ++i) {
    const double in_bucket = static_cast<double>(b.counts[i] - a.counts[i]);
    if (in_bucket > 0.0 && seen + in_bucket >= target) {
      const double lo = i == 0 ? 0.0 : b.bounds[i - 1];
      const double hi = i < b.bounds.size() ? b.bounds[i] : lo * 4.0;
      const double frac = (target - seen) / in_bucket;
      return lo > 0.0 ? lo * std::pow(hi / lo, frac) : hi * frac;
    }
    seen += in_bucket;
  }
  return b.bounds.back();
}

// How far the ledger's account of serve-hot's median request may fall
// from the measured median, as a share of it.
constexpr double kAccountingTolerance = 0.20;

// Median time from a one-byte pipe write to the return of a poll(2) that
// another thread blocks in: how a worker's response wakes the daemon's
// event loop (net::Server::PostCompletion).
xs::util::Result<double> LoopWakeUs(int samples) {
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) {
    return xs::util::Status::Internal("pipe2 failed");
  }
  std::atomic<int64_t> written_ns{0};
  std::vector<double> wake_us;
  wake_us.reserve(samples);
  std::thread loop([&] {
    for (int i = 0; i < samples; ++i) {
      pollfd p{fds[0], POLLIN, 0};
      if (::poll(&p, 1, 30000) != 1) break;
      const int64_t now = Clock::now().time_since_epoch().count();
      char byte;
      if (::read(fds[0], &byte, 1) != 1) break;
      wake_us.push_back(
          static_cast<double>(now - written_ns.load(std::memory_order_acquire)) /
          1e3);
    }
  });
  for (int i = 0; i < samples; ++i) {
    // Let the reader block in poll again before the next write.
    std::this_thread::sleep_for(std::chrono::microseconds(50));
    written_ns.store(Clock::now().time_since_epoch().count(),
                     std::memory_order_release);
    const char byte = 'w';
    if (::write(fds[1], &byte, 1) != 1) break;
  }
  ::close(fds[1]);  // a reader still waiting sees POLLHUP and leaves
  loop.join();
  ::close(fds[0]);
  if (wake_us.size() != static_cast<size_t>(samples)) {
    return xs::util::Status::Internal("the waiting thread missed a wake");
  }
  return Median(wake_us);
}

// Median round trip of `n` XSKB pings on one idle connection.
xs::util::Result<double> PingP50Us(uint16_t port, int n) {
  Connection conn(port, /*binary=*/true);
  if (!conn.ok()) return xs::util::Status::Internal("cannot connect");
  std::vector<double> us;
  for (int i = 0; i < n; ++i) {
    const Clock::time_point start = Clock::now();
    if (conn.Ping() != Outcome::kOk) {
      return xs::util::Status::Internal("a ping went unanswered");
    }
    us.push_back(
        std::chrono::duration<double, std::micro>(Clock::now() - start)
            .count());
  }
  return Median(us);
}

// Counts the planner's cardinality calls.
class CountingCards final : public xs::plan::CardinalityProvider {
 public:
  explicit CountingCards(const xs::plan::CardinalityProvider& inner)
      : inner_(inner) {}
  xs::util::Result<double> Cardinality(
      const xs::query::TwigQuery& twig) const override {
    calls_.fetch_add(1, std::memory_order_relaxed);
    return inner_.Cardinality(twig);
  }
  std::string_view name() const override { return "counting"; }
  uint64_t calls() const { return calls_.load(); }

 private:
  const xs::plan::CardinalityProvider& inner_;
  mutable std::atomic<uint64_t> calls_{0};
};

void MeasurePlanExec(const Corpus& c, int sample, int rounds,
                     RunReport* report) {
  Span span("layer.plan_exec");
  xs::service::ServiceOptions options;
  options.num_threads = 2;
  auto session = xs::api::Session::Open(c.frozen, options);
  if (!session.ok()) {
    report->Fail("plan layer: " + session.status().ToString());
    return;
  }
  const xs::api::Session& s = session.value();
  const xs::exec::StreamIndex index(c.doc);
  const xs::exec::StructuralJoinExecutor binary(index);
  const xs::exec::HolisticTwigJoin holistic(index);
  const xs::query::ExactEvaluator exact(c.doc);
  const xs::plan::ServiceCardinalities est_cards(s.service());
  const xs::plan::ExactCardinalities exact_cards(exact);
  xs::plan::PlannerOptions binary_only;
  binary_only.consider_holistic = false;

  struct Planned {
    const PoolQuery* q;
    xs::plan::TwigPlan routed, est_binary, exact_binary;
  };
  std::vector<Planned> planned;
  const CountingCards counting(est_cards);
  int holistic_chosen = 0;
  const int n = std::min<int>(sample, static_cast<int>(c.pool.queries.size()));
  for (int i = 0; i < n; ++i) {
    const PoolQuery& q = c.pool.queries[i];
    auto routed = xs::plan::PlanTwig(q.twig, counting);
    auto est_binary = xs::plan::PlanTwig(q.twig, est_cards, binary_only);
    auto exact_binary = xs::plan::PlanTwig(q.twig, exact_cards, binary_only);
    if (!routed.ok() || !est_binary.ok() || !exact_binary.ok()) {
      report->Fail("planning failed for " + q.text);
      continue;
    }
    // A plan that trips the executor's row cap under any strategy is left
    // out of every total (a resource guard, not an answer).
    bool capped = false;
    for (const auto* p : {&routed.value(), &est_binary.value(),
                          &exact_binary.value()}) {
      auto r = binary.ExecuteBinary(q.twig, p->order);
      capped = capped || (!r.ok() && r.status().code() ==
                                         xs::util::StatusCode::kOutOfRange);
    }
    if (capped) continue;
    if (routed.value().use_holistic) ++holistic_chosen;
    planned.push_back({&q, std::move(routed).value(),
                       std::move(est_binary).value(),
                       std::move(exact_binary).value()});
  }
  if (planned.empty()) {
    report->Fail("plan layer: no plannable queries");
    return;
  }
  const double per_query = 1.0 / static_cast<double>(planned.size());
  report->Add("plan.card_calls",
              static_cast<double>(counting.calls()) / n, "count");
  report->notes.push_back(
      "plan: holistic chosen for " + std::to_string(holistic_chosen) +
      " of " + std::to_string(planned.size()) + " queries");
  const double plan_s = BestOf(rounds, [&] {
    for (const Planned& p : planned) Keep(s.Plan(p.q->twig));
  });
  report->Add("plan.plan_us", plan_s * per_query * 1e6, "us");

  // Execution only (plans made above): routed as planned, all-binary with
  // the estimate-planned order, all-holistic.
  int64_t wrong = 0;
  uint64_t est_rows = 0, exact_rows = 0;
  const auto check = [&](const xs::util::Result<xs::exec::ExecStats>& r,
                         const PoolQuery& q, uint64_t* rows) {
    if (!r.ok() || r.value().matches != q.true_count) {
      ++wrong;
    } else if (rows != nullptr) {
      *rows += r.value().logical_rows;
    }
  };
  const double routed_s = BestOf(rounds, [&] {
    for (const Planned& p : planned) {
      check(p.routed.use_holistic
                ? holistic.Execute(p.q->twig)
                : binary.ExecuteBinary(p.q->twig, p.routed.order),
            *p.q, nullptr);
    }
  });
  const double binary_s = BestOf(rounds, [&] {
    est_rows = 0;
    for (const Planned& p : planned) {
      check(binary.ExecuteBinary(p.q->twig, p.est_binary.order), *p.q,
            &est_rows);
    }
  });
  const double holistic_s = BestOf(rounds, [&] {
    for (const Planned& p : planned) {
      check(holistic.Execute(p.q->twig), *p.q, nullptr);
    }
  });
  for (const Planned& p : planned) {
    check(binary.ExecuteBinary(p.q->twig, p.exact_binary.order), *p.q,
          &exact_rows);
  }
  if (wrong != 0) {
    report->Fail(std::to_string(wrong) +
                 " executed plans disagree with the exact count");
  }
  report->Add("exec.routed_us", routed_s * per_query * 1e6, "us");
  report->Add("exec.binary_us", binary_s * per_query * 1e6, "us");
  report->Add("exec.holistic_us", holistic_s * per_query * 1e6, "us");
  report->Add("exec.plan_rows_ratio",
              static_cast<double>(est_rows) /
                  std::max<double>(1.0, static_cast<double>(exact_rows)),
              "ratio");
}

}  // namespace

void MeasureLayers(LayerInputs& in, RunReport* report) {
  Span layers_span("layers");
  const Shape& shape = *in.shape;
  std::vector<Corpus>& corpora = *in.corpora;
  const int rounds = in.smoke ? 2 : 7;
  const int replay_n = in.smoke ? 16 : (shape.batch == 1 ? 256 : 32);
  const int sample = in.smoke ? 16 : 128;

  std::vector<std::unique_ptr<xs::service::EstimationService>> services;
  for (const Corpus& c : corpora) {
    xs::service::ServiceOptions options;
    options.num_threads = 2;  // the daemon's batch_threads
    auto created = xs::service::EstimationService::Create(c.frozen, options);
    if (!created.ok()) {
      report->Fail("ledger service: " + created.status().ToString());
      return;
    }
    services.push_back(std::move(created).value());
  }

  std::unique_ptr<ServingDaemon> own_daemon;
  ServingDaemon* server = in.daemon;
  if (server == nullptr) {
    auto started = ServingDaemon::Start(corpora);
    if (!started.ok()) {
      report->Fail("ledger daemon: " + started.status().ToString());
      return;
    }
    own_daemon = std::move(started).value();
    server = own_daemon.get();
  }
  Connection conn(server->port(), /*binary=*/shape.batch == 1);
  if (!conn.ok()) {
    report->Fail("ledger: cannot connect to the daemon");
    return;
  }

  // The first requests of the seed: client 0's stream, as the load sent.
  RequestStream stream(shape, corpora, SubSeed(in.seed, 200));
  std::vector<Replay> replays(replay_n);
  for (Replay& r : replays) {
    const Request req = stream.Next();
    r.corpus = &corpora[req.corpus];
    r.service = services[req.corpus].get();
    for (int q : req.queries) {
      const PoolQuery& pq = r.corpus->pool.queries[q];
      r.twigs.push_back(pq.twig);
      r.texts.push_back(pq.text);
      r.expected.push_back(r.corpus->expected[q]);
      auto plan = r.service->Prepare(pq.twig);
      if (!plan.ok()) {
        report->Fail("ledger prepare: " + plan.status().ToString());
        return;
      }
      r.plans.push_back(std::move(plan).value());
    }
  }

  std::array<double, kLevels + 1> best;
  best.fill(std::numeric_limits<double>::infinity());
  int64_t wrong = 0;
  std::vector<double> round_trip_us;  // level 8's requests
  for (int round = 0; round < rounds; ++round) {
    for (int level = 1; level <= kLevels; ++level) {
      Span span(kLevelSpan[level]);
      // An untimed pass first: the level below left other data in cache.
      wrong += RunLevel(level, replays, conn, &round_trip_us);
      const double start = NowSeconds();
      wrong += RunLevel(level, replays, conn, &round_trip_us);
      best[level] = std::min(best[level], NowSeconds() - start);
    }
  }
  if (wrong != 0) {
    report->Fail(std::to_string(wrong) +
                 " ledger answers differ from the expected estimates");
  }
  const double per_request_ns = 1e9 / replay_n;
  for (int level = 1; level <= kLevels; ++level) {
    report->Add(kLevelMetric[level],
                (best[level] - (level > 1 ? best[level - 1] : 0.0)) *
                    per_request_ns,
                "ns");
  }

  // --- isolated calls, layer by layer ----------------------------------
  const Corpus& c0 = corpora[0];
  xs::service::EstimationService& s0 = *services[0];
  std::vector<std::string> texts;
  std::vector<const PoolQuery*> sample_queries;
  for (int i = 0;
       i < std::min<int>(sample, static_cast<int>(c0.pool.queries.size()));
       ++i) {
    sample_queries.push_back(&c0.pool.queries[i]);
    texts.push_back(c0.pool.queries[i].text);
  }
  const double per_text = 1.0 / static_cast<double>(texts.size());

  {
    Span span("layer.net");
    const double wire_s = BestOf(rounds, [&] {
      for (const std::string& text : texts) {
        std::string frame, resp;
        xs::net::WireEstimateRequest req;
        req.doc = c0.spec.id;
        req.query = text;
        xs::net::AppendWireFrame(&frame, xs::net::FrameType::kEstimate,
                                 xs::net::EncodeEstimateRequest(req));
        auto parsed = xs::net::ParseWireFrame(frame, 1 << 20);
        Keep(xs::net::DecodeEstimateRequest(parsed.frame.payload));
        xs::net::AppendWireFrame(&resp, xs::net::FrameType::kEstimateOk,
                                 xs::net::EncodeEstimateOk(1.5));
        auto back = xs::net::ParseWireFrame(resp, 1 << 20);
        Keep(xs::net::DecodeEstimateOk(back.frame.payload));
      }
    });
    report->Add("net.wire_codec_ns", wire_s * per_text * 1e9, "ns");
  }

  // 32-query batches drawn from every corpus's pool.
  xs::util::Rng rng(SubSeed(in.seed, 400));
  struct Batch {
    size_t corpus;
    std::vector<xs::query::TwigQuery> twigs;
    std::vector<std::string> texts;
    std::string http;
    std::string body;
  };
  std::vector<Batch> batches(in.smoke ? 2 : 8);
  for (size_t b = 0; b < batches.size(); ++b) {
    Batch& batch = batches[b];
    batch.corpus = b % corpora.size();
    const Pool& pool = corpora[batch.corpus].pool;
    for (int i = 0; i < 32; ++i) {
      const PoolQuery& q = pool.queries[rng.Uniform(pool.queries.size())];
      batch.twigs.push_back(q.twig);
      batch.texts.push_back(q.text);
    }
    batch.body = BatchRequestBody(corpora[batch.corpus].spec.id, batch.texts);
    batch.http = BatchHttpRequest(batch.body);
  }
  const double per_batch = 1.0 / static_cast<double>(batches.size());
  {
    Span span("layer.http");
    const double http_s = BestOf(rounds, [&] {
      for (const Batch& b : batches) {
        Keep(xs::net::ParseHttpRequest(b.http, xs::net::HttpLimits{}));
      }
    });
    const double json_s = BestOf(rounds, [&] {
      for (const Batch& b : batches) Keep(xs::net::ParseJson(b.body));
    });
    std::vector<std::vector<xs::util::Result<xs::core::EstimateStats>>>
        results;
    for (const Batch& b : batches) {
      results.push_back(services[b.corpus]->EstimateBatch(b.twigs));
    }
    const double render_s = BestOf(rounds, [&] {
      for (const auto& r : results) {
        Keep(xs::net::SerializeHttpResponse(200, "application/json",
                                            RenderBatchBody(r), true));
      }
    });
    report->Add("net.http_parse_us", http_s * per_batch * 1e6, "us");
    report->Add("net.json_parse_us", json_s * per_batch * 1e6, "us");
    report->Add("net.json_render_us", render_s * per_batch * 1e6, "us");
  }

  {
    Span span("layer.service");
    const double batch_s = BestOf(rounds, [&] {
      for (const Batch& b : batches) {
        Keep(services[b.corpus]->EstimateBatch(b.twigs));
      }
    });
    const double serial_s = BestOf(rounds, [&] {
      for (const Batch& b : batches) {
        for (const auto& twig : b.twigs) {
          auto plan = services[b.corpus]->Prepare(twig);
          if (plan.ok()) Keep(plan.value()->Execute());
        }
      }
    });
    report->Add("service.batch32_us", batch_s * per_batch * 1e6, "us");
    report->Add("service.batch_fanout_us",
                (batch_s - serial_s) * per_batch * 1e6, "us");

    xs::service::ServiceOptions options;
    options.num_threads = 2;
    double miss_s = std::numeric_limits<double>::infinity();
    for (int r = 0; r < std::min(rounds, 3); ++r) {
      auto fresh = xs::service::EstimationService::Create(c0.frozen, options);
      if (!fresh.ok()) break;
      const double start = NowSeconds();
      for (const PoolQuery* q : sample_queries) {
        Keep(fresh.value()->Prepare(q->twig));
      }
      miss_s = std::min(miss_s, NowSeconds() - start);
    }
    report->Add("service.prepare_miss_us", miss_s * per_text * 1e6, "us");
    const double create_s = MedianOf(in.smoke ? 3 : 9, [&] {
      return xs::service::EstimationService::Create(c0.frozen, options);
    });
    report->Add("service.create_us", create_s * 1e6, "us");
    auto catalog = xs::service::SketchCatalog::Create();
    if (catalog.ok()) {
      const double put_s = MedianOf(in.smoke ? 3 : 5, [&] {
        return catalog.value()->Put(c0.spec.id, c0.sketch_path);
      });
      report->Add("service.catalog_put_ms", put_s * 1e3, "ms");
    }
  }

  {
    Span span("layer.query_core");
    const double parse_s = BestOf(rounds, [&] {
      for (const std::string& text : texts) {
        Keep(xs::query::ParseForClause(text, s0.tags()));
      }
    });
    report->Add("query.parse_ns", parse_s * per_text * 1e9, "ns");
    const double compile_s = BestOf(rounds, [&] {
      for (const PoolQuery* q : sample_queries) {
        Keep(s0.compiler().Compile(q->twig));
      }
    });
    report->Add("core.compile_us", compile_s * per_text * 1e6, "us");
    const double load_s = MedianOf(in.smoke ? 3 : 9, [&] {
      return xs::core::LoadFrozenFile(c0.sketch_path);
    });
    report->Add("core.load_frozen_us", load_s * 1e6, "us");
    double iterations = 0.0, bytes = 0.0;
    std::vector<double> scoring;
    for (const Corpus& c : corpora) {
      iterations += c.build.iterations;
      bytes += static_cast<double>(c.sketch_image.size());
      scoring.push_back(c.build.scoring_p50_ms);
    }
    report->Add("core.xbuild_iterations", iterations, "count");
    report->Add("core.xbuild_scoring_p50_ms", Median(scoring), "ms");
    report->Add("core.sketch_bytes", bytes, "bytes");
  }

  // The daemon's own round trips cross threads twice more than a ping:
  // the loop hands the request to a worker, and the worker's response
  // wakes the loop. These two measure each handoff on its own.
  double handoff_us = 0.0, loop_wake_us = 0.0;
  {
    Span span("layer.util");
    xs::util::ThreadPool pool(2);
    std::vector<double> samples;
    std::atomic<int64_t> started{-1};
    for (int i = 0; i < (in.smoke ? 200 : 2000); ++i) {
      const Clock::time_point submit = Clock::now();
      pool.Submit([&started, submit] {
        started.store(std::chrono::duration_cast<std::chrono::nanoseconds>(
                          Clock::now() - submit)
                          .count(),
                      std::memory_order_release);
      });
      int64_t ns;
      while ((ns = started.load(std::memory_order_acquire)) < 0) {
        std::this_thread::yield();
      }
      started.store(-1, std::memory_order_relaxed);
      samples.push_back(static_cast<double>(ns) / 1e3);
    }
    handoff_us = Median(samples);
    report->Add("util.pool_handoff_us", handoff_us, "us");
  }
  {
    Span span("layer.loop_wake");
    auto wake = LoopWakeUs(in.smoke ? 200 : 2000);
    if (!wake.ok()) {
      report->Fail("loop wake: " + wake.status().ToString());
    } else {
      loop_wake_us = wake.value();
    }
    report->Add("net.loop_wake_us", loop_wake_us, "us");
  }

  MeasurePlanExec(c0, sample, std::min(rounds, 3), report);

  // --- client steps, from the run's spans ------------------------------
  {
    const std::vector<SpanRecord> spans = CollectSpans();
    const std::vector<uint64_t> self = SelfTimesNs(spans);
    std::map<std::string, std::vector<double>> by_name;
    for (size_t i = 0; i < spans.size(); ++i) {
      by_name[spans[i].name].push_back(static_cast<double>(self[i]));
    }
    const auto step = [&](const char* span, const char* metric, double div,
                          const char* unit) {
      report->Add(metric, Median(by_name[span]) / div, unit);
    };
    step("client.encode", "client.encode_ns", 1.0, "ns");
    step("client.send", "client.send_ns", 1.0, "ns");
    step("client.wait", "client.wait_us", 1e3, "us");
    step("client.decode", "client.decode_ns", 1.0, "ns");
  }

  // --- the daemon, from its registry deltas ----------------------------
  const RegistryMark end = RegistryMark::Take();
  const auto& h0 = in.load_start.handler_us;
  const auto& h1 = end.handler_us;
  report->Add("daemon.requests",
              static_cast<double>(end.daemon_requests -
                                  in.load_start.daemon_requests),
              "count");
  report->Add("daemon.handler_us_p50", HistogramDeltaQuantile(h0, h1, 0.5),
              "us");
  report->Add("daemon.handler_us_p99", HistogramDeltaQuantile(h0, h1, 0.99),
              "us");

  // Time outside the handler, measured apart from the requests it is
  // checked against: a ping's round trip (client codec, both socket hops
  // and the event loop, which answers pings itself) plus the two handoffs
  // a worker adds. Served loads sent their pings among their requests;
  // otherwise the ledger pings the daemon it alone used.
  double ping_us = in.ping_p50_us;
  if (in.daemon == nullptr) {
    Span span("layer.ping");
    auto ping = PingP50Us(server->port(), in.smoke ? 200 : 2000);
    if (!ping.ok()) {
      report->Fail("ping: " + ping.status().ToString());
    } else {
      ping_us = ping.value();
    }
  }
  const double outside = ping_us + handoff_us + loop_wake_us;
  // The requests to account for: the load's, in its untraced slices, or,
  // when the workload serves nothing, the ledger's own round trips.
  const double client_p50 = in.daemon != nullptr ? in.client_p50_us
                                                 : Median(round_trip_us);
  report->Add("daemon.ping_us_p50", ping_us, "us");
  report->Add("daemon.client_us_p50", client_p50, "us");
  report->Add("daemon.outside_handler_us_p50", outside, "us");

  // Accounting: the daemon's handler runs parse + Prepare + Execute
  // (XSKB) or JSON parse + parse + EstimateBatch + render (/batch). The
  // ledger's in-process cost of that path plus the time outside the
  // handler should make up the client's median latency.
  double in_handler_us = 0.0;
  for (const Metric& m : report->metrics) {
    const auto add = [&](const char* name, double scale) {
      if (m.name == name) in_handler_us += m.value * scale;
    };
    if (shape.batch == 1) {
      add("query.parse_ns", 1e-3);
      add("ledger.execute_ns", 1e-3);
      add("ledger.validate_ns", 1e-3);
      add("ledger.twig_key_ns", 1e-3);
      add("ledger.prepare_ns", 1e-3);
    } else {
      add("net.json_parse_us", 1.0);
      add("query.parse_ns", 1e-3 * shape.batch);
      add("ledger.execute_ns", 1e-3);
      add("ledger.validate_ns", 1e-3);
      add("ledger.twig_key_ns", 1e-3);
      add("ledger.prepare_ns", 1e-3);
      add("ledger.estimate_ns", 1e-3);
      add("ledger.batch_ns", 1e-3);
      add("net.json_render_us", 1.0);
    }
  }
  const double share =
      client_p50 > 0.0 ? (in_handler_us + outside) / client_p50 : 0.0;
  char note[240];
  std::snprintf(note, sizeof(note),
                "ledger accounting: in-handler path %.2f us + outside handler "
                "%.2f us (ping %.2f + handoff %.2f + loop wake %.2f) = %.2f us "
                "against client p50 %.2f us (%.0f%%)",
                in_handler_us, outside, ping_us, handoff_us, loop_wake_us,
                in_handler_us + outside, client_p50, 100.0 * share);
  report->notes.push_back(note);
  // serve-hot's requests are all plan-cache hits, so the ledger's warm
  // replay is their path. serve-churn's handler compiles most of its
  // queries, which the warm replay does not, so there it is a note.
  if (in.daemon != nullptr && shape.batch == 1 &&
      std::abs(share - 1.0) > kAccountingTolerance) {
    report->Fail("the ledger accounts for " +
                 std::to_string(static_cast<int>(100.0 * share)) +
                 "% of the client's median latency, outside 100% +- " +
                 std::to_string(static_cast<int>(100 * kAccountingTolerance)) +
                 "%");
  }
}

}  // namespace xsbench
