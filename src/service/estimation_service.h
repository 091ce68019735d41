// EstimationService: the concurrent batch estimation engine.
//
// The paper's evaluation (§6, Table 2) runs thousand-query workloads
// against one synopsis; this is the serving-shaped version of that setting:
// the service holds one immutable FrozenSynopsis and fans batches of twig
// queries out across a fixed thread pool, which its first EstimateBatch
// spawns: a service that only prepares and executes holds no threads, so
// creating one costs a compiler and a few registry lookups. Every query
// runs as a compiled program (core/compile.h) lowered through a shared
// TwigCompiler. Per-query work is independent — the only cross-thread
// state is the compiler's sharded descendant-path cache and the plan cache
// below — so results are bit-identical to running
// Estimator::EstimateWithStats, the reference interpreter, sequentially in
// batch order (estimates AND EstimateStats counters; pinned by the
// differential harness).
//
// Every query is validated first: malformed twigs come back as per-query
// Status::InvalidArgument entries, never aborts, and never poison the rest
// of the batch.
//
// Prepared execution: Prepare() returns a shareable compiled program from
// an internal LRU plan cache keyed by the twig's canonical byte encoding,
// so repeated query shapes skip lowering entirely. Estimate() and
// EstimateBatch() run through the same cache.
//
// Audit mode (opt-in via ServiceOptions::audit_fraction, services created
// from a TwigXSketch only): a deterministic sample of each batch is
// additionally evaluated exactly with query::ExactEvaluator against the
// sketch's document, and the paper's relative-error metric
// |r - c| / max(s, c) (§6.1) is aggregated into BatchStats and fed into
// the process-wide xsketch_service_audit_rel_error histogram — live
// accuracy telemetry against ground truth.

#ifndef XSKETCH_SERVICE_ESTIMATION_SERVICE_H_
#define XSKETCH_SERVICE_ESTIMATION_SERVICE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/compile.h"
#include "core/estimator.h"
#include "core/frozen.h"
#include "core/twig_xsketch.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "query/evaluator.h"
#include "query/twig.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace xsketch::service {

// Canonical byte encoding of a twig: a node-count prefix, then one
// length-prefixed record per node in arena order. Node order, parent
// links, and child creation order fully determine the evaluation, so
// equal keys imply interchangeable compiled plans. This is the plan-cache
// key and the flight recorder's query identity (FlightRecord::twig_key).
std::string CanonicalTwigKey(const query::TwigQuery& twig);

struct ServiceOptions {
  // Worker threads estimating batches in parallel, spawned by the first
  // EstimateBatch. 0 picks the hardware concurrency; otherwise must be
  // >= 1.
  int num_threads = 0;
  // Queries per scheduled task. 0 picks a chunk size that gives each
  // worker ~4 chunks (bounds scheduling overhead while still smoothing
  // skewed per-query latencies); otherwise must be >= 1.
  int chunk_size = 0;
  // Forwarded to the shared TwigCompiler.
  core::EstimatorOptions estimator;

  // Compiled programs kept in the LRU plan cache; 0 disables caching
  // (every batch query recompiles); otherwise must be >= 1.
  int plan_cache_capacity = 256;

  // Accuracy audit: fraction of each batch's queries (in [0, 1]) whose
  // true selectivity is computed exactly and compared against the
  // estimate. 0 disables auditing (and skips building the evaluator).
  // Exact evaluation walks the document, so keep the fraction small on
  // large documents.
  double audit_fraction = 0.0;
  // Seed for the deterministic per-query sampling mask: the same batch
  // audited twice samples the same queries.
  uint64_t audit_seed = 0;
  // The sanity bound s in the paper's relative-error metric
  // |r - c| / max(s, c); must be > 0 (guards division by zero for
  // empty-result queries).
  double audit_sanity_bound = 1.0;

  // Structural tracing (obs/trace.h): fraction of requests — batches and
  // single-query estimates — whose full span tree is recorded, in [0, 1].
  // 0 (the default) keeps the serving path on the tracer's no-op fast
  // path. Sampling is deterministic in (trace_seed, request ordinal), the
  // same discipline as the audit mask, so a replayed workload traces the
  // same requests. Tracing never touches the estimate computation:
  // results stay bit-identical at any rate (pinned by the differential
  // harness's bit-identity-traced invariant).
  double trace_sample_rate = 0.0;
  uint64_t trace_seed = 0;
  // Always-on flight recorder (obs/flight.h): every completed query
  // appends a FlightRecord to FlightRecorder::Default(). Disable only to
  // shave the last bookkeeping from benchmark baselines.
  bool flight_recorder = true;
  // Sketch generation stamped into flight records — pass the serving
  // SketchHandle's generation() when catalog-backed; 0 otherwise.
  uint64_t sketch_generation = 0;

  util::Status Validate() const;
};

// Aggregate observability for one EstimateBatch call.
struct BatchStats {
  size_t queries = 0;
  size_t failed = 0;              // per-query InvalidArgument results
  // Deadline accounting (EstimateBatch with a deadline): queries whose
  // chunk was abandoned because the deadline had passed before the chunk
  // started. Abandoned queries get DeadlineExceeded results and are not
  // counted in `failed`; everything finished before the cutoff is
  // reported normally — the partial-stats contract.
  size_t abandoned = 0;
  bool deadline_exceeded = false;
  double wall_ms = 0.0;           // end-to-end batch wall time
  double p50_latency_us = 0.0;    // per-query estimation latency
  double p95_latency_us = 0.0;
  // Descendant-path cache activity attributable to this batch: deltas of
  // the compiler's lifetime counters snapshotted before and after the
  // batch, not lifetime totals. Only plan-cache misses lower queries, so
  // only they expand '//' steps. Approximate if batches overlap.
  uint64_t cache_lookups = 0;
  uint64_t cache_hits = 0;
  // cache_hits / cache_lookups (0 when the batch never expanded a '//'
  // step).
  double cache_hit_rate = 0.0;
  // Plan-cache activity attributable to this batch (deltas, like the
  // path-cache counters above).
  uint64_t plan_cache_lookups = 0;
  uint64_t plan_cache_hits = 0;
  // Accuracy audit (populated only when ServiceOptions::audit_fraction
  // > 0): sampled queries evaluated exactly, and the paper's relative
  // error |r - c| / max(s, c) over that sample.
  size_t audited = 0;
  double audit_mean_rel_error = 0.0;
  double audit_max_rel_error = 0.0;
  // Sums of the per-query EstimateStats counters (successful queries).
  int64_t covered_terms = 0;      // E_i
  int64_t uniformity_terms = 0;   // U_i
  int64_t conditioned_nodes = 0;  // D_i
  int64_t value_fractions = 0;
  int64_t existential_terms = 0;
  int64_t descendant_chains = 0;
};

class EstimationService {
 public:
  // Validates `options` and freezes `sketch`; the sketch itself is not
  // kept. The sketch's document must outlive the service, which audits
  // against it. The returned service is immutable and safe to share
  // across threads.
  static util::Result<std::unique_ptr<EstimationService>> Create(
      const core::TwigXSketch& sketch, const ServiceOptions& options = {});

  // Service over an already-frozen synopsis — typically one mmap-loaded
  // from an XSK3 file (core/frozen_io.h). It has no source document, so
  // it rejects audit_fraction > 0; every estimate is bit-identical to a
  // service created from the sketch the image was frozen from.
  static util::Result<std::unique_ptr<EstimationService>> Create(
      std::shared_ptr<const core::FrozenSynopsis> frozen,
      const ServiceOptions& options = {});

  ~EstimationService();

  EstimationService(const EstimationService&) = delete;
  EstimationService& operator=(const EstimationService&) = delete;

  // Absolute per-request deadline, on the clock EstimateBatch checks.
  using Deadline = std::chrono::steady_clock::time_point;

  // Estimates every query in `queries`, in parallel, preserving order:
  // result i corresponds to queries[i]. Per-query failures (malformed
  // twigs) surface as failed Results. When `stats` is non-null it
  // receives the batch's aggregate observability.
  //
  // Deadline semantics (engaged `deadline`): the deadline is checked at
  // chunk boundaries — a chunk whose start time is already past it is
  // abandoned wholesale, its queries get DeadlineExceeded results, and
  // BatchStats reports the partial picture (completed-query stats plus
  // `abandoned` / `deadline_exceeded`). Queries already executing when
  // the deadline passes run to completion: estimation work is short and
  // chunk-granular cancellation keeps results deterministic per chunk.
  std::vector<util::Result<core::EstimateStats>> EstimateBatch(
      std::span<const query::TwigQuery> queries,
      BatchStats* stats = nullptr,
      std::optional<Deadline> deadline = std::nullopt);

  // Single-query convenience: Prepare (through the plan cache) plus
  // ExecuteWithStats, bit-identical to Estimator::EstimateChecked on the
  // same sketch. Malformed twigs return InvalidArgument.
  util::Result<core::EstimateStats> Estimate(
      const query::TwigQuery& twig) const;

  // Lowers `twig` to a compiled program through the LRU plan cache:
  // repeated shapes return the cached program, new shapes compile and may
  // evict the least-recently-used entry. Malformed twigs return
  // InvalidArgument. The returned program is immutable, shareable across
  // threads, and valid while this service is alive (it references the
  // service's frozen synopsis). Thread-safe.
  util::Result<std::shared_ptr<const core::CompiledTwig>> Prepare(
      const query::TwigQuery& twig) const;

  struct PlanCacheCounters {
    uint64_t lookups = 0;
    uint64_t hits = 0;
    uint64_t evictions = 0;
    size_t size = 0;  // programs currently cached
  };
  // Lifetime plan-cache activity for this service.
  PlanCacheCounters plan_cache_counters() const;

  const core::TwigCompiler& compiler() const { return *compiler_; }
  const core::FrozenSynopsis& frozen() const { return *frozen_; }
  // Tag names usable for parsing path queries against this service (the
  // frozen synopsis carries its own interner).
  const util::StringInterner& tags() const { return frozen_->tags(); }
  // The batch pool's configured size, whether or not it is spawned yet.
  int num_threads() const { return num_threads_; }

 private:
  // `doc` is the audit's ground truth; null for services over a frozen
  // image.
  EstimationService(std::shared_ptr<const core::FrozenSynopsis> frozen,
                    const xml::Document* doc, const ServiceOptions& options);

  // True iff query `index` of a batch falls in the audit sample
  // (deterministic in (audit_seed, index)).
  bool AuditSelected(size_t index) const;

  // True iff request `ordinal` falls in the trace sample (deterministic
  // in (trace_seed, ordinal); always false at rate 0, cost: one compare).
  bool TraceSelected(uint64_t ordinal) const;
  // Draws the next request ordinal and returns its sampled trace context
  // ({0,0} when not selected). Rate 0 skips the ordinal counter entirely.
  // A caller already inside a sampled trace is adopted unconditionally:
  // the request's spans attach under the caller's span.
  obs::TraceContext SampleTrace() const;

  // Per-query stage attribution collected by the prepared path for the
  // flight recorder: the canonical key (encoded once, reused as the
  // record identity) plus where the prepare time went.
  struct QueryAttribution {
    std::string key;
    double prepare_us = 0.0;  // plan-cache lookup + compile
    double compile_us = 0.0;  // lowering only (cache misses)
    bool plan_cache_hit = false;
  };

  // Prepare with optional attribution (attr may be null: the public
  // Prepare() path, which skips the extra clock reads).
  util::Result<std::shared_ptr<const core::CompiledTwig>> PrepareAttributed(
      const query::TwigQuery& twig, QueryAttribution* attr) const;

  // One query: Prepare + ExecuteWithStats, with optional attribution and
  // kPlanCache/kExecute spans when traced.
  util::Result<core::EstimateStats> EstimateCompiled(
      const query::TwigQuery& twig, QueryAttribution* attr = nullptr,
      double* execute_us = nullptr) const;

  // Appends one completed query to FlightRecorder::Default() (no-op when
  // ServiceOptions::flight_recorder is off).
  void RecordFlight(const query::TwigQuery& twig, uint64_t trace_id,
                    QueryAttribution&& attr, double execute_us,
                    double total_us,
                    const util::Result<core::EstimateStats>& result) const;

  // Process-wide registry handles (see obs/metrics.h). Shared across all
  // services in the process; BatchStats carries the per-batch values.
  struct Metrics {
    obs::Counter* batches;
    obs::Counter* queries;
    obs::Counter* failed;
    obs::Histogram* latency_us;
    obs::Counter* audit_samples;
    obs::Histogram* audit_rel_error;
    obs::Counter* plan_lookups;
    obs::Counter* plan_hits;
    obs::Counter* plan_evictions;
    // Batch queries abandoned at a chunk boundary because the request
    // deadline had already passed.
    obs::Counter* deadline_abandoned;
    // Queries currently executing across all workers (chunk-granular;
    // Gauge::Add/Sub keep concurrent updates lossless).
    obs::Gauge* inflight;
  };

  // LRU plan cache: most-recently-used at the front of the list; the map
  // indexes entries by the twig's canonical byte encoding. Guarded by
  // plan_mu_ (compilation itself happens outside the lock — a racing
  // thread may compile the same shape twice; both programs are identical
  // and first-insert wins).
  struct PlanEntry {
    std::string key;
    std::shared_ptr<const core::CompiledTwig> plan;
  };
  using PlanList = std::list<PlanEntry>;

  ServiceOptions options_;
  // Self-contained: owns or pins its storage.
  std::shared_ptr<const core::FrozenSynopsis> frozen_;
  std::unique_ptr<const core::TwigCompiler> compiler_;
  mutable std::mutex plan_mu_;
  mutable PlanList plan_lru_;
  mutable std::unordered_map<std::string, PlanList::iterator> plan_index_;
  mutable uint64_t plan_lookups_ = 0;   // guarded by plan_mu_
  mutable uint64_t plan_hits_ = 0;
  mutable uint64_t plan_evictions_ = 0;
  // Ground-truth evaluator for audit mode; null when auditing is off.
  // ExactEvaluator::Selectivity is const with call-local memoization, so
  // one instance serves all workers concurrently.
  std::unique_ptr<query::ExactEvaluator> exact_;
  // The batch pool, created once by the first EstimateBatch.
  const int num_threads_;
  std::once_flag pool_once_;
  std::unique_ptr<util::ThreadPool> pool_;
  Metrics metrics_;
  // Request ordinal for the deterministic trace sampling mask; only
  // touched when trace_sample_rate > 0.
  mutable std::atomic<uint64_t> trace_ordinal_{0};
};

}  // namespace xsketch::service

#endif  // XSKETCH_SERVICE_ESTIMATION_SERVICE_H_
