#include "obs/trace.h"

#include <algorithm>
#include <cstdio>

#include "obs/metrics.h"
#include "util/check.h"
#include "util/format.h"

namespace xsketch::obs {

namespace internal {
// Defined here, declared in trace.h (SpanScope's inert path inlines the
// read into callers).
constinit thread_local ThreadContext g_thread_ctx;
}  // namespace internal

namespace {

using internal::g_thread_ctx;

// Per-thread ring handle, cached so the append path skips the registry
// mutex after the first span. The registry co-owns the ring, so spans
// recorded by a thread survive its exit. void* because Ring is private to
// Tracer; only member functions (which have access) cast it.
thread_local void* g_thread_ring = nullptr;

}  // namespace

const char* StageName(Stage stage) {
  switch (stage) {
    case Stage::kQuery: return "query";
    case Stage::kParse: return "parse";
    case Stage::kCompile: return "compile";
    case Stage::kPlanCache: return "plan_cache";
    case Stage::kExecute: return "execute";
    case Stage::kAudit: return "audit";
    case Stage::kBatch: return "batch";
    case Stage::kBatchChunk: return "batch_chunk";
    case Stage::kBuild: return "build";
    case Stage::kBuildIteration: return "build_iteration";
    case Stage::kCatalogLoad: return "catalog_load";
    case Stage::kCatalogMmap: return "catalog_mmap";
    case Stage::kCatalogSwap: return "catalog_swap";
  }
  return "unknown";
}

Tracer& Tracer::Default() {
  static Tracer* tracer = new Tracer();
  return *tracer;
}

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {
  MetricsRegistry& reg = MetricsRegistry::Default();
  metric_spans_ = &reg.GetCounter("xsketch_trace_spans_total",
                                  "spans recorded by the structural tracer");
  metric_dropped_ =
      &reg.GetCounter("xsketch_trace_spans_dropped_total",
                      "spans overwritten in full per-thread rings");
}

uint64_t Tracer::NowNs() const {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

void Tracer::Configure(const Options& options) {
  sample_every_.store(options.sample_every, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(registry_mu_);
  ring_capacity_ = std::max<size_t>(1, options.ring_capacity);
  for (auto& ring : rings_) {
    std::lock_guard<std::mutex> ring_lock(ring->mu);
    ring->slots.assign(ring_capacity_, Span{});
    ring->next = 0;
  }
  dropped_.store(0, std::memory_order_relaxed);
  recorded_.store(0, std::memory_order_relaxed);
}

Tracer::Options Tracer::options() const {
  Options o;
  o.sample_every = sample_every_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(registry_mu_);
  o.ring_capacity = ring_capacity_;
  return o;
}

TraceContext Tracer::StartTrace() {
  const uint64_t every = sample_every_.load(std::memory_order_relaxed);
  if (every == 0) return {};
  if (trace_counter_.fetch_add(1, std::memory_order_relaxed) % every != 0) {
    return {};
  }
  return ForceTrace();
}

TraceContext Tracer::ForceTrace() {
  return {next_trace_.fetch_add(1, std::memory_order_relaxed) + 1, 0};
}

Tracer::Ring& Tracer::ThisThreadRing() {
  if (g_thread_ring != nullptr) return *static_cast<Ring*>(g_thread_ring);
  std::lock_guard<std::mutex> lock(registry_mu_);
  auto ring = std::make_shared<Ring>(ring_capacity_, ++next_tid_);
  rings_.push_back(ring);
  // The registry keeps the ring alive past thread exit; caching the raw
  // pointer is safe because rings_ is append-only (Reset clears contents,
  // never the registration).
  g_thread_ring = ring.get();
  return *ring;
}

void Tracer::Append(const Span& span) {
  Ring& ring = ThisThreadRing();
  std::lock_guard<std::mutex> lock(ring.mu);
  const size_t cap = ring.slots.size();
  Span& slot = ring.slots[ring.next % cap];
  if (ring.next >= cap && slot.span_id != 0) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    metric_dropped_->Increment();
  }
  slot = span;
  slot.tid = ring.tid;
  ++ring.next;
  recorded_.fetch_add(1, std::memory_order_relaxed);
  metric_spans_->Increment();
}

std::vector<Span> Tracer::Snapshot() const {
  std::vector<std::shared_ptr<Ring>> rings;
  {
    std::lock_guard<std::mutex> lock(registry_mu_);
    rings = rings_;
  }
  std::vector<Span> out;
  for (const auto& ring : rings) {
    std::lock_guard<std::mutex> lock(ring->mu);
    for (const Span& s : ring->slots) {
      if (s.span_id != 0) out.push_back(s);
    }
  }
  std::sort(out.begin(), out.end(), [](const Span& a, const Span& b) {
    return a.start_ns != b.start_ns ? a.start_ns < b.start_ns
                                    : a.span_id < b.span_id;
  });
  return out;
}

std::vector<Span> Tracer::Drain() {
  std::vector<Span> out = Snapshot();
  std::vector<std::shared_ptr<Ring>> rings;
  {
    std::lock_guard<std::mutex> lock(registry_mu_);
    rings = rings_;
  }
  for (const auto& ring : rings) {
    std::lock_guard<std::mutex> lock(ring->mu);
    std::fill(ring->slots.begin(), ring->slots.end(), Span{});
    ring->next = 0;
  }
  return out;
}

std::vector<Span> Tracer::SpansForTrace(uint64_t trace_id) const {
  std::vector<Span> all = Snapshot();
  std::vector<Span> out;
  for (const Span& s : all) {
    if (s.trace_id == trace_id) out.push_back(s);
  }
  return out;
}

void Tracer::Reset() {
  (void)Drain();
  recorded_.store(0, std::memory_order_relaxed);
  dropped_.store(0, std::memory_order_relaxed);
}

std::string Tracer::ToChromeJson(const std::vector<Span>& spans) {
  std::string out =
      "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  char buf[256];
  for (const Span& s : spans) {
    if (!first) out.push_back(',');
    first = false;
    out += "{\"name\":\"";
    out += StageName(s.stage);
    out += "\",\"cat\":\"xsketch\",\"ph\":\"X\",\"ts\":";
    out += util::FormatDecimal(static_cast<double>(s.start_ns) / 1000.0,
                               std::chars_format::fixed, 3);
    out += ",\"dur\":";
    out += util::FormatDecimal(static_cast<double>(s.dur_ns) / 1000.0,
                               std::chars_format::fixed, 3);
    std::snprintf(
        buf, sizeof(buf),
        ",\"pid\":1,\"tid\":%u,"
        "\"args\":{\"trace_id\":%llu,\"span_id\":%llu,"
        "\"parent_id\":%llu,\"arg\":%llu}}",
        s.tid, static_cast<unsigned long long>(s.trace_id),
        static_cast<unsigned long long>(s.span_id),
        static_cast<unsigned long long>(s.parent_id),
        static_cast<unsigned long long>(s.arg));
    out += buf;
  }
  out += "]}";
  return out;
}

SpanScope::SpanScope(const TraceContext& ctx, Stage stage, uint64_t arg)
    : trace_id_(0), span_id_(0), restore_(true) {
  // An explicit context replaces the thread-current one for the scope's
  // duration — including the unsampled case, which must also suppress
  // nested thread-current scopes (a worker running an unsampled query
  // must not attach spans to a stale context).
  prev_trace_ = g_thread_ctx.trace_id;
  prev_span_ = g_thread_ctx.span_id;
  if (!ctx.sampled()) {
    g_thread_ctx = {0, 0};
    return;
  }
  Open(ctx.trace_id, ctx.parent_span, stage, arg);
}

void SpanScope::Open(uint64_t trace_id, uint64_t parent, Stage stage,
                     uint64_t arg) {
  Tracer& tracer = Tracer::Default();
  trace_id_ = trace_id;
  parent_id_ = parent;
  span_id_ = tracer.NextSpanId();
  stage_ = stage;
  arg_ = arg;
  if (!restore_) {
    prev_trace_ = g_thread_ctx.trace_id;
    prev_span_ = g_thread_ctx.span_id;
    restore_ = true;
  }
  g_thread_ctx = {trace_id_, span_id_};
  start_ns_ = tracer.NowNs();
}

void SpanScope::Close() {
  if (trace_id_ != 0) {
    Tracer& tracer = Tracer::Default();
    Span s;
    s.trace_id = trace_id_;
    s.span_id = span_id_;
    s.parent_id = parent_id_;
    s.start_ns = start_ns_;
    s.dur_ns = tracer.NowNs() - start_ns_;
    s.arg = arg_;
    s.stage = stage_;
    tracer.Append(s);
  }
  g_thread_ctx = {prev_trace_, prev_span_};
}

TraceContext CurrentTraceContext() {
  return {g_thread_ctx.trace_id, g_thread_ctx.span_id};
}

}  // namespace xsketch::obs
