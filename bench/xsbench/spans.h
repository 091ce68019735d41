// Bench-side spans for the traced run.
//
// xsbench records spans around its own calls into each layer (client
// encode / send / wait / decode, Session::Plan, the executors, XBUILD,
// every ledger level), never inside the library. Spans go to per-thread
// in-memory buffers and are written once, at exit, as Chrome trace JSON
// whose every event carries its self time: the span's duration minus the
// part its child spans cover.
//
// Recording is off unless SetTracing(true); an inactive Span costs one
// relaxed atomic load. Each thread keeps its first 32768 spans (later ones
// are still timed, then counted as dropped), which bounds memory and the
// trace file on long runs.

#ifndef XSKETCH_BENCH_XSBENCH_SPANS_H_
#define XSKETCH_BENCH_XSBENCH_SPANS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace xsbench {

struct SpanRecord {
  const char* name = "";  // string literal
  uint64_t id = 0;
  uint64_t parent = 0;    // 0 = root
  uint64_t start_ns = 0;  // since process start
  uint64_t dur_ns = 0;
  uint32_t tid = 0;
};

void SetTracing(bool on);
bool TracingOn();

// RAII span: a child of the calling thread's innermost open Span.
class Span {
 public:
  explicit Span(const char* name);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  bool active_;
  uint64_t id_ = 0;
  uint64_t parent_ = 0;
  uint64_t start_ns_ = 0;
};

// Every recorded span of every thread. Call these only while no other
// thread records (buffers are written without a lock).
std::vector<SpanRecord> CollectSpans();
uint64_t DroppedSpans();
// Forgets every recorded span (one process running several traced runs).
void ResetSpans();

// Self time per span, indexed like `spans`.
std::vector<uint64_t> SelfTimesNs(const std::vector<SpanRecord>& spans);

xsketch::util::Status WriteChromeTrace(const std::string& path,
                                       const std::vector<SpanRecord>& spans);

}  // namespace xsbench

#endif  // XSKETCH_BENCH_XSBENCH_SPANS_H_
