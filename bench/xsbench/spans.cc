#include "spans.h"

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/json.h"
#include "util/posix_io.h"

namespace xsbench {

namespace {

using Clock = std::chrono::steady_clock;

const Clock::time_point kEpoch = Clock::now();

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           kEpoch)
          .count());
}

constexpr size_t kMaxSpansPerThread = 1 << 15;

std::atomic<bool> g_tracing{false};

struct ThreadSpans {
  uint32_t tid = 0;
  uint64_t next_seq = 1;
  uint64_t current = 0;  // innermost open span id
  uint64_t dropped = 0;
  std::vector<SpanRecord> spans;
};

std::mutex g_registry_mu;
std::vector<std::unique_ptr<ThreadSpans>>& Registry() {
  static auto* registry = new std::vector<std::unique_ptr<ThreadSpans>>();
  return *registry;
}

ThreadSpans& ThisThread() {
  thread_local ThreadSpans* mine = [] {
    std::lock_guard<std::mutex> lock(g_registry_mu);
    auto& registry = Registry();
    registry.push_back(std::make_unique<ThreadSpans>());
    registry.back()->tid = static_cast<uint32_t>(registry.size());
    registry.back()->spans.reserve(1024);
    return registry.back().get();
  }();
  return *mine;
}

}  // namespace

void SetTracing(bool on) { g_tracing.store(on, std::memory_order_relaxed); }
bool TracingOn() { return g_tracing.load(std::memory_order_relaxed); }

Span::Span(const char* name)
    : name_(name), active_(g_tracing.load(std::memory_order_relaxed)) {
  if (!active_) return;
  ThreadSpans& t = ThisThread();
  id_ = (static_cast<uint64_t>(t.tid) << 40) | t.next_seq++;
  parent_ = t.current;
  t.current = id_;
  start_ns_ = NowNs();
}

Span::~Span() {
  if (!active_) return;
  const uint64_t end = NowNs();
  ThreadSpans& t = ThisThread();
  t.current = parent_;
  if (t.spans.size() >= kMaxSpansPerThread) {
    ++t.dropped;
    return;
  }
  t.spans.push_back({name_, id_, parent_, start_ns_, end - start_ns_, t.tid});
}

std::vector<SpanRecord> CollectSpans() {
  std::lock_guard<std::mutex> lock(g_registry_mu);
  std::vector<SpanRecord> all;
  for (const auto& t : Registry()) {
    all.insert(all.end(), t->spans.begin(), t->spans.end());
  }
  return all;
}

uint64_t DroppedSpans() {
  std::lock_guard<std::mutex> lock(g_registry_mu);
  uint64_t dropped = 0;
  for (const auto& t : Registry()) dropped += t->dropped;
  return dropped;
}

void ResetSpans() {
  std::lock_guard<std::mutex> lock(g_registry_mu);
  for (const auto& t : Registry()) {
    t->spans.clear();
    t->dropped = 0;
  }
}

std::vector<uint64_t> SelfTimesNs(const std::vector<SpanRecord>& spans) {
  std::unordered_map<uint64_t, size_t> index;
  index.reserve(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) index.emplace(spans[i].id, i);
  std::vector<uint64_t> children(spans.size(), 0);
  for (const SpanRecord& s : spans) {
    auto it = index.find(s.parent);
    if (it != index.end()) children[it->second] += s.dur_ns;
  }
  std::vector<uint64_t> self(spans.size(), 0);
  for (size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].dur_ns > children[i] ? spans[i].dur_ns - children[i]
                                            : 0;
  }
  return self;
}

xsketch::util::Status WriteChromeTrace(const std::string& path,
                                       const std::vector<SpanRecord>& spans) {
  const std::vector<uint64_t> self = SelfTimesNs(spans);
  std::string out = "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    if (i > 0) out += ",\n";
    out += "{\"name\":";
    xsketch::net::AppendJsonString(&out, s.name);
    out += ",\"ph\":\"X\",\"pid\":1,\"tid\":" + std::to_string(s.tid);
    out += ",\"ts\":";
    xsketch::net::AppendJsonNumber(&out, s.start_ns / 1e3);
    out += ",\"dur\":";
    xsketch::net::AppendJsonNumber(&out, s.dur_ns / 1e3);
    out += ",\"args\":{\"self_us\":";
    xsketch::net::AppendJsonNumber(&out, self[i] / 1e3);
    out += "}}";
  }
  out += "],\"otherData\":{\"dropped_spans\":" +
         std::to_string(DroppedSpans()) + "}}\n";
  return xsketch::util::WriteStringToFile(path, out);
}

}  // namespace xsbench
