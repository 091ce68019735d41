#include "obs/flight.h"

#include <algorithm>
#include <cstdio>

#include "obs/metrics.h"
#include "util/format.h"

namespace xsketch::obs {

namespace {

// void* because Ring is private to FlightRecorder; only member functions
// (which have access) cast it.
thread_local void* g_thread_ring = nullptr;

void AppendJsonString(std::string& out, const std::string& s) {
  out.push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

void AppendHex(std::string& out, const std::string& bytes) {
  static const char kHex[] = "0123456789abcdef";
  out.push_back('"');
  for (unsigned char c : bytes) {
    out.push_back(kHex[c >> 4]);
    out.push_back(kHex[c & 0xF]);
  }
  out.push_back('"');
}

void AppendMicros(std::string& out, const char* field, double us) {
  out.push_back('"');
  out += field;
  out += "\":";
  out += util::FormatDecimal(us, std::chars_format::fixed, 3);
}

}  // namespace

std::string FlightRecord::ToJson() const {
  std::string out = "{";
  out += "\"seq\":" + std::to_string(seq);
  out += ",\"trace_id\":" + std::to_string(trace_id);
  out += ",\"twig_key\":";
  AppendHex(out, twig_key);
  out += ",\"ok\":";
  out += ok ? "true" : "false";
  if (!ok) {
    out += ",\"error\":";
    AppendJsonString(out, error);
  }
  out += ",\"estimate\":";
  out += util::FormatDecimal(estimate, std::chars_format::general, 17);
  out += ",\"sketch_generation\":" + std::to_string(sketch_generation);
  out += ",\"stages_us\":{";
  AppendMicros(out, "parse", parse_us);
  out.push_back(',');
  AppendMicros(out, "prepare", prepare_us);
  out.push_back(',');
  AppendMicros(out, "compile", compile_us);
  out.push_back(',');
  AppendMicros(out, "execute", execute_us);
  out.push_back(',');
  AppendMicros(out, "total", total_us);
  out += "}";
  out += ",\"plan_cache_hit\":";
  out += plan_cache_hit ? "true" : "false";
  out += ",\"slow\":";
  out += slow ? "true" : "false";
  if (!spans.empty()) {
    out += ",\"spans\":[";
    for (size_t i = 0; i < spans.size(); ++i) {
      if (i > 0) out.push_back(',');
      const Span& s = spans[i];
      out += "{\"stage\":\"";
      out += StageName(s.stage);
      out.push_back('"');
      out += ",\"span_id\":" + std::to_string(s.span_id);
      out += ",\"parent_id\":" + std::to_string(s.parent_id);
      out += ",\"start_ns\":" + std::to_string(s.start_ns);
      out += ",\"dur_ns\":" + std::to_string(s.dur_ns);
      out += ",\"arg\":" + std::to_string(s.arg);
      out += ",\"tid\":" + std::to_string(s.tid);
      out += "}";
    }
    out += "]";
  }
  out += "}";
  return out;
}

FlightRecorder& FlightRecorder::Default() {
  static FlightRecorder* recorder = new FlightRecorder();
  return *recorder;
}

FlightRecorder::FlightRecorder() {
  MetricsRegistry& reg = MetricsRegistry::Default();
  metric_records_ = &reg.GetCounter("xsketch_flight_records_total",
                                    "queries recorded by the flight "
                                    "recorder");
  metric_slow_ = &reg.GetCounter(
      "xsketch_flight_slow_total",
      "flight records that crossed the slow-query threshold");
  metric_errors_ = &reg.GetCounter("xsketch_flight_errors_total",
                                   "failed queries seen by the flight "
                                   "recorder");
  metric_dropped_ = &reg.GetCounter(
      "xsketch_flight_dropped_total",
      "flight records overwritten in full per-thread rings");
}

void FlightRecorder::Configure(const Options& options) {
  slow_us_.store(options.slow_us, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(registry_mu_);
  capacity_ = std::max<size_t>(1, options.capacity);
  for (auto& ring : rings_) {
    std::lock_guard<std::mutex> ring_lock(ring->mu);
    ring->slots.assign(capacity_, FlightRecord{});
    ring->next = 0;
  }
}

FlightRecorder::Options FlightRecorder::options() const {
  Options o;
  o.slow_us = slow_us_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(registry_mu_);
  o.capacity = capacity_;
  return o;
}

FlightRecorder::Ring& FlightRecorder::ThisThreadRing() {
  if (g_thread_ring != nullptr) return *static_cast<Ring*>(g_thread_ring);
  std::lock_guard<std::mutex> lock(registry_mu_);
  auto ring = std::make_shared<Ring>(capacity_);
  rings_.push_back(ring);
  g_thread_ring = ring.get();
  return *ring;
}

void FlightRecorder::Record(FlightRecord record) {
  record.seq = seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  const bool is_slow =
      record.total_us >= slow_us_.load(std::memory_order_relaxed);
  record.slow = is_slow;
  if (is_slow) {
    slow_.fetch_add(1, std::memory_order_relaxed);
    metric_slow_->Increment();
  }
  if (!record.ok) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    metric_errors_->Increment();
  }
  // Promotion: slow and failed queries keep their full span tree — copied
  // now, before the tracer ring wraps past it.
  if ((is_slow || !record.ok) && record.trace_id != 0 &&
      record.spans.empty()) {
    record.spans = Tracer::Default().SpansForTrace(record.trace_id);
  }
  Ring& ring = ThisThreadRing();
  std::lock_guard<std::mutex> lock(ring.mu);
  const size_t cap = ring.slots.size();
  FlightRecord& slot = ring.slots[ring.next % cap];
  if (ring.next >= cap && slot.seq != 0) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    metric_dropped_->Increment();
  }
  slot = std::move(record);
  ++ring.next;
  recorded_.fetch_add(1, std::memory_order_relaxed);
  metric_records_->Increment();
}

std::vector<FlightRecord> FlightRecorder::Dump() const {
  std::vector<std::shared_ptr<Ring>> rings;
  size_t capacity;
  {
    std::lock_guard<std::mutex> lock(registry_mu_);
    rings = rings_;
    capacity = capacity_;
  }
  std::vector<FlightRecord> out;
  for (const auto& ring : rings) {
    std::lock_guard<std::mutex> lock(ring->mu);
    for (const FlightRecord& r : ring->slots) {
      if (r.seq != 0) out.push_back(r);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const FlightRecord& a, const FlightRecord& b) {
              return a.seq > b.seq;
            });
  if (out.size() > capacity) out.resize(capacity);
  return out;
}

bool FlightRecorder::FindByKey(const std::string& twig_key,
                               FlightRecord* out) const {
  for (const FlightRecord& r : Dump()) {
    if (r.twig_key == twig_key) {
      *out = r;
      return true;
    }
  }
  return false;
}

std::string FlightRecorder::ToJson() const {
  std::string out = "{\"records\":[";
  bool first = true;
  for (const FlightRecord& r : Dump()) {
    if (!first) out.push_back(',');
    first = false;
    out += r.ToJson();
  }
  out += "]}";
  return out;
}

FlightRecorder::Counters FlightRecorder::counters() const {
  return Counters{recorded_.load(std::memory_order_relaxed),
                  slow_.load(std::memory_order_relaxed),
                  errors_.load(std::memory_order_relaxed),
                  dropped_.load(std::memory_order_relaxed)};
}

void FlightRecorder::Reset() {
  std::lock_guard<std::mutex> lock(registry_mu_);
  for (auto& ring : rings_) {
    std::lock_guard<std::mutex> ring_lock(ring->mu);
    ring->slots.assign(capacity_, FlightRecord{});
    ring->next = 0;
  }
  recorded_.store(0, std::memory_order_relaxed);
  slow_.store(0, std::memory_order_relaxed);
  errors_.store(0, std::memory_order_relaxed);
  dropped_.store(0, std::memory_order_relaxed);
  seq_.store(0, std::memory_order_relaxed);
}

}  // namespace xsketch::obs
