// xsbench: one benchmark for serving, optimizing and building.
//
// Shared types of the workload runner (workloads.cc) and the traced run's
// per-layer ledger (ledger.cc). See README.md for the workloads, the
// metrics and the layer each per-layer metric belongs to.

#ifndef XSKETCH_BENCH_XSBENCH_XSBENCH_H_
#define XSKETCH_BENCH_XSBENCH_XSBENCH_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/builder.h"
#include "core/frozen.h"
#include "daemon/daemon.h"
#include "obs/metrics.h"
#include "render.h"
#include "util/random.h"
#include "util/status.h"
#include "xml/document.h"

namespace xsbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Tiny documents and pools: the CI smoke pass.
  bool smoke = false;
  // Sketch files and the trace go here.
  std::string out_dir;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunReport {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;
  // Human-readable lines ("# ..." on stdout), including why a check failed.
  std::vector<std::string> notes;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void Fail(std::string why) {
    correct = false;
    notes.push_back("CHECK FAILED: " + std::move(why));
  }
};

// Runs one workload: inputs from the seed, timed set-up, the measured
// load with every answer checked, and (traced runs) the per-layer ledger.
// A Status error means the run could not be carried out at all.
xsketch::util::Result<RunReport> RunWorkload(const RunOptions& options);

// --- pieces shared with the ledger ---------------------------------------

// A workload's documents: which generator, at which scale, served under
// which daemon doc id.
struct DocSpec {
  enum class Kind { kXMark, kImdb, kSwissProt };
  std::string id;
  Kind kind = Kind::kXMark;
  double scale = 0.25;
};

struct Shape {
  std::string name;
  std::vector<DocSpec> docs;
  size_t budget_bytes = 32 << 10;
  int pool_size = 1000;
  int batch = 1;      // queries per request: 1 = XSKB kEstimate, else /batch
  bool zipf = false;  // Zipf(1.0) over the pool; uniform otherwise
};

// One document with its query pool and sketch.
struct Corpus {
  DocSpec spec;
  xsketch::xml::Document doc;
  Pool pool;
  std::string sketch_path;   // XSK3 written at set-up
  std::string sketch_image;  // the first set-up's XSK3 bytes
  xsketch::core::BuildStats build;
  // The sketch as mapped from sketch_path, and the in-process Session
  // estimate of every pool query over it: the expected served answers.
  std::shared_ptr<const xsketch::core::FrozenSynopsis> frozen;
  std::vector<double> expected;
};

struct Request {
  int corpus = 0;
  std::vector<int> queries;  // indices into the corpus pool
};

// The seeded request sequence of one client.
class RequestStream {
 public:
  RequestStream(const Shape& shape, const std::vector<Corpus>& corpora,
                uint64_t seed);
  Request Next();

 private:
  const Shape& shape_;
  std::vector<int> pool_sizes_;
  xsketch::util::Rng rng_;
  xsketch::util::ZipfSampler zipf_;
};

// An in-process daemon over the corpora's sketch files on a loopback
// ephemeral port: 2 workers, batch_threads 2, default admission.
class ServingDaemon {
 public:
  static xsketch::util::Result<std::unique_ptr<ServingDaemon>> Start(
      const std::vector<Corpus>& corpora);
  ~ServingDaemon();  // drains and joins the event loop

  ServingDaemon(const ServingDaemon&) = delete;
  ServingDaemon& operator=(const ServingDaemon&) = delete;

  xsketch::daemon::Daemon& daemon() { return *daemon_; }
  uint16_t port() const { return daemon_->port(); }

 private:
  explicit ServingDaemon(std::unique_ptr<xsketch::daemon::Daemon> d);

  std::unique_ptr<xsketch::daemon::Daemon> daemon_;
  std::thread loop_;
};

// Process-wide state at one moment: the registry values the daemon's
// /metrics exposes and the heap. Metrics report deltas between two marks.
struct RegistryMark {
  uint64_t daemon_requests = 0;
  xsketch::obs::Histogram::Snapshot handler_us;
  uint64_t plan_lookups = 0;
  uint64_t plan_hits = 0;
  uint64_t plan_evictions = 0;
  // Bytes malloc has handed out and not had back (mallinfo2), in MB.
  double heap_mb = 0.0;

  static RegistryMark Take();
};

struct LayerInputs {
  const Shape* shape = nullptr;
  std::vector<Corpus>* corpora = nullptr;
  uint64_t seed = 0;
  bool smoke = false;
  // The running daemon when the workload serves one; otherwise the ledger
  // starts its own for the round-trip level.
  ServingDaemon* daemon = nullptr;
  // Taken as the measured load began: the daemon's activity is counted
  // from here to the ledger's end.
  RegistryMark load_start;
  // Served loads: the median latency of the requests the clients sent in
  // the run's untraced slices, and of the pings they sent beside them.
  double client_p50_us = 0.0;
  double ping_p50_us = 0.0;
};

// The traced run's ledger phase: replays the first requests of the seed
// through public functions one layer at a time, times isolated calls into
// every layer, and appends the per-layer metrics to `report`.
void MeasureLayers(LayerInputs& in, RunReport* report);

// Mixes a run seed with a purpose tag (SplitMix64 finalizer), so every
// input stream of a run is distinct and reproducible.
uint64_t SubSeed(uint64_t seed, uint64_t purpose);

double SecondsSince(std::chrono::steady_clock::time_point start);

// Estimates are compared bit for bit: every serving path must give the
// reference path's exact double.
bool SameBits(double a, double b);

}  // namespace xsbench

#endif  // XSKETCH_BENCH_XSBENCH_XSBENCH_H_
