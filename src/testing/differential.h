// Differential oracle runner: the whole estimation pipeline checked
// against the exact evaluator over seeded random (document, query) pairs.
//
// For each generated document the runner builds both the coarsest and an
// XBUILD-refined sketch, serializes and reloads each, stands up an
// EstimationService, and checks every generated query against these
// invariants:
//
//   finite        estimates are finite and never negative
//   upper-bound   estimate <= prod over binding nodes of |extent(tag)|
//                 (documented slack for bucketized fanouts)
//   empty-range   a binding-node predicate with lo > hi forces estimate
//                 and exact count to 0 (the pinned empty-range semantics)
//   bit-identity  Estimate == EstimateWithStats == EstimateWithTrace ==
//                 the EstimationService batch path, bit for bit
//   traced        a second EstimationService with span tracing sampled at
//                 1.0 and the flight recorder on returns bit-identical
//                 estimates — observability must never perturb arithmetic
//   round-trip    SaveSketch -> LoadSketch -> re-estimate is bit-identical
//   exactness     on perfectly-stable documents (DocShape::kStable),
//                 structural estimates equal the exact evaluator's counts
//   executors     the structural-join executors (src/exec) reproduce the
//                 exact evaluator's counts bit for bit: binary joins in
//                 the naive syntactic order AND in whatever order the
//                 cost-based planner picks from coarsest-sketch
//                 estimates, plus the holistic twig join — estimates
//                 steer work, never results
//
// The traced service doubles as a flight-recorder smoke test: every
// generated query runs with the recorder on, and any failure's repro
// message includes the matching flight record (per-stage latency, twig
// key, estimate) when one is found.
//
// Failures carry the exact seed and a minimized repro command (a
// single-pair rerun driven by environment variables), so any red run is
// reproducible from the log alone.

#ifndef XSKETCH_TESTING_DIFFERENTIAL_H_
#define XSKETCH_TESTING_DIFFERENTIAL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "testing/doc_generator.h"
#include "testing/query_generator.h"

namespace xsketch::testing {

struct DifferentialOptions {
  // Base seed; per-document seeds are derived from it (and reported in
  // failures, so a single pair reruns without the full sweep).
  uint64_t seed = 0xC0FFEE;
  std::vector<DocShape> shapes = {DocShape::kUniform, DocShape::kSkewed,
                                  DocShape::kWide, DocShape::kRecursive,
                                  DocShape::kStable};
  int docs_per_shape = 2;
  int queries_per_doc = 24;
  // Threads for the EstimationService batch bit-identity check.
  int batch_threads = 8;
  // Caps on '//' expansion (alternatives per step, synopsis path length),
  // applied identically to every estimation path (direct, batch, XBUILD
  // scoring) so bit-identity checks compare like with like. Kept well
  // below the production defaults: the reference estimator's stats/trace
  // paths run un-memoized (that is what keeps their arithmetic
  // bit-identical to the plain path), as does every path on sketches with
  // backward dims, so their cost multiplies per histogram bucket along
  // every '//' chain and squares when '//' steps nest — some seeds take
  // minutes at the defaults on cyclic (recursive-shape) synopses. The
  // harness checks consistency, not estimation quality, so small caps
  // lose nothing. Stable-shape documents ignore these and use the
  // production defaults (acyclic synopsis; exactness needs full
  // expansion).
  int max_descendant_paths = 4;
  int max_path_length = 4;
  // Also build + check an XBUILD-refined sketch (the coarsest is always
  // checked).
  bool build_refined = true;
  QueryGenOptions query;  // structural_only is forced for kStable
};

struct DifferentialFailure {
  std::string invariant;  // "finite", "upper-bound", "bit-identity", ...
  std::string shape;
  uint64_t doc_seed = 0;
  int query_index = 0;
  std::string query;   // for-clause rendering of the twig
  std::string detail;  // expected vs got
  std::string repro;   // exact environment + command reproducing the pair
  std::string flight;  // flight-recorder JSON for the query, if recorded

  // Multi-line human-readable rendering (what test failures print).
  std::string Describe() const;
};

struct DifferentialReport {
  int docs = 0;
  int pairs = 0;             // (document, query) pairs checked
  int invariant_checks = 0;  // individual assertions evaluated
  std::vector<DifferentialFailure> failures;

  bool ok() const { return failures.empty(); }
  std::string Summary() const;
};

// Runs the full sweep.
DifferentialReport RunDifferential(const DifferentialOptions& options);

// Reruns one (document, query) pair — the minimized repro for a failure.
// `query_index` of -1 checks every query of the document.
DifferentialReport RunSinglePair(DocShape shape, uint64_t doc_seed,
                                 int query_index,
                                 const DifferentialOptions& options = {});

}  // namespace xsketch::testing

#endif  // XSKETCH_TESTING_DIFFERENTIAL_H_
