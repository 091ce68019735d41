// Twig -> query text, and the round-trip-checked query pools xsbench
// serves.
//
// Serving workloads send query *text* to the daemon, which parses it back
// into a twig. A pool query is kept only when that re-parse yields the
// same CanonicalTwigKey as the twig the benchmark holds the true count and
// the expected estimate for; everything else is dropped and counted.
//
// The grammar (query/xpath_parser.h) keeps one comparison per node, so a
// two-sided P+V range [lo, hi] cannot be written down: MakePool rewrites
// such ranges one-sided (>= lo) before rendering and recounts the query
// exactly. The for-clause form also fixes the node order (each binding
// node, then its predicate subtrees in preorder), so generated twigs whose
// branches were grown in another order do not round-trip and are dropped.

#ifndef XSKETCH_BENCH_XSBENCH_RENDER_H_
#define XSKETCH_BENCH_XSBENCH_RENDER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "query/twig.h"
#include "util/string_interner.h"
#include "xml/document.h"

namespace xsbench {

// Renders `twig` as a for-clause, one variable per binding node in arena
// order, existential subtrees as nested [...] predicates.
std::string RenderTwig(const xsketch::query::TwigQuery& twig,
                       const xsketch::util::StringInterner& tags);

// True when `text` parses (ParseForClause) to a twig with the same
// CanonicalTwigKey as `twig`.
bool RoundTrips(const xsketch::query::TwigQuery& twig, const std::string& text,
                const xsketch::util::StringInterner& tags);

// Rewrites every two-sided value range [lo, hi] as [lo, +inf). Returns
// true when any predicate changed (the true count must then be redone).
bool MakeOneSided(xsketch::query::TwigQuery* twig);

struct PoolQuery {
  xsketch::query::TwigQuery twig;
  std::string text;
  uint64_t true_count = 0;
};

struct Pool {
  std::vector<PoolQuery> queries;  // distinct CanonicalTwigKeys
  size_t candidates = 0;           // generated twigs examined
  size_t round_trips = 0;          // of those, texts that re-parse equal
  double sanity_bound = 1.0;       // p10 of true counts (paper §6.1)

  double kept_share() const {
    return candidates == 0 ? 0.0
                           : static_cast<double>(round_trips) /
                                 static_cast<double>(candidates);
  }
};

// The paper's sanity bound s: the 10th percentile of the true counts.
double SanityBound(const std::vector<PoolQuery>& queries);

// `size` distinct round-tripping positive queries over `doc`, drawn from
// query::GeneratePositiveWorkload rounds seeded from `seed`.
Pool MakePool(const xsketch::xml::Document& doc, uint64_t seed, int size,
              double value_pred_fraction);

}  // namespace xsbench

#endif  // XSKETCH_BENCH_XSBENCH_RENDER_H_
