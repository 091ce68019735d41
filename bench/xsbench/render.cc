#include "render.h"

#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_set>

#include "query/evaluator.h"
#include "query/workload.h"
#include "query/xpath_parser.h"
#include "service/estimation_service.h"
#include "util/check.h"

namespace xsbench {

namespace {

using xsketch::query::Axis;
using xsketch::query::TwigQuery;

void AppendComparison(const xsketch::query::ValuePredicate& p,
                      std::string* out) {
  if (p.lo == p.hi) {
    *out += "[.=" + std::to_string(p.lo) + "]";
  } else if (p.lo == INT64_MIN) {
    *out += "[.<=" + std::to_string(p.hi) + "]";
  } else {
    // Two-sided ranges have no spelling; ">= lo" fails the round trip
    // unless MakeOneSided ran first.
    *out += "[.>=" + std::to_string(p.lo) + "]";
  }
}

void AppendName(const TwigQuery::Node& n,
                const xsketch::util::StringInterner& tags, std::string* out) {
  // An unknown tag renders unparseably and so fails the round trip.
  *out += n.tag < tags.size() ? tags.Get(n.tag) : std::string("<?>");
  if (n.pred.has_value()) AppendComparison(*n.pred, out);
}

// One existential subtree, as the inside of a [...] predicate.
void AppendBranch(const TwigQuery& twig, int t,
                  const xsketch::util::StringInterner& tags,
                  std::string* out) {
  const TwigQuery::Node& n = twig.node(t);
  if (n.axis == Axis::kDescendant) *out += "//";
  AppendName(n, tags, out);
  for (int c : n.children) {
    *out += "[";
    AppendBranch(twig, c, tags, out);
    *out += "]";
  }
}

}  // namespace

std::string RenderTwig(const TwigQuery& twig,
                       const xsketch::util::StringInterner& tags) {
  std::string out = "for ";
  bool first = true;
  for (int t = 0; t < twig.size(); ++t) {
    const TwigQuery::Node& n = twig.node(t);
    if (n.existential) continue;  // rendered inside its owner's predicates
    if (!first) out += ", ";
    first = false;
    out += "t" + std::to_string(t) + " in ";
    if (n.parent != TwigQuery::kNoParent) {
      out += "t" + std::to_string(n.parent);
    }
    out += n.axis == Axis::kDescendant ? "//" : "/";
    AppendName(n, tags, &out);
    for (int c : n.children) {
      if (!twig.node(c).existential) continue;
      out += "[";
      AppendBranch(twig, c, tags, &out);
      out += "]";
    }
  }
  return out;
}

bool RoundTrips(const TwigQuery& twig, const std::string& text,
                const xsketch::util::StringInterner& tags) {
  auto parsed = xsketch::query::ParseForClause(text, tags);
  return parsed.ok() && xsketch::service::CanonicalTwigKey(parsed.value()) ==
                            xsketch::service::CanonicalTwigKey(twig);
}

bool MakeOneSided(TwigQuery* twig) {
  bool changed = false;
  for (int t = 0; t < twig->size(); ++t) {
    auto& pred = twig->mutable_node(t).pred;
    if (pred.has_value() && pred->lo != pred->hi && pred->lo != INT64_MIN &&
        pred->hi != INT64_MAX) {
      pred->hi = INT64_MAX;
      changed = true;
    }
  }
  return changed;
}

Pool MakePool(const xsketch::xml::Document& doc, uint64_t seed, int size,
              double value_pred_fraction) {
  Pool pool;
  const xsketch::query::ExactEvaluator exact(doc);
  std::unordered_set<std::string> keys;
  for (uint64_t round = 0; static_cast<int>(pool.queries.size()) < size;
       ++round) {
    XS_CHECK_MSG(round < 64, "query pool generation is not converging");
    xsketch::query::WorkloadOptions options;
    options.seed = seed ^ (round * 0x9E3779B97F4A7C15ull);
    // Generation computes every candidate's exact count, so ask for about
    // what the ~40% round-trip share needs rather than a full `size`.
    options.num_queries =
        std::max(16, (size - static_cast<int>(pool.queries.size())) * 5 / 2);
    options.value_pred_fraction = value_pred_fraction;
    xsketch::query::Workload generated =
        xsketch::query::GeneratePositiveWorkload(doc, options);
    for (xsketch::query::WorkloadQuery& q : generated.queries) {
      if (static_cast<int>(pool.queries.size()) == size) break;
      ++pool.candidates;
      const bool recount = MakeOneSided(&q.twig);
      std::string text = RenderTwig(q.twig, doc.tags());
      if (!RoundTrips(q.twig, text, doc.tags())) continue;
      ++pool.round_trips;
      if (!keys.insert(xsketch::service::CanonicalTwigKey(q.twig)).second) {
        continue;
      }
      const uint64_t count =
          recount ? exact.Selectivity(q.twig) : q.true_count;
      pool.queries.push_back({std::move(q.twig), std::move(text), count});
    }
  }
  pool.sanity_bound = SanityBound(pool.queries);
  return pool;
}

double SanityBound(const std::vector<PoolQuery>& queries) {
  xsketch::query::Workload counts;
  for (const PoolQuery& q : queries) {
    counts.queries.push_back({xsketch::query::TwigQuery(), q.true_count});
  }
  return counts.SanityBound();
}

}  // namespace xsbench
