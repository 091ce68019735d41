#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/synopsis.h"
#include "core/twig_xsketch.h"
#include "data/figures.h"
#include "data/xmark.h"
#include "testing/doc_generator.h"
#include "util/random.h"
#include "xml/parser.h"

namespace xsketch::core {
namespace {

xml::Document Parse(const char* text) {
  auto r = xml::ParseDocument(text);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return std::move(r).value();
}

SynNodeId NodeByTag(const Synopsis& syn, const xml::Document& doc,
                    const char* tag) {
  const auto& nodes = syn.NodesWithTag(doc.LookupTag(tag));
  EXPECT_EQ(nodes.size(), 1u) << tag;
  return nodes[0];
}

// --- Label-split synopsis ----------------------------------------------------------

TEST(SynopsisTest, LabelSplitPartitionsByTag) {
  xml::Document doc = data::MakeBibliography();
  Synopsis syn = Synopsis::LabelSplit(doc);
  // One synopsis node per distinct tag.
  EXPECT_EQ(syn.node_count(), doc.tag_count());
  SynNodeId a = NodeByTag(syn, doc, "author");
  EXPECT_EQ(syn.node(a).count, 3u);
  EXPECT_EQ(syn.Extent(a).size(), 3u);
  for (xml::NodeId e : syn.Extent(a)) {
    EXPECT_EQ(doc.tag_name(e), "author");
    EXPECT_EQ(syn.NodeOf(e), a);
  }
}

TEST(SynopsisTest, EdgeCountsBibliography) {
  xml::Document doc = data::MakeBibliography();
  Synopsis syn = Synopsis::LabelSplit(doc);
  SynNodeId a = NodeByTag(syn, doc, "author");
  SynNodeId p = NodeByTag(syn, doc, "paper");
  SynNodeId b = NodeByTag(syn, doc, "book");

  const SynEdge* ap = syn.FindEdge(a, p);
  ASSERT_NE(ap, nullptr);
  EXPECT_EQ(ap->child_count, 4u);   // 4 papers, all under authors
  EXPECT_EQ(ap->parent_count, 3u);  // every author has a paper
  EXPECT_TRUE(ap->backward_stable);
  EXPECT_TRUE(ap->forward_stable);

  const SynEdge* ab = syn.FindEdge(a, b);
  ASSERT_NE(ab, nullptr);
  EXPECT_EQ(ab->child_count, 1u);
  EXPECT_TRUE(ab->backward_stable);   // the only book is under an author
  EXPECT_FALSE(ab->forward_stable);   // not every author has a book

  EXPECT_EQ(syn.FindEdge(b, p), nullptr);  // no paper under book
}

TEST(SynopsisTest, RootNode) {
  xml::Document doc = data::MakeBibliography();
  Synopsis syn = Synopsis::LabelSplit(doc);
  EXPECT_EQ(syn.node(syn.RootNode()).tag, doc.LookupTag("bib"));
}

TEST(SynopsisTest, Figure4FullyStable) {
  // Figure 4(c): all edges backward AND forward stable.
  xml::Document doc = data::MakeFigure4A();
  Synopsis syn = Synopsis::LabelSplit(doc);
  for (SynNodeId n = 0; n < syn.node_count(); ++n) {
    for (const SynEdge& e : syn.node(n).children) {
      EXPECT_TRUE(e.backward_stable);
      EXPECT_TRUE(e.forward_stable);
    }
    EXPECT_EQ(syn.UnstableDegree(n), 0);
  }
}

TEST(SynopsisTest, UnstableDegreeCountsBothSides) {
  xml::Document doc = Parse("<r><a><x/></a><a/><b><x/></b></r>");
  Synopsis syn = Synopsis::LabelSplit(doc);
  SynNodeId a = NodeByTag(syn, doc, "a");
  // a→x is F-unstable (one a lacks x) and B-unstable (one x is under b).
  EXPECT_GE(syn.UnstableDegree(a), 1);
  SynNodeId x = NodeByTag(syn, doc, "x");
  EXPECT_GE(syn.UnstableDegree(x), 1);
}

// --- SplitNode -----------------------------------------------------------------------

TEST(SynopsisTest, SplitNodeMovesSubset) {
  xml::Document doc = Parse("<r><a><x/></a><a/><b><x/></b></r>");
  Synopsis syn = Synopsis::LabelSplit(doc);
  SynNodeId x = NodeByTag(syn, doc, "x");
  SynNodeId a = NodeByTag(syn, doc, "a");

  // b-stabilize x w.r.t. a: move x-elements whose parent is an a.
  std::vector<xml::NodeId> subset;
  for (xml::NodeId e : syn.Extent(x)) {
    if (syn.NodeOf(doc.parent(e)) == a) subset.push_back(e);
  }
  ASSERT_EQ(subset.size(), 1u);
  SynNodeId fresh = syn.SplitNode(x, subset);

  EXPECT_EQ(syn.node(fresh).count, 1u);
  EXPECT_EQ(syn.node(x).count, 1u);
  EXPECT_EQ(syn.node(fresh).tag, doc.LookupTag("x"));
  const SynEdge* edge = syn.FindEdge(a, fresh);
  ASSERT_NE(edge, nullptr);
  EXPECT_TRUE(edge->backward_stable);
  EXPECT_EQ(syn.FindEdge(a, x), nullptr);
  // Tag index now returns both nodes.
  EXPECT_EQ(syn.NodesWithTag(doc.LookupTag("x")).size(), 2u);
}

TEST(SynopsisTest, SplitPreservesTotalCounts) {
  xml::Document doc = data::GenerateXMark({.seed = 2, .scale = 0.02});
  Synopsis syn = Synopsis::LabelSplit(doc);
  // Split some node with >= 2 elements.
  for (SynNodeId n = 0; n < syn.node_count(); ++n) {
    if (syn.node(n).count >= 4) {
      std::vector<xml::NodeId> subset(syn.Extent(n).begin(),
                                      syn.Extent(n).begin() + 2);
      uint64_t before = syn.node(n).count;
      SynNodeId fresh = syn.SplitNode(n, subset);
      EXPECT_EQ(syn.node(n).count + syn.node(fresh).count, before);
      break;
    }
  }
  // Partition invariant: every element maps into a consistent extent.
  for (xml::NodeId e = 0; e < doc.size(); ++e) {
    const auto& extent = syn.Extent(syn.NodeOf(e));
    EXPECT_TRUE(std::find(extent.begin(), extent.end(), e) != extent.end());
  }
}

// --- Split oracle ----------------------------------------------------------------------
//
// SplitNode re-derives only the split node's neighbourhood. After every
// split in a random chain, the synopsis must equal a full rebuild from its
// own partition, and both must match the edge definitions counted element
// by element.

void ExpectSameSynopsis(const Synopsis& got, const Synopsis& want) {
  ASSERT_EQ(got.node_count(), want.node_count());
  for (SynNodeId n = 0; n < got.node_count(); ++n) {
    SCOPED_TRACE("node " + std::to_string(n));
    const SynNode& a = got.node(n);
    const SynNode& b = want.node(n);
    EXPECT_EQ(a.tag, b.tag);
    EXPECT_EQ(a.count, b.count);
    EXPECT_EQ(a.parents, b.parents);
    ASSERT_EQ(a.children.size(), b.children.size());
    for (size_t i = 0; i < a.children.size(); ++i) {
      const SynEdge& x = a.children[i];
      const SynEdge& y = b.children[i];
      SCOPED_TRACE("edge to " + std::to_string(y.child));
      EXPECT_EQ(x.child, y.child);
      EXPECT_EQ(x.child_count, y.child_count);
      EXPECT_EQ(x.parent_count, y.parent_count);
      EXPECT_EQ(x.backward_stable, y.backward_stable);
      EXPECT_EQ(x.forward_stable, y.forward_stable);
    }
  }
}

// Edges straight from the definitions in synopsis.h, one element at a time.
void ExpectEdgesMatchDefinition(const Synopsis& syn) {
  const xml::Document& doc = syn.doc();
  struct Counted {
    uint64_t children = 0;
    std::set<xml::NodeId> parents;
  };
  std::map<std::pair<SynNodeId, SynNodeId>, Counted> edges;
  for (xml::NodeId e = 0; e < doc.size(); ++e) {
    const xml::NodeId p = doc.parent(e);
    if (p == xml::kInvalidNode) continue;
    Counted& c = edges[{syn.NodeOf(p), syn.NodeOf(e)}];
    ++c.children;
    c.parents.insert(p);
  }
  size_t edge_count = 0;
  for (SynNodeId u = 0; u < syn.node_count(); ++u) {
    edge_count += syn.node(u).children.size();
    for (const SynEdge& edge : syn.node(u).children) {
      auto it = edges.find({u, edge.child});
      ASSERT_NE(it, edges.end()) << u << "->" << edge.child;
      EXPECT_EQ(edge.child_count, it->second.children);
      EXPECT_EQ(edge.parent_count, it->second.parents.size());
      EXPECT_EQ(edge.backward_stable,
                edge.child_count == syn.node(edge.child).count);
      EXPECT_EQ(edge.forward_stable, edge.parent_count == syn.node(u).count);
    }
  }
  EXPECT_EQ(edge_count, edges.size());
}

// Picks a node and a proper subset of its extent the way XBUILD does
// (b-stabilize: elements with a parent in u; f-stabilize: elements with a
// child in w), or at random. Returns false when the pick is degenerate.
bool PickSplit(const Synopsis& syn, util::Rng& rng, SynNodeId* v,
               std::vector<xml::NodeId>* subset) {
  const xml::Document& doc = syn.doc();
  *v = static_cast<SynNodeId>(rng.Uniform(syn.node_count()));
  const SynNode& node = syn.node(*v);
  subset->clear();
  switch (rng.Uniform(3)) {
    case 0: {  // b-stabilize against a random parent, often itself
      if (node.parents.empty()) return false;
      const SynNodeId u = node.parents[rng.Uniform(node.parents.size())];
      for (xml::NodeId e : syn.Extent(*v)) {
        const xml::NodeId p = doc.parent(e);
        if (p != xml::kInvalidNode && syn.NodeOf(p) == u) {
          subset->push_back(e);
        }
      }
      break;
    }
    case 1: {  // f-stabilize towards a random child
      if (node.children.empty()) return false;
      const SynNodeId w =
          node.children[rng.Uniform(node.children.size())].child;
      for (xml::NodeId e : syn.Extent(*v)) {
        bool has = false;
        doc.ForEachChild(e, [&](xml::NodeId c) {
          has = has || syn.NodeOf(c) == w;
        });
        if (has) subset->push_back(e);
      }
      break;
    }
    default:
      for (xml::NodeId e : syn.Extent(*v)) {
        if (rng.Bernoulli(0.5)) subset->push_back(e);
      }
      break;
  }
  return !subset->empty() && subset->size() < node.count;
}

// Runs `splits` random splits on doc's label-split synopsis, checking the
// oracle after each. Returns how many split a node that was its own parent.
int RunSplitChain(const xml::Document& doc, uint64_t seed, int splits) {
  Synopsis syn = Synopsis::LabelSplit(doc);
  util::Rng rng(seed);
  int self_parent_splits = 0;
  std::vector<xml::NodeId> subset;
  for (int step = 0, attempts = 0; step < splits && attempts < splits * 20;
       ++attempts) {
    SynNodeId v = kInvalidSynNode;
    if (!PickSplit(syn, rng, &v, &subset)) continue;
    const std::vector<SynNodeId>& parents = syn.node(v).parents;
    if (std::binary_search(parents.begin(), parents.end(), v)) {
      ++self_parent_splits;
    }
    syn.SplitNode(v, subset);
    ++step;

    SCOPED_TRACE("step " + std::to_string(step) + ", split node " +
                 std::to_string(v));
    std::vector<SynNodeId> partition(doc.size());
    for (xml::NodeId e = 0; e < doc.size(); ++e) partition[e] = syn.NodeOf(e);
    const Synopsis rebuilt =
        Synopsis::FromPartition(doc, std::move(partition), syn.node_count());
    ExpectSameSynopsis(syn, rebuilt);
    ExpectEdgesMatchDefinition(syn);
    if (::testing::Test::HasFailure()) break;
  }
  return self_parent_splits;
}

TEST(SynopsisSplitOracleTest, RandomSplitChainsMatchFullRebuild) {
  for (testing::DocShape shape : testing::kAllDocShapes) {
    int self_parent_splits = 0;
    for (uint64_t seed = 1; seed <= 6; ++seed) {
      SCOPED_TRACE(std::string(testing::DocShapeName(shape)) + " seed " +
                   std::to_string(seed));
      const xml::Document doc =
          testing::GenerateRandomDocument(testing::ShapePreset(shape, seed));
      self_parent_splits += RunSplitChain(doc, seed * 7919, 24);
      if (HasFailure()) return;
    }
    // Recursive documents give self-loops (v -> v), so some splits hit a
    // v that is its own parent and must still count its edges right.
    if (shape == testing::DocShape::kRecursive) {
      EXPECT_GT(self_parent_splits, 0);
    }
  }
}

TEST(SynopsisSplitOracleTest, XMarkSplitChainMatchesFullRebuild) {
  const xml::Document doc = data::GenerateXMark({.seed = 42, .scale = 0.05});
  RunSplitChain(doc, 17, 40);
}

// --- TSN -----------------------------------------------------------------------------

TEST(SynopsisTest, TwigStableNeighborhoodBibliography) {
  xml::Document doc = data::MakeBibliography();
  Synopsis syn = Synopsis::LabelSplit(doc);
  SynNodeId p = NodeByTag(syn, doc, "paper");
  SynNodeId a = NodeByTag(syn, doc, "author");
  SynNodeId bib = NodeByTag(syn, doc, "bib");
  SynNodeId n = NodeByTag(syn, doc, "name");
  SynNodeId y = NodeByTag(syn, doc, "year");
  SynNodeId b = NodeByTag(syn, doc, "book");

  auto tsn = syn.TwigStableNeighborhood(p);
  auto has = [&](SynNodeId id) {
    return std::find(tsn.begin(), tsn.end(), id) != tsn.end();
  };
  EXPECT_TRUE(has(p));    // itself
  EXPECT_TRUE(has(a));    // B-stable author→paper
  EXPECT_TRUE(has(bib));  // B-stable bib→author
  EXPECT_TRUE(has(n));    // F-stable author→name
  EXPECT_TRUE(has(y));    // F-stable paper→year
  EXPECT_FALSE(has(b));   // author→book is not F-stable
}

TEST(SynopsisTest, NearestAncestorIn) {
  xml::Document doc = data::MakeBibliography();
  Synopsis syn = Synopsis::LabelSplit(doc);
  SynNodeId a = NodeByTag(syn, doc, "author");
  xml::TagId keyword = doc.LookupTag("keyword");
  for (xml::NodeId k : doc.NodesWithTag(keyword)) {
    xml::NodeId anc = syn.NearestAncestorIn(k, a);
    ASSERT_NE(anc, xml::kInvalidNode);
    EXPECT_EQ(doc.tag_name(anc), "author");
  }
  SynNodeId book = NodeByTag(syn, doc, "book");
  EXPECT_EQ(syn.NearestAncestorIn(doc.NodesWithTag(keyword)[0], book),
            xml::kInvalidNode);
}

TEST(SynopsisTest, StructureSizeAccounting) {
  xml::Document doc = data::MakeBibliography();
  Synopsis syn = Synopsis::LabelSplit(doc);
  size_t edges = 0;
  for (SynNodeId n = 0; n < syn.node_count(); ++n) {
    edges += syn.node(n).children.size();
  }
  EXPECT_EQ(syn.StructureSizeBytes(), syn.node_count() * 8 + edges * 16);
}

// --- TwigXSketch summaries -----------------------------------------------------------

TEST(TwigXSketchTest, CoarsestBuildsFStableHistograms) {
  xml::Document doc = data::MakeBibliography();
  CoarsestOptions opts;
  opts.max_initial_dims = 2;
  TwigXSketch sketch = TwigXSketch::Coarsest(doc, opts);
  const Synopsis& syn = sketch.synopsis();
  SynNodeId a = NodeByTag(syn, doc, "author");
  const NodeSummary& s = sketch.summary(a);
  // author has F-stable edges to name and paper: both fit max_initial_dims.
  ASSERT_EQ(s.scope.size(), 2u);
  for (const CountRef& ref : s.scope) {
    EXPECT_TRUE(ref.forward);
    EXPECT_EQ(ref.from, a);
    const SynEdge* e = syn.FindEdge(a, ref.to);
    ASSERT_NE(e, nullptr);
    EXPECT_TRUE(e->forward_stable);
  }
  EXPECT_FALSE(s.hist.empty());
  EXPECT_FALSE(sketch.HasBackwardDims());
}

TEST(TwigXSketchTest, HistogramMatchesDocumentDistribution) {
  xml::Document doc = data::MakeFigure4A();
  CoarsestOptions opts;
  opts.max_initial_dims = 2;
  TwigXSketch sketch = TwigXSketch::Coarsest(doc, opts);
  const Synopsis& syn = sketch.synopsis();
  SynNodeId a = NodeByTag(syn, doc, "a");
  const NodeSummary& s = sketch.summary(a);
  ASSERT_EQ(s.scope.size(), 2u);
  // f_A over (b, c) = {(10,100): 0.5, (100,10): 0.5} in some dim order.
  EXPECT_NEAR(s.hist.ExpectedProduct({0, 1}), 1000.0, 1e-9);
  EXPECT_NEAR(s.hist.MarginalMean(0), 55.0, 1e-9);
}

TEST(TwigXSketchTest, ExpandScopeForward) {
  xml::Document doc = data::MakeBibliography();
  TwigXSketch sketch = TwigXSketch::Coarsest(doc);
  const Synopsis& syn = sketch.synopsis();
  SynNodeId a = NodeByTag(syn, doc, "author");
  SynNodeId b = NodeByTag(syn, doc, "book");
  const size_t dims_before = sketch.summary(a).scope.size();
  EXPECT_TRUE(sketch.ExpandScope(a, CountRef{true, a, b}));
  EXPECT_EQ(sketch.summary(a).scope.size(), dims_before + 1);
  // Duplicate expansion refused.
  EXPECT_FALSE(sketch.ExpandScope(a, CountRef{true, a, b}));
  // Nonexistent edge refused.
  SynNodeId y = NodeByTag(syn, doc, "year");
  EXPECT_FALSE(sketch.ExpandScope(a, CountRef{true, a, y}));
}

TEST(TwigXSketchTest, ExpandScopeBackward) {
  xml::Document doc = data::MakeBibliography();
  TwigXSketch sketch = TwigXSketch::Coarsest(doc);
  const Synopsis& syn = sketch.synopsis();
  SynNodeId a = NodeByTag(syn, doc, "author");
  SynNodeId p = NodeByTag(syn, doc, "paper");
  SynNodeId n = NodeByTag(syn, doc, "name");
  // Backward count at paper over the author→name edge (author reaches
  // paper B-stably).
  EXPECT_TRUE(sketch.ExpandScope(p, CountRef{false, a, n}));
  EXPECT_TRUE(sketch.HasBackwardDims());
  // Illegal: book does not reach paper.
  SynNodeId b = NodeByTag(syn, doc, "book");
  EXPECT_FALSE(sketch.ExpandScope(p, CountRef{false, b, n}));
}

TEST(TwigXSketchTest, ValueHistogramsOnValueNodes) {
  xml::Document doc = data::MakeBibliography();
  TwigXSketch sketch = TwigXSketch::Coarsest(doc);
  const Synopsis& syn = sketch.synopsis();
  SynNodeId y = NodeByTag(syn, doc, "year");
  EXPECT_FALSE(sketch.summary(y).values.empty());
  // Years: 1999, 2002, 2001, 1998 -> fraction > 2000 is 0.5.
  EXPECT_NEAR(sketch.summary(y).values.EstimateFraction(2001, 9999), 0.5,
              0.01);
  SynNodeId a = NodeByTag(syn, doc, "author");
  EXPECT_TRUE(sketch.summary(a).values.empty());
}

TEST(TwigXSketchTest, SplitRepairsScopes) {
  xml::Document doc = Parse(
      "<r><a><x/><k/></a><a><x/></a><b><x/><x/></b></r>");
  TwigXSketch sketch = TwigXSketch::Coarsest(doc);
  const Synopsis& syn = sketch.synopsis();
  SynNodeId a = NodeByTag(syn, doc, "a");
  SynNodeId x = NodeByTag(syn, doc, "x");
  // Give a an explicit forward dim on x (a→x is F-stable so it may already
  // be there; ensure presence).
  sketch.ExpandScope(a, CountRef{true, a, x});
  ASSERT_GE(sketch.summary(a).FindForwardDim(a, x), 0);

  // Split x by parent tag: elements under a vs under b.
  std::vector<xml::NodeId> subset;
  for (xml::NodeId e : sketch.synopsis().Extent(x)) {
    if (sketch.synopsis().NodeOf(doc.parent(e)) == a) subset.push_back(e);
  }
  SynNodeId fresh = sketch.SplitNode(x, subset);

  // a's scope must now reference the half that is a's child.
  const NodeSummary& s = sketch.summary(a);
  EXPECT_GE(s.FindForwardDim(a, fresh), 0);
  EXPECT_LT(s.FindForwardDim(a, x), 0);  // a no longer parents old-x
  EXPECT_EQ(static_cast<int>(s.scope.size()), s.hist.dims());
}

TEST(TwigXSketchTest, SizeBytesGrowsWithRefinement) {
  xml::Document doc = data::GenerateXMark({.seed = 3, .scale = 0.02});
  TwigXSketch sketch = TwigXSketch::Coarsest(doc);
  const size_t before = sketch.SizeBytes();
  // Find a node with a non-trivial histogram and refine it.
  for (SynNodeId n = 0; n < sketch.synopsis().node_count(); ++n) {
    const NodeSummary& s = sketch.summary(n);
    if (!s.scope.empty() && s.hist.bucket_count() >= s.bucket_budget) {
      sketch.RefineEdgeHistogram(n);
      break;
    }
  }
  EXPECT_GE(sketch.SizeBytes(), before);
}

}  // namespace
}  // namespace xsketch::core
