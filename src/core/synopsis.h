// Graph synopsis substrate (paper §3.1).
//
// A graph synopsis S(G) partitions document elements into label-uniform
// synopsis nodes; a synopsis edge (u, v) exists when some element of v has
// its parent in u. Each edge carries |u→v| (elements of v with parent in
// u), the parent count (elements of u with at least one child in v), and
// the derived backward/forward stability flags:
//   B-stable: every element of v has a parent in u      (|u→v| == |v|)
//   F-stable: every element of u has a child in v       (parents == |u|)
//
// The synopsis keeps the element partition (needed to rebuild distribution
// information after refinements) and supports node splits, the refinement
// primitive behind b-stabilize / f-stabilize.

#ifndef XSKETCH_CORE_SYNOPSIS_H_
#define XSKETCH_CORE_SYNOPSIS_H_

#include <cstdint>
#include <vector>

#include "xml/document.h"

namespace xsketch::core {

using SynNodeId = uint32_t;
inline constexpr SynNodeId kInvalidSynNode = 0xFFFFFFFFu;

struct SynEdge {
  SynNodeId child = kInvalidSynNode;
  uint64_t child_count = 0;   // |u→v|: elements of v with parent in u
  uint64_t parent_count = 0;  // elements of u with >= 1 child in v
  bool backward_stable = false;
  bool forward_stable = false;
};

struct SynNode {
  xml::TagId tag = 0;
  uint64_t count = 0;               // extent size
  std::vector<SynEdge> children;    // outgoing edges
  std::vector<SynNodeId> parents;   // sources of incoming edges
};

class Synopsis {
 public:
  // Builds the label-split synopsis: one node per distinct tag.
  // The document must be sealed and outlive the synopsis.
  static Synopsis LabelSplit(const xml::Document& doc);

  // Rebuilds a synopsis from an explicit element partition (element ->
  // synopsis node id, dense in [0, node_count)). Every node's extent must
  // be non-empty and tag-uniform; violations abort via XS_CHECK. Used by
  // persistence (core/serialize.h).
  static Synopsis FromPartition(const xml::Document& doc,
                                std::vector<SynNodeId> partition,
                                size_t node_count);

  // Copyable: XBUILD evaluates candidate refinements on copies.
  Synopsis(const Synopsis&) = default;
  Synopsis& operator=(const Synopsis&) = default;
  Synopsis(Synopsis&&) = default;
  Synopsis& operator=(Synopsis&&) = default;

  const xml::Document& doc() const { return *doc_; }

  size_t node_count() const { return nodes_.size(); }
  const SynNode& node(SynNodeId id) const { return nodes_[id]; }

  // Synopsis node holding a given element.
  SynNodeId NodeOf(xml::NodeId element) const { return partition_[element]; }
  const std::vector<xml::NodeId>& Extent(SynNodeId id) const {
    return extents_[id];
  }
  // The node containing the document root element.
  SynNodeId RootNode() const { return partition_[doc_->root()]; }

  // All synopsis nodes whose tag is `tag`.
  const std::vector<SynNodeId>& NodesWithTag(xml::TagId tag) const;

  // Outgoing edge u→v, or nullptr if absent.
  const SynEdge* FindEdge(SynNodeId u, SynNodeId v) const;

  // Splits node `v`: elements in `subset` move to a brand-new node (whose
  // id is returned); the rest stay in `v`. `subset` must be a non-empty
  // proper subset of Extent(v). Only the out-edges of `v`, the new node
  // and `v`'s parents can change, so only those are re-derived; the cost
  // follows their extents, not the document size.
  SynNodeId SplitNode(SynNodeId v, const std::vector<xml::NodeId>& subset);

  // Twig stable neighborhood of n (paper §3.2): all nodes that reach n via
  // a chain of B-stable edges (including n), plus nodes reached from those
  // via one F-stable edge. Backward count legality is defined over TSN.
  std::vector<SynNodeId> TwigStableNeighborhood(SynNodeId n) const;

  // Nearest ancestor element of `e` lying in synopsis node `a`, or
  // kInvalidNode.
  xml::NodeId NearestAncestorIn(xml::NodeId e, SynNodeId a) const;

  // Number of unstable (not B-stable or not F-stable) edges incident to n;
  // drives XBUILD's candidate sampling.
  int UnstableDegree(SynNodeId n) const;

  // Structure storage: 8 bytes per node + 16 bytes per edge.
  size_t StructureSizeBytes() const;

 private:
  Synopsis() = default;

  // Per-node scratch for DeriveOutEdges (defined in synopsis.cc).
  struct EdgeScratch;

  // Recomputes all edges, counts and stabilities from the partition.
  void RebuildEdges();
  // Recomputes u's out-edges and their child/parent counts from u's
  // extent, sorted by child. Leaves flags and parents lists to FinishEdges.
  void DeriveOutEdges(SynNodeId u, EdgeScratch* scratch);
  // Sets both stability flags on every edge and rebuilds every node's
  // sorted parents list: O(nodes + edges).
  void FinishEdges();
  void RebuildTagIndex();

  const xml::Document* doc_ = nullptr;
  std::vector<SynNode> nodes_;
  std::vector<SynNodeId> partition_;          // element -> node
  std::vector<std::vector<xml::NodeId>> extents_;
  std::vector<std::vector<SynNodeId>> by_tag_;
};

}  // namespace xsketch::core

#endif  // XSKETCH_CORE_SYNOPSIS_H_
