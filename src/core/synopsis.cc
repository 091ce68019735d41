#include "core/synopsis.h"

#include <algorithm>
#include <unordered_set>

#include "util/check.h"

namespace xsketch::core {

Synopsis Synopsis::LabelSplit(const xml::Document& doc) {
  XS_CHECK_MSG(doc.sealed(), "synopsis requires a sealed document");
  Synopsis s;
  s.doc_ = &doc;
  s.partition_.resize(doc.size());
  s.nodes_.resize(doc.tag_count());
  s.extents_.resize(doc.tag_count());
  for (size_t tag = 0; tag < doc.tag_count(); ++tag) {
    s.nodes_[tag].tag = static_cast<xml::TagId>(tag);
  }
  for (xml::NodeId e = 0; e < doc.size(); ++e) {
    const xml::TagId tag = doc.tag(e);
    s.partition_[e] = tag;
    s.extents_[tag].push_back(e);
  }
  for (size_t n = 0; n < s.nodes_.size(); ++n) {
    s.nodes_[n].count = s.extents_[n].size();
  }
  s.RebuildEdges();
  s.RebuildTagIndex();
  return s;
}

Synopsis Synopsis::FromPartition(const xml::Document& doc,
                                 std::vector<SynNodeId> partition,
                                 size_t node_count) {
  XS_CHECK_MSG(doc.sealed(), "synopsis requires a sealed document");
  XS_CHECK(partition.size() == doc.size());
  Synopsis s;
  s.doc_ = &doc;
  s.partition_ = std::move(partition);
  s.nodes_.resize(node_count);
  s.extents_.resize(node_count);
  for (xml::NodeId e = 0; e < doc.size(); ++e) {
    const SynNodeId n = s.partition_[e];
    XS_CHECK_MSG(n < node_count, "partition id out of range");
    if (s.extents_[n].empty()) {
      s.nodes_[n].tag = doc.tag(e);
    } else {
      XS_CHECK_MSG(s.nodes_[n].tag == doc.tag(e),
                   "partition mixes tags within one node");
    }
    s.extents_[n].push_back(e);
  }
  for (size_t n = 0; n < node_count; ++n) {
    XS_CHECK_MSG(!s.extents_[n].empty(), "empty synopsis node in partition");
    s.nodes_[n].count = s.extents_[n].size();
  }
  s.RebuildEdges();
  s.RebuildTagIndex();
  return s;
}

// Flat per-node arrays indexed by the child node: the slot of its edge in
// the out-edge list being derived (kNoSlot when absent) and the last parent
// element counted for that edge. Every slot is kNoSlot between derivations.
struct Synopsis::EdgeScratch {
  static constexpr uint32_t kNoSlot = 0xFFFFFFFFu;

  explicit EdgeScratch(size_t node_count)
      : slot(node_count, kNoSlot), last_parent(node_count) {}

  std::vector<uint32_t> slot;
  std::vector<xml::NodeId> last_parent;
};

void Synopsis::RebuildEdges() {
  EdgeScratch scratch(nodes_.size());
  for (SynNodeId u = 0; u < nodes_.size(); ++u) DeriveOutEdges(u, &scratch);
  FinishEdges();
}

void Synopsis::DeriveOutEdges(SynNodeId u, EdgeScratch* scratch) {
  std::vector<SynEdge>& out = nodes_[u].children;
  out.clear();
  const xml::Document& doc = *doc_;
  for (xml::NodeId p : extents_[u]) {
    doc.ForEachChild(p, [&](xml::NodeId c) {
      const SynNodeId v = partition_[c];
      uint32_t& slot = scratch->slot[v];
      if (slot == EdgeScratch::kNoSlot) {
        slot = static_cast<uint32_t>(out.size());
        out.push_back(SynEdge{.child = v});
        scratch->last_parent[v] = xml::kInvalidNode;
      }
      SynEdge& edge = out[slot];
      ++edge.child_count;
      // Children of one parent are visited together, so a changed stamp
      // means a new distinct parent for this edge.
      if (scratch->last_parent[v] != p) {
        scratch->last_parent[v] = p;
        ++edge.parent_count;
      }
    });
  }
  for (const SynEdge& edge : out) {
    scratch->slot[edge.child] = EdgeScratch::kNoSlot;
  }
  // Deterministic order helps reproducibility.
  std::sort(out.begin(), out.end(), [](const SynEdge& a, const SynEdge& b) {
    return a.child < b.child;
  });
}

void Synopsis::FinishEdges() {
  for (SynNode& n : nodes_) n.parents.clear();
  // Ascending u keeps every parents list sorted.
  for (SynNodeId u = 0; u < nodes_.size(); ++u) {
    for (SynEdge& edge : nodes_[u].children) {
      edge.backward_stable = (edge.child_count == nodes_[edge.child].count);
      edge.forward_stable = (edge.parent_count == nodes_[u].count);
      nodes_[edge.child].parents.push_back(u);
    }
  }
}

void Synopsis::RebuildTagIndex() {
  by_tag_.assign(doc_->tag_count(), {});
  for (SynNodeId n = 0; n < nodes_.size(); ++n) {
    if (nodes_[n].count > 0) by_tag_[nodes_[n].tag].push_back(n);
  }
}

const std::vector<SynNodeId>& Synopsis::NodesWithTag(xml::TagId tag) const {
  static const std::vector<SynNodeId> kEmpty;
  if (tag >= by_tag_.size()) return kEmpty;
  return by_tag_[tag];
}

const SynEdge* Synopsis::FindEdge(SynNodeId u, SynNodeId v) const {
  for (const SynEdge& e : nodes_[u].children) {
    if (e.child == v) return &e;
  }
  return nullptr;
}

SynNodeId Synopsis::SplitNode(SynNodeId v,
                              const std::vector<xml::NodeId>& subset) {
  XS_CHECK(!subset.empty());
  XS_CHECK(subset.size() < extents_[v].size());
  // Moving elements out of v changes the out-edges of v, of the fresh node
  // and of every node with a child in v (its edge to v may now point to
  // either half). Every other node keeps its extent and its children's
  // nodes, so its edges stay as they are. When v is its own parent it is
  // already on the list.
  std::vector<SynNodeId> dirty = nodes_[v].parents;
  if (!std::binary_search(dirty.begin(), dirty.end(), v)) dirty.push_back(v);
  const SynNodeId fresh = static_cast<SynNodeId>(nodes_.size());
  dirty.push_back(fresh);
  SynNode nn;
  nn.tag = nodes_[v].tag;
  nodes_.push_back(nn);
  extents_.emplace_back();

  for (xml::NodeId e : subset) {
    XS_CHECK_MSG(partition_[e] == v, "split subset not within node");
    partition_[e] = fresh;
  }
  // Re-derive both extents from the partition.
  std::vector<xml::NodeId> remaining;
  remaining.reserve(extents_[v].size() - subset.size());
  for (xml::NodeId e : extents_[v]) {
    if (partition_[e] == v) remaining.push_back(e);
  }
  extents_[fresh] = subset;
  std::sort(extents_[fresh].begin(), extents_[fresh].end());
  extents_[v] = std::move(remaining);
  nodes_[v].count = extents_[v].size();
  nodes_[fresh].count = extents_[fresh].size();

  EdgeScratch scratch(nodes_.size());
  for (SynNodeId u : dirty) DeriveOutEdges(u, &scratch);
  FinishEdges();
  by_tag_[nodes_[fresh].tag].push_back(fresh);  // the largest id goes last
  return fresh;
}

std::vector<SynNodeId> Synopsis::TwigStableNeighborhood(SynNodeId n) const {
  std::vector<SynNodeId> result;
  std::unordered_set<SynNodeId> visited;
  // Backward closure over B-stable incoming edges.
  std::vector<SynNodeId> stack{n};
  visited.insert(n);
  while (!stack.empty()) {
    SynNodeId cur = stack.back();
    stack.pop_back();
    result.push_back(cur);
    for (SynNodeId p : nodes_[cur].parents) {
      const SynEdge* e = FindEdge(p, cur);
      if (e != nullptr && e->backward_stable && visited.insert(p).second) {
        stack.push_back(p);
      }
    }
  }
  // One F-stable hop from any node in the backward closure.
  const size_t backward_size = result.size();
  for (size_t i = 0; i < backward_size; ++i) {
    for (const SynEdge& e : nodes_[result[i]].children) {
      if (e.forward_stable && visited.insert(e.child).second) {
        result.push_back(e.child);
      }
    }
  }
  return result;
}

xml::NodeId Synopsis::NearestAncestorIn(xml::NodeId e, SynNodeId a) const {
  for (xml::NodeId cur = doc_->parent(e); cur != xml::kInvalidNode;
       cur = doc_->parent(cur)) {
    if (partition_[cur] == a) return cur;
  }
  return xml::kInvalidNode;
}

int Synopsis::UnstableDegree(SynNodeId n) const {
  int unstable = 0;
  for (const SynEdge& e : nodes_[n].children) {
    if (!e.backward_stable || !e.forward_stable) ++unstable;
  }
  for (SynNodeId p : nodes_[n].parents) {
    const SynEdge* e = FindEdge(p, n);
    if (e != nullptr && (!e->backward_stable || !e->forward_stable)) {
      ++unstable;
    }
  }
  return unstable;
}

size_t Synopsis::StructureSizeBytes() const {
  size_t edges = 0;
  for (const SynNode& n : nodes_) edges += n.children.size();
  return nodes_.size() * 8 + edges * 16;
}

}  // namespace xsketch::core
