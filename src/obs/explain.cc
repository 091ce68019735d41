#include "obs/explain.h"

#include <algorithm>

#include "util/check.h"
#include "util/format.h"

namespace xsketch::obs {

namespace {

double Clamp01(double x) { return std::clamp(x, 0.0, 1.0); }

// Round-trippable decimal form for JSON (values must survive parsing
// bit-exactly, since the trace's whole point is exact reproduction).
std::string FormatExact(double v) {
  return util::FormatDecimal(v, std::chars_format::general, 17);
}

// Compact form for the human-readable tree.
std::string FormatShort(double v) {
  return util::FormatDecimal(v, std::chars_format::general, 6);
}

const char* OpName(ExplainOp op) {
  switch (op) {
    case ExplainOp::kLeaf: return "leaf";
    case ExplainOp::kSum: return "sum";
    case ExplainOp::kProduct: return "product";
    case ExplainOp::kExistential: return "existential";
    case ExplainOp::kOpaque: return "opaque";
  }
  return "unknown";
}

const char* OpSymbol(ExplainOp op) {
  switch (op) {
    case ExplainOp::kLeaf: return "";
    case ExplainOp::kSum: return " Σ";
    case ExplainOp::kProduct: return " Π";
    case ExplainOp::kExistential: return " ∃";
    case ExplainOp::kOpaque: return "";
  }
  return "";
}

double RecomputeNode(const ExplainNode& n) {
  switch (n.op) {
    case ExplainOp::kLeaf:
    case ExplainOp::kOpaque:
      return n.value;
    case ExplainOp::kSum: {
      double s = 0.0;
      for (const ExplainNode& c : n.children) s += RecomputeNode(c);
      return s;
    }
    case ExplainOp::kProduct: {
      double p = 1.0;
      for (const ExplainNode& c : n.children) {
        if (p == 0.0) break;  // mirrors the estimator's short-circuit
        p *= RecomputeNode(c);
      }
      return p;
    }
    case ExplainOp::kExistential: {
      // Mirrors Estimator::ChildTerm's branching-predicate combination.
      double prob_none = 1.0;
      for (const ExplainNode& c : n.children) {
        prob_none *= 1.0 - Clamp01(RecomputeNode(c));
      }
      return 1.0 - prob_none;
    }
  }
  return n.value;
}

void RenderText(const ExplainNode& n, int depth, std::string& out) {
  out.append(static_cast<size_t>(depth) * 2, ' ');
  out += n.kind;
  if (!n.label.empty()) {
    out.push_back(' ');
    out += n.label;
  }
  out += OpSymbol(n.op);
  if (n.buckets_read > 0) {
    out += " [" + std::to_string(n.buckets_read) + " buckets";
    if (n.conditioned_dims > 0) {
      out += ", D: conditioned on " + std::to_string(n.conditioned_dims) +
             " dim" + (n.conditioned_dims > 1 ? "s" : "");
    }
    out += "]";
  }
  out += " = " + FormatShort(n.value);
  out.push_back('\n');
  for (const ExplainNode& c : n.children) RenderText(c, depth + 1, out);
}

void RenderJson(const ExplainNode& n, std::string& out) {
  out += "{\"op\":\"";
  out += OpName(n.op);
  out += "\",\"kind\":";
  util::AppendJsonString(&out, n.kind);
  out += ",\"label\":";
  util::AppendJsonString(&out, n.label);
  if (n.twig_node >= 0) {
    out += ",\"twig_node\":" + std::to_string(n.twig_node);
  }
  out += ",\"value\":" + FormatExact(n.value);
  if (n.buckets_read > 0) {
    out += ",\"buckets\":" + std::to_string(n.buckets_read);
  }
  if (n.conditioned_dims > 0) {
    out += ",\"conditioned\":" + std::to_string(n.conditioned_dims);
  }
  if (!n.children.empty()) {
    out += ",\"children\":[";
    for (size_t i = 0; i < n.children.size(); ++i) {
      if (i > 0) out.push_back(',');
      RenderJson(n.children[i], out);
    }
    out += "]";
  }
  out += "}";
}

}  // namespace

const ExplainNode& ExplainTrace::root() const {
  XS_CHECK_MSG(!nodes_.empty(), "empty explain trace");
  return nodes_[0];
}

double ExplainTrace::estimate() const {
  return nodes_.empty() ? 0.0 : nodes_[0].value;
}

double ExplainTrace::Recompute() const {
  return nodes_.empty() ? 0.0 : RecomputeNode(nodes_[0]);
}

std::string ExplainTrace::ToText() const {
  if (nodes_.empty()) return "(empty trace)\n";
  std::string out;
  RenderText(nodes_[0], 0, out);
  return out;
}

std::string ExplainTrace::ToJson() const {
  if (nodes_.empty()) return "{}";
  std::string out;
  RenderJson(nodes_[0], out);
  return out;
}

void ExplainTrace::Clear() {
  nodes_.clear();
  open_.clear();
}

void ExplainTrace::Open(ExplainOp op, std::string kind, std::string label,
                        int twig_node) {
  ExplainNode node;
  node.op = op;
  node.kind = std::move(kind);
  node.label = std::move(label);
  node.twig_node = twig_node;
  if (open_.empty()) {
    XS_CHECK_MSG(nodes_.empty(), "explain trace has a single root");
    nodes_.push_back(std::move(node));
    open_.push_back(&nodes_[0]);
  } else {
    // Appending can reallocate the parent's children array, but that only
    // moves *closed* siblings; every node on open_ is an ancestor stored
    // in a vector we are not touching, so the stack pointers stay valid.
    std::vector<ExplainNode>& siblings = open_.back()->children;
    siblings.push_back(std::move(node));
    open_.push_back(&siblings.back());
  }
}

void ExplainTrace::Close(double value) {
  XS_CHECK_MSG(!open_.empty(), "Close without matching Open");
  open_.back()->value = value;
  open_.pop_back();
}

void ExplainTrace::Leaf(std::string kind, std::string label, double value,
                        int twig_node) {
  Open(ExplainOp::kLeaf, std::move(kind), std::move(label), twig_node);
  Close(value);
}

void ExplainTrace::AnnotateBuckets(int buckets_read) {
  XS_CHECK_MSG(!open_.empty(), "AnnotateBuckets without an open node");
  open_.back()->buckets_read = buckets_read;
}

void ExplainTrace::AnnotateConditioned(int dims) {
  XS_CHECK_MSG(!open_.empty(), "AnnotateConditioned without an open node");
  open_.back()->conditioned_dims = dims;
}

}  // namespace xsketch::obs
