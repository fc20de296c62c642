#include "tree/component_tree.h"

#include <algorithm>
#include <numeric>
#include <unordered_map>

#include "util/macros.h"

namespace atr {
namespace {

// Union-find over edge ids with per-root pending-child node lists.
class EdgeUnionFind {
 public:
  explicit EdgeUnionFind(uint32_t m) : parent_(m), size_(m, 1), pending_(m) {
    std::iota(parent_.begin(), parent_.end(), 0u);
  }

  uint32_t Find(uint32_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }

  // Unions the classes of a and b; pending child lists are merged
  // small-to-large. Returns the surviving root.
  uint32_t Union(uint32_t a, uint32_t b) {
    uint32_t ra = Find(a);
    uint32_t rb = Find(b);
    if (ra == rb) return ra;
    if (size_[ra] < size_[rb]) std::swap(ra, rb);
    parent_[rb] = ra;
    size_[ra] += size_[rb];
    if (!pending_[rb].empty()) {
      if (pending_[ra].size() < pending_[rb].size()) {
        pending_[ra].swap(pending_[rb]);
      }
      pending_[ra].insert(pending_[ra].end(), pending_[rb].begin(),
                          pending_[rb].end());
      pending_[rb].clear();
      pending_[rb].shrink_to_fit();
    }
    return ra;
  }

  std::vector<int32_t>& Pending(uint32_t root) { return pending_[root]; }

 private:
  std::vector<uint32_t> parent_;
  std::vector<uint32_t> size_;
  std::vector<std::vector<int32_t>> pending_;
};

}  // namespace

void TrussComponentTree::Build(const Graph& g,
                               const TrussDecomposition& decomp,
                               const std::vector<bool>& anchored) {
  Build(g, BuildTriangleIndex(g), decomp, anchored);
}

void TrussComponentTree::Build(const Graph& g, const TriangleIndex& triangles,
                               const TrussDecomposition& decomp,
                               const std::vector<bool>& anchored) {
  const uint32_t m = g.NumEdges();
  ATR_CHECK(decomp.trussness.size() == m);
  ATR_CHECK(triangles.NumEdges() == m);
  nodes_.clear();
  edge_node_index_.assign(m, kNoTreeNode);
  edge_node_ids_.assign(m, kNoTreeNode);

  const bool has_anchors = !anchored.empty();
  auto is_anchored = [&](EdgeId e) { return has_anchors && anchored[e]; };

  // Bucket triangles by connection level: the min trussness among their
  // non-anchored edges (anchors belong to every truss level). Anchored
  // edges join the unions too — two triangles sharing only an anchored edge
  // are triangle-connected through it, so anchors act as bridges even
  // though they belong to no node themselves.
  const uint32_t kmax = decomp.max_trussness;
  std::vector<std::vector<std::pair<EdgeId, EdgeId>>> tri_buckets(kmax + 1);
  for (EdgeId e = 0; e < m; ++e) {
    triangles.ForEachTriangleOf(e, [&](EdgeId e1, EdgeId e2) {
      if (e1 < e || e2 < e) return;  // visit from the smallest edge only
      uint32_t kmin = kAnchoredTrussness;
      for (EdgeId t : {e, e1, e2}) {
        if (!is_anchored(t)) kmin = std::min(kmin, decomp.trussness[t]);
      }
      // All-anchor triangles exist at every level; kmax is the highest
      // level where their bridging can matter.
      if (kmin == kAnchoredTrussness) kmin = kmax;
      if (kmin < 3) return;  // no nodes below level 3 can be connected
      ATR_DCHECK(kmin <= kmax);
      tri_buckets[kmin].emplace_back(e, e1);
      tri_buckets[kmin].emplace_back(e, e2);
    });
  }

  // Per-level edge lists (ascending edge id within a level by construction).
  // Edges outside the decomposition's subset (trussness
  // kTrussnessNotComputed, e.g. removed by an incremental session) belong
  // to no node, like anchors; any triangle touching one was already dropped
  // above because its kmin is 0.
  std::vector<std::vector<EdgeId>> hull(kmax + 1);
  for (EdgeId e = 0; e < m; ++e) {
    if (is_anchored(e)) continue;
    const uint32_t t = decomp.trussness[e];
    if (t == kTrussnessNotComputed) continue;
    ATR_DCHECK(t >= 2 && t <= kmax);
    hull[t].push_back(e);
  }

  EdgeUnionFind uf(m);
  std::unordered_map<uint32_t, int32_t> level_nodes;  // UF root -> node index
  for (uint32_t k = kmax; k >= 3; --k) {
    for (const auto& [a, b] : tri_buckets[k]) uf.Union(a, b);
    if (hull[k].empty()) continue;
    level_nodes.clear();
    for (EdgeId e : hull[k]) {
      const uint32_t root = uf.Find(e);
      auto [it, inserted] =
          level_nodes.emplace(root, static_cast<int32_t>(nodes_.size()));
      if (inserted) {
        TrussTreeNode node;
        node.k = k;
        // Adopt the classes' previous top nodes as children.
        node.children = std::move(uf.Pending(root));
        nodes_.push_back(std::move(node));
      }
      nodes_[it->second].edges.push_back(e);
    }
    for (const auto& [root, node_index] : level_nodes) {
      TrussTreeNode& node = nodes_[node_index];
      node.id = node.edges.front();  // ascending push order
      for (int32_t child : node.children) nodes_[child].parent = node_index;
      std::vector<int32_t>& pending = uf.Pending(root);
      pending.clear();
      pending.push_back(node_index);
    }
  }

  // Trussness-2 edges: no triangles, one singleton node each.
  for (EdgeId e : hull[2]) {
    TrussTreeNode node;
    node.k = 2;
    node.id = e;
    node.edges.push_back(e);
    nodes_.push_back(std::move(node));
  }

  for (uint32_t idx = 0; idx < nodes_.size(); ++idx) {
    for (EdgeId e : nodes_[idx].edges) {
      edge_node_index_[e] = idx;
      edge_node_ids_[e] = nodes_[idx].id;
    }
  }
}

std::vector<EdgeId> TrussComponentTree::SubtreeEdges(
    uint32_t node_index) const {
  ATR_CHECK(node_index < nodes_.size());
  std::vector<EdgeId> out;
  std::vector<uint32_t> stack = {node_index};
  while (!stack.empty()) {
    const uint32_t idx = stack.back();
    stack.pop_back();
    const TrussTreeNode& node = nodes_[idx];
    out.insert(out.end(), node.edges.begin(), node.edges.end());
    for (int32_t child : node.children) {
      stack.push_back(static_cast<uint32_t>(child));
    }
  }
  return out;
}

void TrussComponentTree::CheckInvariants(
    const Graph& g, const TrussDecomposition& decomp,
    const std::vector<bool>& anchored) const {
  const uint32_t m = g.NumEdges();
  const bool has_anchors = !anchored.empty();
  std::vector<uint32_t> seen(m, 0);
  for (uint32_t idx = 0; idx < nodes_.size(); ++idx) {
    const TrussTreeNode& node = nodes_[idx];
    ATR_CHECK(!node.edges.empty());
    EdgeId min_edge = node.edges.front();
    for (EdgeId e : node.edges) {
      ATR_CHECK(decomp.trussness[e] == node.k);
      ATR_CHECK(edge_node_index_[e] == idx);
      min_edge = std::min(min_edge, e);
      ++seen[e];
    }
    ATR_CHECK(node.id == min_edge);
    if (node.parent >= 0) {
      const TrussTreeNode& parent = nodes_[node.parent];
      ATR_CHECK(parent.k < node.k);
      ATR_CHECK(std::find(parent.children.begin(), parent.children.end(),
                          static_cast<int32_t>(idx)) != parent.children.end());
    }
    for (int32_t child : node.children) {
      ATR_CHECK(nodes_[child].parent == static_cast<int32_t>(idx));
    }
  }
  for (EdgeId e = 0; e < m; ++e) {
    const bool nodeless =
        (has_anchors && anchored[e]) ||
        decomp.trussness[e] == kTrussnessNotComputed;
    ATR_CHECK(seen[e] == (nodeless ? 0u : 1u));
    if (nodeless) ATR_CHECK(edge_node_index_[e] == kNoTreeNode);
  }
}

}  // namespace atr
