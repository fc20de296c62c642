#include "tree/component_tree.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "util/macros.h"
#include "util/parallel_for.h"

namespace atr {
namespace {

// Union-find over edge ids. Each root also holds its class's pending
// list: the top nodes of the classes merged into it since it last got a
// node, which become that next node's children. The lists are linked
// through node indices, so a union concatenates two of them in O(1) with
// no allocation.
class EdgeUnionFind {
 public:
  // Every node holds at least one edge, so node indices stay below m.
  explicit EdgeUnionFind(uint32_t m)
      : parent_(m),
        size_(m, 1),
        head_(m, kEnd),
        tail_(m, kEnd),
        count_(m, 0),
        next_(m, kEnd) {
    std::iota(parent_.begin(), parent_.end(), 0u);
  }

  uint32_t Find(uint32_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }

  // Unions the classes of a and b. The merged pending list is the longer
  // one followed by the shorter (the surviving root's first on a tie).
  void Union(uint32_t a, uint32_t b) {
    uint32_t ra = Find(a);
    uint32_t rb = Find(b);
    if (ra == rb) return;
    if (size_[ra] < size_[rb]) std::swap(ra, rb);
    parent_[rb] = ra;
    size_[ra] += size_[rb];
    if (count_[rb] == 0) return;
    if (count_[ra] < count_[rb]) {
      std::swap(head_[ra], head_[rb]);
      std::swap(tail_[ra], tail_[rb]);
      std::swap(count_[ra], count_[rb]);
    }
    if (count_[rb] == 0) return;
    next_[tail_[ra]] = head_[rb];
    tail_[ra] = tail_[rb];
    count_[ra] += count_[rb];
    head_[rb] = tail_[rb] = kEnd;
    count_[rb] = 0;
  }

  // Moves `root`'s pending list into `children` (in list order) and leaves
  // `node` as the only pending entry.
  void TakePending(uint32_t root, int32_t node,
                   std::vector<int32_t>* children) {
    children->reserve(count_[root]);
    for (int32_t c = head_[root]; c != kEnd; c = next_[c]) {
      children->push_back(c);
    }
    head_[root] = tail_[root] = node;
    count_[root] = 1;
    next_[node] = kEnd;
  }

 private:
  static constexpr int32_t kEnd = -1;

  std::vector<uint32_t> parent_;
  std::vector<uint32_t> size_;
  std::vector<int32_t> head_;
  std::vector<int32_t> tail_;
  std::vector<uint32_t> count_;
  std::vector<int32_t> next_;  // node index -> next in its pending list
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

  const bool has_anchors = !anchored.empty();
  auto is_anchored = [&](EdgeId e) { return has_anchors && anchored[e]; };

  // Connection level of triangle {e, e1, e2}: the min trussness among its
  // non-anchored edges (anchors belong to every truss level), or 0 when
  // the triangle connects nothing. Anchored edges join the unions too —
  // two triangles sharing only an anchored edge are triangle-connected
  // through it, so anchors act as bridges even though they belong to no
  // node themselves.
  const uint32_t kmax = decomp.max_trussness;
  auto level_of = [&](EdgeId e, EdgeId e1, EdgeId e2) -> uint32_t {
    uint32_t kmin = kAnchoredTrussness;
    for (EdgeId t : {e, e1, e2}) {
      if (!is_anchored(t)) kmin = std::min(kmin, decomp.trussness[t]);
    }
    // All-anchor triangles exist at every level; kmax is the highest
    // level where their bridging can matter.
    if (kmin == kAnchoredTrussness) kmin = kmax;
    if (kmin < 3) return 0;  // no nodes below level 3 can be connected
    ATR_DCHECK(kmin <= kmax);
    return kmin;
  };

  // Every triangle, visited once from its smallest edge id, contributes
  // the pairs (e, e1) and (e, e2) to its level. All levels' pairs share
  // one flat array, filled by count, prefix sum and fill over the same
  // edge chunks: within a level, chunk c writes right after chunks < c, so
  // the array holds exactly the serial sweep's order and the unions below
  // (and with them every node's children order) do not depend on the
  // thread count. Each chunk writes disjoint slots through its own cursors.
  const int chunks = ParallelChunkCount(m);
  const size_t levels = static_cast<size_t>(kmax) + 1;  // kmax >= 2
  std::vector<uint64_t> cursors(static_cast<size_t>(chunks) * levels, 0);
  std::vector<std::pair<EdgeId, EdgeId>> level_pairs;
  auto sweep_chunks = [&](bool fill) {
    ParallelForChunked(m, [&](int chunk, int64_t begin, int64_t end) {
      uint64_t* cursor = cursors.data() + static_cast<size_t>(chunk) * levels;
      for (EdgeId e = static_cast<EdgeId>(begin); e < end; ++e) {
        triangles.ForEachTriangleOf(e, [&](EdgeId e1, EdgeId e2) {
          if (e1 < e || e2 < e) return;
          const uint32_t k = level_of(e, e1, e2);
          if (k == 0) return;
          if (fill) {
            level_pairs[cursor[k]] = {e, e1};
            level_pairs[cursor[k] + 1] = {e, e2};
          }
          cursor[k] += 2;
        });
      }
    });
  };
  sweep_chunks(/*fill=*/false);
  // Counts become start cursors; level_begin[k]..level_begin[k + 1] is
  // level k's slice.
  std::vector<uint64_t> level_begin(levels + 1, 0);
  for (size_t k = 0; k < levels; ++k) {
    level_begin[k + 1] = level_begin[k];
    for (int c = 0; c < chunks; ++c) {
      uint64_t& cursor = cursors[static_cast<size_t>(c) * levels + k];
      const uint64_t count = cursor;
      cursor = level_begin[k + 1];
      level_begin[k + 1] += count;
    }
  }
  level_pairs.resize(level_begin[levels]);
  sweep_chunks(/*fill=*/true);

  // Per-level edge lists (ascending edge id within a level by
  // construction). Edges outside the decomposition's subset (trussness
  // kTrussnessNotComputed, e.g. removed from an IncrementalTruss) belong
  // to no node, like anchors; any triangle touching one was already
  // dropped above because its kmin is 0.
  std::vector<std::vector<EdgeId>> hull(levels);
  for (EdgeId e = 0; e < m; ++e) {
    if (is_anchored(e)) continue;
    const uint32_t t = decomp.trussness[e];
    if (t == kTrussnessNotComputed) continue;
    ATR_DCHECK(t >= 2 && t <= kmax);
    hull[t].push_back(e);
  }

  // Sweep levels from kmax down: unions at level k merge the classes'
  // previous top nodes as children of the level-k node. root_node[r] is
  // the level-k node of union-find root r when root_level[r] == k (levels
  // are never reused, so no per-level reset is needed).
  EdgeUnionFind uf(m);
  std::vector<uint32_t> root_level(m, 0);
  std::vector<int32_t> root_node(m, -1);
  for (uint32_t k = kmax; k >= 3; --k) {
    for (uint64_t i = level_begin[k]; i < level_begin[k + 1]; ++i) {
      uf.Union(level_pairs[i].first, level_pairs[i].second);
    }
    for (const EdgeId e : hull[k]) {
      const uint32_t root = uf.Find(e);
      if (root_level[root] != k) {
        const auto node_index = static_cast<int32_t>(nodes_.size());
        root_level[root] = k;
        root_node[root] = node_index;
        TrussTreeNode& node = nodes_.emplace_back();
        node.k = k;
        node.id = e;  // the class's smallest edge comes first: its TN.I
        uf.TakePending(root, node_index, &node.children);
        for (int32_t child : node.children) nodes_[child].parent = node_index;
      }
      nodes_[root_node[root]].edges.push_back(e);
    }
  }

  // Trussness-2 edges: no triangles, one singleton node each.
  for (const EdgeId e : hull[2]) {
    TrussTreeNode& node = nodes_.emplace_back();
    node.k = 2;
    node.id = e;
    node.edges.push_back(e);
  }

  for (uint32_t idx = 0; idx < nodes_.size(); ++idx) {
    for (EdgeId e : nodes_[idx].edges) edge_node_index_[e] = idx;
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
