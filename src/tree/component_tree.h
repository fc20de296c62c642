// Truss-component tree (Algorithm 4 / §III-C of the paper).
//
// Every non-anchored edge belongs to exactly one tree node; all edges in a
// node share one trussness K, and the subgraph induced by the edges in the
// subtree rooted at a node is a K-truss component (a maximal
// triangle-connected K-truss). Nodes carry the paper's TN.I identifier — the
// smallest edge id in TN.E — so a node whose edge set is unchanged across
// anchor commits keeps its id.
//
// The paper keys GAS's cross-round reuse by tree node; this repository's
// GAS reuses per candidate instead (core/gas.h) and builds no tree. The
// tree stays as Algorithm 4 itself: perfbench's per-layer probe
// (tree.build_ms), bench_micro_kernels and component_tree_test build it.
//
// Construction scans a full-graph TriangleIndex (graph/triangle_index.h),
// visiting each triangle once from its smallest edge id, and buckets it at
// kmin = min trussness of its edges (anchored edges count as +inf, so an
// anchor-mediated triangle connects its two non-anchored edges — anchors are
// members of every truss level), then sweeps levels from k_max downward
// with a union-find dendrogram: unions at level k merge the classes'
// previous top nodes as children of the level-k node. The index depends on
// the topology only, so a caller that rebuilds the tree after each commit
// can build it once and pass it to every rebuild: O((m + #triangles) α)
// per rebuild, with no oriented adjacency rebuilt or re-intersected.
//
// The bucketing is parallel: a count, prefix-sum and fill pass over
// ParallelForChunked edge chunks writes every level's triangle pairs into
// one flat array, in the order a serial sweep over edge ids produces. The
// union-find sweep is serial. The tree — node order, ids, parents, the
// order of every node's children and edges — is therefore the same at
// every thread count.
//
// Trussness-2 edges participate in no triangle and form singleton nodes.

#ifndef ATR_TREE_COMPONENT_TREE_H_
#define ATR_TREE_COMPONENT_TREE_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "graph/triangle_index.h"
#include "truss/decomposition.h"

namespace atr {

// Node-id sentinel for anchored edges (they belong to no node).
inline constexpr uint32_t kNoTreeNode = 0xffffffffu;

struct TrussTreeNode {
  // Trussness level K shared by all edges in this node.
  uint32_t k = 0;
  // TN.I: smallest edge id in `edges`.
  uint32_t id = 0;
  // Index of the parent node, or -1 for top-level nodes.
  int32_t parent = -1;
  std::vector<int32_t> children;
  // TN.E, ascending edge ids.
  std::vector<EdgeId> edges;
};

class TrussComponentTree {
 public:
  TrussComponentTree() = default;

  // (Re)builds the tree. `triangles` must be BuildTriangleIndex(g).
  // `anchored` may be empty. `decomp` must belong to the same anchor state.
  void Build(const Graph& g, const TriangleIndex& triangles,
             const TrussDecomposition& decomp,
             const std::vector<bool>& anchored);

  // As above, building the index first.
  void Build(const Graph& g, const TrussDecomposition& decomp,
             const std::vector<bool>& anchored);

  const std::vector<TrussTreeNode>& nodes() const { return nodes_; }

  // Index into nodes() of the node containing `e`; kNoTreeNode for anchors.
  uint32_t NodeIndexOf(EdgeId e) const { return edge_node_index_[e]; }

  // TN.I of the node containing `e`; kNoTreeNode for anchors.
  uint32_t NodeIdOf(EdgeId e) const {
    const uint32_t idx = edge_node_index_[e];
    return idx == kNoTreeNode ? kNoTreeNode : nodes_[idx].id;
  }

  // All edges in the subtree rooted at `node_index` (the K-truss component
  // of that node).
  std::vector<EdgeId> SubtreeEdges(uint32_t node_index) const;

  // Structural self-checks (used by tests): partition of non-anchored
  // edges, per-node uniform trussness, child K > parent K, id == min edge.
  // Aborts on violation.
  void CheckInvariants(const Graph& g, const TrussDecomposition& decomp,
                       const std::vector<bool>& anchored) const;

 private:
  std::vector<TrussTreeNode> nodes_;
  std::vector<uint32_t> edge_node_index_;  // EdgeId -> node index
};

}  // namespace atr

#endif  // ATR_TREE_COMPONENT_TREE_H_
