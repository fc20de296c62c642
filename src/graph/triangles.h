// Triangle enumeration and per-edge support computation.
//
// Two access patterns are provided:
//  * ForEachTriangle enumerates every triangle of the graph exactly once
//    with the degree-ordered "forward" algorithm (O(m^1.5) on bounded
//    arboricity inputs) over a FlatGraphView's oriented half-edges. It is
//    the one whole-graph sweep: support counts, triangle counts, the serial
//    oracle's first support count and every TriangleIndex build
//    (graph/triangle_index.h) run it.
//  * ForEachTriangleOfEdge enumerates the triangles containing one specific
//    edge in O(min(d(u), d(v)) * log max(d(u), d(v))) straight from the
//    CSR, with no prebuilt structure: the serial oracle peel, AKT, and
//    incremental maintenance engines given no index query it edge by
//    edge. Callers that walk the triangles of many edges against one
//    topology (the follower search, the greedy solvers and their commits,
//    the component tree) read a TriangleIndex instead and scan its
//    per-edge lists.

#ifndef ATR_GRAPH_TRIANGLES_H_
#define ATR_GRAPH_TRIANGLES_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "graph/flat_view.h"
#include "graph/graph.h"

namespace atr {

// A triangle reported as its three edge ids.
struct TriangleEdges {
  EdgeId e1;
  EdgeId e2;
  EdgeId e3;
};

// Calls `fn(TriangleEdges{e_uv, e_uw, e_vw})` once per triangle of the
// view's graph, where u -> v, u -> w and v -> w are the view's oriented
// half-edges. The order is deterministic: ascending u, then u's
// out-neighbors v and the closing vertices w, each in ascending id order.
template <typename Fn>
void ForEachTriangle(const FlatGraphView& view, Fn&& fn) {
  for (VertexId u = 0; u < view.num_vertices; ++u) {
    const std::span<const uint64_t> ou = view.OrientedOf(u);
    for (const uint64_t hv : ou) {
      // Two-pointer intersection of out(u) and out(v): every common
      // out-neighbor w closes triangle (u, v, w) exactly once, since the
      // orientation is acyclic.
      const std::span<const uint64_t> ov = view.OrientedOf(FlatHi(hv));
      size_t i = 0;
      size_t j = 0;
      while (i < ou.size() && j < ov.size()) {
        const uint32_t wa = FlatHi(ou[i]);
        const uint32_t wb = FlatHi(ov[j]);
        if (wa < wb) {
          ++i;
        } else if (wb < wa) {
          ++j;
        } else {
          fn(TriangleEdges{FlatLo(hv), FlatLo(ou[i]), FlatLo(ov[j])});
          ++i;
          ++j;
        }
      }
    }
  }
}

// Calls `fn(w, ew_u, ew_v)` for every common neighbor `w` of the endpoints
// (u, v) of edge `e`, where ew_u = edge {u, w} and ew_v = edge {v, w}.
template <typename Fn>
void ForEachTriangleOfEdge(const Graph& g, EdgeId e, Fn&& fn) {
  const EdgeEndpoints ends = g.Edge(e);
  VertexId a = ends.u;
  VertexId b = ends.v;
  if (g.Degree(a) > g.Degree(b)) std::swap(a, b);
  for (const AdjEntry& entry : g.Neighbors(a)) {
    if (entry.neighbor == b) continue;
    const EdgeId other = g.FindEdge(b, entry.neighbor);
    if (other == kInvalidEdge) continue;
    // entry.edge connects a-w; `other` connects b-w. Report in (u, v) order.
    if (a == ends.u) {
      fn(entry.neighbor, entry.edge, other);
    } else {
      fn(entry.neighbor, other, entry.edge);
    }
  }
}

// Support of every edge, counted with one ForEachTriangle sweep. With a
// non-empty `within` (one flag per edge), only triangles whose three edges
// are all set count, so every edge outside it reports 0.
std::vector<uint32_t> ComputeSupport(const Graph& g,
                                     const std::vector<bool>& within = {});

// Total number of triangles in the graph.
uint64_t CountTriangles(const Graph& g);

}  // namespace atr

#endif  // ATR_GRAPH_TRIANGLES_H_
