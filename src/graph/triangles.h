// Triangle enumeration and per-edge support computation.
//
// Two access patterns are provided:
//  * ForEachTriangle enumerates every triangle of the graph exactly once
//    using the degree-ordered "forward" algorithm (O(m^1.5) on bounded
//    arboricity inputs). Used for support computation and for building the
//    truss-component tree.
//  * ForEachTriangleOfEdge enumerates the triangles containing one specific
//    edge in O(min(d(u), d(v)) * log max(d(u), d(v))) straight from the
//    CSR, with no prebuilt structure: the serial oracle peel, incremental
//    maintenance and AKT query it edge by edge. Callers that walk the
//    triangles of many edges against one topology (the follower search,
//    GAS, the component tree) build a TriangleIndex once instead
//    (graph/triangle_index.h) and scan its per-edge lists.

#ifndef ATR_GRAPH_TRIANGLES_H_
#define ATR_GRAPH_TRIANGLES_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"

namespace atr {

// A triangle reported as its three edge ids plus the apex vertex that
// completes the queried/iterated edge.
struct TriangleEdges {
  EdgeId e1;
  EdgeId e2;
  EdgeId e3;
};

// Calls `fn(TriangleEdges)` once per triangle in the graph. Edge order
// within the callback is unspecified but deterministic.
template <typename Fn>
void ForEachTriangle(const Graph& g, Fn&& fn);

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

// Cost model of the adaptive triangle kernels: the binary-search walk is
// chosen when  dmin * (bit_width(dmax) + 1) <= cutoff * (d(u) + d(v)).
// kDefaultTriangleCutoff = 1.0 weighs a walk probe equal to a merge step;
// override per process with the ATR_TRIANGLE_CUTOFF env var (a double: 0
// forces the merge everywhere, a large value forces the walk). Both paths
// report the same triangles in the same ascending-common-neighbor order,
// so the cutoff is tunable without affecting any result — the cutoff-sweep
// differential test in tests/graph_test.cc pins that down.
inline constexpr double kDefaultTriangleCutoff = 1.0;

namespace internal {

// The effective walk-vs-merge cutoff factor: ATR_TRIANGLE_CUTOFF if set
// (read once per process), else kDefaultTriangleCutoff, unless overridden
// by the test hook below.
double TriangleCutoff();

// Overrides the cutoff factor (for cutoff-sweep tests). Returns the
// previous value.
double SetTriangleCutoffForTest(double cutoff);

}  // namespace internal

// Adaptive variant of ForEachTriangleOfEdge: per edge, picks the cheaper
// of the sorted-merge intersection (O(d(u) + d(v))) and the binary-search
// walk (O(min d · log max d)) — merge wins on comparable degrees, the walk
// on hub edges; internal::TriangleCutoff() weighs the two cost models.
// Same callback contract and the same ascending-common-neighbor order.
// This is the kernel of the parallel support init and the parallel peel's
// frontier rounds, where each edge is queried independently from CSR and
// per-edge cost dominates.
template <typename Fn>
void ForEachTriangleOfEdgeAdaptive(const Graph& g, EdgeId e, Fn&& fn) {
  const EdgeEndpoints ends = g.Edge(e);
  const std::span<const AdjEntry> nu = g.Neighbors(ends.u);
  const std::span<const AdjEntry> nv = g.Neighbors(ends.v);
  const uint64_t dmin = std::min(nu.size(), nv.size());
  const uint64_t dmax = std::max(nu.size(), nv.size());
  const uint64_t walk_cost = dmin * (std::bit_width(dmax) + 1);
  if (static_cast<double>(walk_cost) <=
      internal::TriangleCutoff() * static_cast<double>(nu.size() + nv.size())) {
    ForEachTriangleOfEdge(g, e, std::forward<Fn>(fn));
    return;
  }
  // Two-pointer intersection; a common neighbor can never be u or v (that
  // would require a self-loop), so every match closes a triangle.
  size_t i = 0;
  size_t j = 0;
  while (i < nu.size() && j < nv.size()) {
    const VertexId a = nu[i].neighbor;
    const VertexId b = nv[j].neighbor;
    if (a < b) {
      ++i;
    } else if (b < a) {
      ++j;
    } else {
      fn(a, nu[i].edge, nv[j].edge);
      ++i;
      ++j;
    }
  }
}

// Number of triangles containing edge `e` (its support).
uint32_t EdgeSupport(const Graph& g, EdgeId e);

// Support of `e` restricted to triangles whose other two edges are set in
// `within` (empty = every edge counts; callers query in-subset edges, so
// `within[e]` itself is not consulted). Unlike ForEachTriangle — a serial
// whole-graph sweep — this queries one edge independently and only reads
// the immutable CSR plus `within`, so callers may evaluate disjoint edges
// concurrently. This is the parallel-friendly triangle primitive behind
// ComputeSupportParallel and the parallel truss peel.
uint32_t EdgeSupportWithin(const Graph& g, EdgeId e,
                           const std::vector<bool>& within);

// Support of every edge, computed with one triangle sweep.
std::vector<uint32_t> ComputeSupport(const Graph& g);

// Support of every edge in `within` (empty = all edges), computed by
// per-edge common-neighbor counting sharded across ParallelFor workers,
// chunked by edge id. Deterministic: each worker writes only its own
// edges' counts. Edges outside `within` report 0. With a single worker
// available (including inside a ParallelFor body) this falls back to the
// work-efficient oriented sweep — identical counts, ~3x less work.
std::vector<uint32_t> ComputeSupportParallel(const Graph& g,
                                             const std::vector<bool>& within =
                                                 {});

// Total number of triangles in the graph.
uint64_t CountTriangles(const Graph& g);

namespace internal {

// Degree-ordered orientation used by ForEachTriangle: for each vertex, the
// out-neighbors are those later in the (degree, id) order, sorted by id.
struct OrientedAdjacency {
  std::vector<uint32_t> offsets;
  std::vector<AdjEntry> out;
};

OrientedAdjacency BuildOrientedAdjacency(const Graph& g);

}  // namespace internal

template <typename Fn>
void ForEachTriangle(const Graph& g, Fn&& fn) {
  const internal::OrientedAdjacency oriented =
      internal::BuildOrientedAdjacency(g);
  const uint32_t n = g.NumVertices();
  for (VertexId u = 0; u < n; ++u) {
    const AdjEntry* ubeg = oriented.out.data() + oriented.offsets[u];
    const AdjEntry* uend = oriented.out.data() + oriented.offsets[u + 1];
    for (const AdjEntry* uv = ubeg; uv != uend; ++uv) {
      const VertexId v = uv->neighbor;
      // Two-pointer intersection of out(u) and out(v): every common
      // out-neighbor w closes triangle (u, v, w) exactly once, since the
      // orientation is acyclic (degree-then-id order).
      const AdjEntry* p = ubeg;
      const AdjEntry* q = oriented.out.data() + oriented.offsets[v];
      const AdjEntry* qend = oriented.out.data() + oriented.offsets[v + 1];
      while (p != uend && q != qend) {
        if (p->neighbor < q->neighbor) {
          ++p;
        } else if (q->neighbor < p->neighbor) {
          ++q;
        } else {
          fn(TriangleEdges{uv->edge, p->edge, q->edge});
          ++p;
          ++q;
        }
      }
    }
  }
}

}  // namespace atr

#endif  // ATR_GRAPH_TRIANGLES_H_
