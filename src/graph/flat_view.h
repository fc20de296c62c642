// Flat structure-of-arrays mirror of an immutable Graph, the memory layout
// the flat peel kernels (truss/flat_peel.h) and the triangle index
// (graph/triangle_index.h) are built from. The CSR in graph.h stores
// AdjEntry structs; the triangle sweep's inner loop wants the
// MaxTruss-style packing instead: each oriented half-edge is one zipped
// uint64_t holding (neighbor << 32) | edge_id, so a sorted-merge
// intersection compares raw 64-bit words and reads the closing edge ids
// from the low halves without a FindEdge binary search per probe.
//
// A view is built once per graph snapshot — the shared-decomposition build
// path (ComputeSharedTrussDecomposition, which the service layer invokes
// exactly once per published GraphVersion) constructs one view and every
// phase of the peel reuses it. Benches and repeated-decomposition callers
// can amortize further through the overloads in truss/flat_peel.h that
// accept a prebuilt view.

#ifndef ATR_GRAPH_FLAT_VIEW_H_
#define ATR_GRAPH_FLAT_VIEW_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"

namespace atr {

// Packs (hi, lo) as (hi << 32) | lo. Zipped arrays sort by the high half
// first, so half-edges zipped as (neighbor, edge) keep exactly the
// ascending-neighbor order of Graph::Neighbors.
inline constexpr uint64_t FlatZip(uint32_t hi, uint32_t lo) {
  return (static_cast<uint64_t>(hi) << 32) | lo;
}
inline constexpr uint32_t FlatHi(uint64_t zipped) {
  return static_cast<uint32_t>(zipped >> 32);
}
inline constexpr uint32_t FlatLo(uint64_t zipped) {
  return static_cast<uint32_t>(zipped);
}

struct FlatGraphView {
  uint32_t num_vertices = 0;
  uint32_t num_edges = 0;

  // Degree-ordered orientation (the same (degree, id) rule as the forward
  // triangle sweep in graph/triangles.h): half-edge u -> v exists iff
  // (deg(u), u) < (deg(v), v). Entries are FlatZip(to, edge) ascending by
  // `to`, which bounds every out-degree by O(sqrt(m)) and drives the
  // work-efficient triangle sweep.
  std::vector<uint32_t> oriented_offsets;
  std::vector<uint64_t> oriented;

  // Edge endpoints FlatZip(u, v) with u < v, indexed by EdgeId.
  std::vector<uint64_t> edge_ends;

  std::span<const uint64_t> OrientedOf(VertexId u) const {
    return std::span<const uint64_t>(oriented)
        .subspan(oriented_offsets[u],
                 oriented_offsets[u + 1] - oriented_offsets[u]);
  }

  static FlatGraphView Build(const Graph& g);
};

}  // namespace atr

#endif  // ATR_GRAPH_FLAT_VIEW_H_
