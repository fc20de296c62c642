#include "graph/flat_view.h"

namespace atr {
namespace {

// The orientation rule: the half-edge points from the (degree, id)-smaller
// endpoint to the larger one.
bool OrientedPrecedes(const Graph& g, VertexId a, VertexId b) {
  const uint32_t da = g.Degree(a);
  const uint32_t db = g.Degree(b);
  return da < db || (da == db && a < b);
}

}  // namespace

FlatGraphView FlatGraphView::Build(const Graph& g) {
  FlatGraphView view;
  view.num_vertices = g.NumVertices();
  view.num_edges = g.NumEdges();

  // Oriented half-edges fall out of the already-sorted adjacency in one
  // linear pass: keeping only the (degree, id)-forward entries of each
  // vertex preserves ascending-neighbor order, so no per-vertex sort is
  // needed.
  view.oriented_offsets.assign(view.num_vertices + 1, 0);
  view.oriented.reserve(view.num_edges);
  for (VertexId u = 0; u < view.num_vertices; ++u) {
    view.oriented_offsets[u] = static_cast<uint32_t>(view.oriented.size());
    for (const AdjEntry& entry : g.Neighbors(u)) {
      if (OrientedPrecedes(g, u, entry.neighbor)) {
        view.oriented.push_back(FlatZip(entry.neighbor, entry.edge));
      }
    }
  }
  view.oriented_offsets[view.num_vertices] =
      static_cast<uint32_t>(view.oriented.size());
  return view;
}

}  // namespace atr
