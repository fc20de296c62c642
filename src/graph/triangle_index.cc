#include "graph/triangle_index.h"

namespace atr {

TriangleIndex BuildTriangleIndex(const FlatGraphView& view,
                                 const std::vector<uint8_t>& alive,
                                 bool full_graph,
                                 std::vector<uint32_t>& support) {
  std::vector<uint32_t> triangles;  // flat (euv, euw, evw) triples
  for (VertexId u = 0; u < view.num_vertices; ++u) {
    const std::span<const uint64_t> ou = view.OrientedOf(u);
    for (const uint64_t hv : ou) {
      const VertexId v = FlatHi(hv);
      const EdgeId euv = FlatLo(hv);
      if (!full_graph && !alive[euv]) continue;
      const std::span<const uint64_t> ov = view.OrientedOf(v);
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
          const EdgeId euw = FlatLo(ou[i]);
          const EdgeId evw = FlatLo(ov[j]);
          if (full_graph || (alive[euw] && alive[evw])) {
            ++support[euv];
            ++support[euw];
            ++support[evw];
            triangles.push_back(euv);
            triangles.push_back(euw);
            triangles.push_back(evw);
          }
          ++i;
          ++j;
        }
      }
    }
  }

  const uint32_t m = view.num_edges;
  TriangleIndex index;
  index.offsets.assign(m + 1, 0);
  for (EdgeId e = 0; e < m; ++e) index.offsets[e + 1] = support[e];
  for (EdgeId e = 0; e < m; ++e) index.offsets[e + 1] += index.offsets[e];
  index.pairs.resize(triangles.size());
  std::vector<uint64_t> cursor(index.offsets.begin(), index.offsets.end() - 1);
  for (size_t t = 0; t < triangles.size(); t += 3) {
    const EdgeId a = triangles[t];
    const EdgeId b = triangles[t + 1];
    const EdgeId c = triangles[t + 2];
    index.pairs[cursor[a]++] = FlatZip(b, c);
    index.pairs[cursor[b]++] = FlatZip(a, c);
    index.pairs[cursor[c]++] = FlatZip(a, b);
  }
  return index;
}

TriangleIndex BuildTriangleIndex(const Graph& g) {
  std::vector<uint32_t> support(g.NumEdges(), 0);
  return BuildTriangleIndex(FlatGraphView::Build(g), {}, /*full_graph=*/true,
                            support);
}

}  // namespace atr
