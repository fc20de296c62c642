#include "graph/triangle_index.h"

#include "graph/triangles.h"
#include "util/macros.h"

namespace atr {

TriangleIndex BuildTriangleIndex(const FlatGraphView& view,
                                 const std::vector<uint8_t>& alive,
                                 bool full_graph,
                                 std::vector<uint32_t>& support) {
  std::vector<uint32_t> triangles;  // flat (euv, euw, evw) triples
  ForEachTriangle(view, [&](TriangleEdges t) {
    if (!full_graph && !(alive[t.e1] && alive[t.e2] && alive[t.e3])) return;
    ++support[t.e1];
    ++support[t.e2];
    ++support[t.e3];
    triangles.push_back(t.e1);
    triangles.push_back(t.e2);
    triangles.push_back(t.e3);
  });

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

const TriangleIndex& LazyTriangleIndex::Get(const Graph& g, bool* built_here) {
  bool built_now = false;
  std::call_once(once_, [&] {
    index_ = BuildTriangleIndex(g);
    built_now = true;
    built_.store(true, std::memory_order_release);
  });
  ATR_CHECK_MSG(index_.NumEdges() == g.NumEdges(),
                "LazyTriangleIndex: Get() called with another graph");
  if (built_here != nullptr) *built_here = built_now;
  return index_;
}

}  // namespace atr
