#include "graph/triangles.h"

#include "util/macros.h"

namespace atr {

std::vector<uint32_t> ComputeSupport(const Graph& g,
                                     const std::vector<bool>& within) {
  ATR_CHECK(within.empty() || within.size() == g.NumEdges());
  const bool scoped = !within.empty();
  std::vector<uint32_t> support(g.NumEdges(), 0);
  ForEachTriangle(FlatGraphView::Build(g), [&](TriangleEdges t) {
    if (scoped && !(within[t.e1] && within[t.e2] && within[t.e3])) return;
    ++support[t.e1];
    ++support[t.e2];
    ++support[t.e3];
  });
  return support;
}

uint64_t CountTriangles(const Graph& g) {
  uint64_t count = 0;
  ForEachTriangle(FlatGraphView::Build(g),
                  [&count](TriangleEdges) { ++count; });
  return count;
}

}  // namespace atr
