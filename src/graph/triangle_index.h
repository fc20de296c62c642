// Per-edge triangle index in CSR form: for edge e,
// pairs[offsets[e] .. offsets[e+1]) holds FlatZip(e1, e2) for every
// indexed triangle {e, e1, e2}, so each triangle appears once in the list
// of each of its three edges. One ForEachTriangle sweep over a
// FlatGraphView (graph/triangles.h) builds it (each triangle found once,
// no FindEdge probes); afterwards the triangles of an edge are one
// contiguous scan, O(1) per triangle, where ForEachTriangleOfEdge pays
// O(min d · log max d) per edge. The flat peel (truss/flat_peel.h) builds
// an alive-subset index per decomposition. The full-graph index is built
// at most once per graph version through a LazyTriangleIndex, and every
// solve that reads it on that version (BASE+, GAS, Exact, Rand/Sup/Tur)
// shares it read-only across its workers and its commits.
//
// Pair orientation and the order within a list are deterministic but
// differ from ForEachTriangleOfEdge's; every consumer treats the two
// partners of a pair symmetrically and the triangles of an edge as a set.

#ifndef ATR_GRAPH_TRIANGLE_INDEX_H_
#define ATR_GRAPH_TRIANGLE_INDEX_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "graph/flat_view.h"
#include "graph/graph.h"

namespace atr {

struct TriangleIndex {
  std::vector<uint64_t> offsets;  // size m + 1
  std::vector<uint64_t> pairs;    // 3 entries per indexed triangle

  uint32_t NumEdges() const {
    return offsets.empty() ? 0 : static_cast<uint32_t>(offsets.size() - 1);
  }

  // Calls `fn(e1, e2)` once for every indexed triangle {e, e1, e2}.
  template <typename Fn>
  void ForEachTriangleOf(EdgeId e, Fn&& fn) const {
    const uint64_t* p = pairs.data() + offsets[e];
    const uint64_t* end = pairs.data() + offsets[e + 1];
    for (; p != end; ++p) fn(FlatHi(*p), FlatLo(*p));
  }
};

// Index of the triangles whose three edges are all alive (`full_graph`:
// every edge is alive and `alive` is not read). The sweep visits every
// triangle of the view and drops those with a dead edge. Also writes each
// edge's alive-triangle count into `support`, which must hold m zeros.
// O(sum of oriented out-degrees intersected) time; 3 CSR entries plus one
// 12-byte scratch record per indexed triangle.
TriangleIndex BuildTriangleIndex(const FlatGraphView& view,
                                 const std::vector<uint8_t>& alive,
                                 bool full_graph,
                                 std::vector<uint32_t>& support);

// Full-graph index of `g` — every triangle of the topology, whatever a
// decomposition later reports about its edges.
TriangleIndex BuildTriangleIndex(const Graph& g);

// One graph's full-graph index, built by the first Get() and shared by
// every later or concurrent one: what SharedTrussDecomposition is to the
// decomposition. A SolverContext holds one (api/solver.h), and the service
// keeps one per graph version and primes every job's context with it
// (api/service.h). Get() is thread-safe; concurrent first callers block
// until the one build finishes.
class LazyTriangleIndex {
 public:
  // BuildTriangleIndex(g). Every call must pass the same graph. Sets
  // `*built_here` to whether this call did the build.
  const TriangleIndex& Get(const Graph& g, bool* built_here = nullptr);

  // Whether a Get() has finished the build. Reading it never builds.
  bool built() const { return built_.load(std::memory_order_acquire); }

 private:
  std::once_flag once_;
  TriangleIndex index_;
  std::atomic<bool> built_{false};
};

}  // namespace atr

#endif  // ATR_GRAPH_TRIANGLE_INDEX_H_
