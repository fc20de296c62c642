// Tests for the CSR graph, builder normalization, and the triangle engine.

#include "graph/graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "graph/flat_view.h"
#include "graph/triangle_index.h"
#include "graph/triangles.h"
#include "tests/test_helpers.h"

namespace atr {
namespace {

TEST(GraphBuilder, DropsSelfLoopsAndDuplicates) {
  GraphBuilder b(4);
  b.AddEdge(0, 1);
  b.AddEdge(1, 0);  // duplicate, reversed
  b.AddEdge(2, 2);  // self loop
  b.AddEdge(1, 2);
  b.AddEdge(1, 2);  // duplicate
  const Graph g = b.Build();
  EXPECT_EQ(g.NumEdges(), 2u);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(2, 1));
  EXPECT_FALSE(g.HasEdge(2, 2));
}

TEST(GraphBuilder, GrowsVertexCountFromEdges) {
  GraphBuilder b;
  b.AddEdge(5, 9);
  const Graph g = b.Build();
  EXPECT_EQ(g.NumVertices(), 10u);
  EXPECT_EQ(g.Degree(9), 1u);
  EXPECT_EQ(g.Degree(0), 0u);
}

TEST(GraphBuilder, EdgeIdsAreSortedByEndpoints) {
  GraphBuilder b(4);
  b.AddEdge(2, 3);
  b.AddEdge(0, 1);
  b.AddEdge(1, 3);
  const Graph g = b.Build();
  EXPECT_EQ(g.Edge(0), (EdgeEndpoints{0, 1}));
  EXPECT_EQ(g.Edge(1), (EdgeEndpoints{1, 3}));
  EXPECT_EQ(g.Edge(2), (EdgeEndpoints{2, 3}));
}

TEST(Graph, FindEdgeAndNeighborsAreConsistent) {
  GraphBuilder b(5);
  b.AddEdge(0, 1);
  b.AddEdge(0, 2);
  b.AddEdge(0, 4);
  b.AddEdge(1, 4);
  const Graph g = b.Build();
  EXPECT_NE(g.FindEdge(0, 4), kInvalidEdge);
  EXPECT_EQ(g.FindEdge(4, 0), g.FindEdge(0, 4));
  EXPECT_EQ(g.FindEdge(2, 4), kInvalidEdge);
  EXPECT_EQ(g.FindEdge(0, 0), kInvalidEdge);

  VertexId prev = 0;
  bool first = true;
  for (const AdjEntry& a : g.Neighbors(0)) {
    if (!first) {
      EXPECT_GT(a.neighbor, prev);
    }
    prev = a.neighbor;
    first = false;
    const EdgeEndpoints ends = g.Edge(a.edge);
    EXPECT_TRUE((ends.u == 0 && ends.v == a.neighbor) ||
                (ends.v == 0 && ends.u == a.neighbor));
  }
}

TEST(Triangles, CountsKnownShapes) {
  // Triangle: 1. K4: 4. Square: 0.
  GraphBuilder t(3);
  t.AddEdge(0, 1);
  t.AddEdge(1, 2);
  t.AddEdge(0, 2);
  EXPECT_EQ(CountTriangles(t.Build()), 1u);

  GraphBuilder k4(4);
  for (VertexId u = 0; u < 4; ++u) {
    for (VertexId v = u + 1; v < 4; ++v) k4.AddEdge(u, v);
  }
  EXPECT_EQ(CountTriangles(k4.Build()), 4u);

  GraphBuilder sq(4);
  sq.AddEdge(0, 1);
  sq.AddEdge(1, 2);
  sq.AddEdge(2, 3);
  sq.AddEdge(0, 3);
  EXPECT_EQ(CountTriangles(sq.Build()), 0u);
}

TEST(Triangles, ForEachTriangleReportsEachOnce) {
  const Graph g = MakePropertyGraph(3);
  std::set<std::tuple<EdgeId, EdgeId, EdgeId>> seen;
  ForEachTriangle(g, [&](TriangleEdges t) {
    EdgeId ids[3] = {t.e1, t.e2, t.e3};
    std::sort(ids, ids + 3);
    EXPECT_TRUE(seen.insert({ids[0], ids[1], ids[2]}).second)
        << "triangle reported twice";
  });
  EXPECT_EQ(seen.size(), CountTriangles(g));
}

class TriangleConsistencyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TriangleConsistencyTest, SupportSweepMatchesPerEdgeQueries) {
  const Graph g = MakePropertyGraph(GetParam());
  const std::vector<uint32_t> sweep = ComputeSupport(g);
  uint64_t triple_sum = 0;
  for (EdgeId e = 0; e < g.NumEdges(); ++e) {
    EXPECT_EQ(sweep[e], EdgeSupport(g, e)) << "edge " << e;
    triple_sum += sweep[e];
  }
  // Each triangle contributes one unit of support to three edges.
  EXPECT_EQ(triple_sum, 3 * CountTriangles(g));
}

TEST_P(TriangleConsistencyTest, PerEdgeTrianglesHaveConsistentEndpoints) {
  const Graph g = MakePropertyGraph(GetParam());
  for (EdgeId e = 0; e < g.NumEdges(); e += 3) {
    const EdgeEndpoints ends = g.Edge(e);
    ForEachTriangleOfEdge(g, e, [&](VertexId w, EdgeId eu, EdgeId ev) {
      EXPECT_EQ(g.FindEdge(ends.u, w), eu);
      EXPECT_EQ(g.FindEdge(ends.v, w), ev);
    });
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TriangleConsistencyTest,
                         ::testing::Range<uint64_t>(0, 10));

// RAII override for the adaptive walk-vs-merge cutoff factor so every
// test restores the production value.
class ScopedTriangleCutoff {
 public:
  explicit ScopedTriangleCutoff(double cutoff)
      : previous_(internal::SetTriangleCutoffForTest(cutoff)) {}
  ~ScopedTriangleCutoff() { internal::SetTriangleCutoffForTest(previous_); }

 private:
  double previous_;
};

TEST_P(TriangleConsistencyTest, AdaptiveCutoffSweepIsPathInvariant) {
  // 0.0 forces the merge intersection everywhere, the huge factor forces
  // the binary-search walk, and the default mixes per edge. All three must
  // report byte-identical (w, ew_u, ew_v) sequences for every edge — the
  // cutoff is a performance knob, never a semantic one.
  const Graph g = MakePropertyGraph(GetParam());
  std::vector<std::vector<std::tuple<VertexId, EdgeId, EdgeId>>> runs;
  for (const double cutoff : {0.0, kDefaultTriangleCutoff, 1e12}) {
    ScopedTriangleCutoff scoped(cutoff);
    std::vector<std::tuple<VertexId, EdgeId, EdgeId>> seen;
    for (EdgeId e = 0; e < g.NumEdges(); ++e) {
      ForEachTriangleOfEdgeAdaptive(
          g, e, [&](VertexId w, EdgeId eu, EdgeId ev) {
            seen.emplace_back(w, eu, ev);
          });
    }
    runs.push_back(std::move(seen));
  }
  ASSERT_EQ(runs.size(), 3u);
  EXPECT_EQ(runs[0], runs[1]) << "merge-only vs default diverged";
  EXPECT_EQ(runs[0], runs[2]) << "merge-only vs walk-only diverged";
}

// --- TriangleIndex ----------------------------------------------------------

using EdgePair = std::pair<EdgeId, EdgeId>;

EdgePair Unordered(EdgeId a, EdgeId b) {
  return a < b ? EdgePair{a, b} : EdgePair{b, a};
}

// The triangles of `e` as a multiset of unordered partner pairs.
std::multiset<EdgePair> IndexedPairs(const TriangleIndex& index, EdgeId e) {
  std::multiset<EdgePair> pairs;
  index.ForEachTriangleOf(
      e, [&](EdgeId e1, EdgeId e2) { pairs.insert(Unordered(e1, e2)); });
  return pairs;
}

std::multiset<EdgePair> WalkedPairs(const Graph& g, EdgeId e) {
  std::multiset<EdgePair> pairs;
  ForEachTriangleOfEdge(g, e, [&](VertexId, EdgeId e1, EdgeId e2) {
    pairs.insert(Unordered(e1, e2));
  });
  return pairs;
}

TEST_P(TriangleConsistencyTest, TriangleIndexMatchesPerEdgeWalk) {
  const Graph g = MakePropertyGraph(GetParam());
  const TriangleIndex index = BuildTriangleIndex(g);
  ASSERT_EQ(index.NumEdges(), g.NumEdges());
  for (EdgeId e = 0; e < g.NumEdges(); ++e) {
    EXPECT_EQ(IndexedPairs(index, e), WalkedPairs(g, e)) << "edge " << e;
  }
}

TEST_P(TriangleConsistencyTest, TriangleIndexListsEachTriangleOncePerEdge) {
  const Graph g = MakePropertyGraph(GetParam());
  const TriangleIndex index = BuildTriangleIndex(g);
  // Every sorted triangle maps to the edges whose lists hold it; each
  // member edge must list it exactly once, and no other edge at all.
  std::map<std::tuple<EdgeId, EdgeId, EdgeId>, std::vector<EdgeId>> listed_by;
  for (EdgeId e = 0; e < g.NumEdges(); ++e) {
    index.ForEachTriangleOf(e, [&](EdgeId e1, EdgeId e2) {
      EdgeId ids[3] = {e, e1, e2};
      std::sort(ids, ids + 3);
      ASSERT_TRUE(ids[0] < ids[1] && ids[1] < ids[2]) << "edge " << e;
      listed_by[{ids[0], ids[1], ids[2]}].push_back(e);
    });
  }
  EXPECT_EQ(listed_by.size(), CountTriangles(g));
  for (const auto& [tri, edges] : listed_by) {
    const std::vector<EdgeId> members = {std::get<0>(tri), std::get<1>(tri),
                                         std::get<2>(tri)};
    EXPECT_EQ(edges, members);  // ascending: lists are scanned in id order
  }
}

TEST_P(TriangleConsistencyTest, AliveSubsetIndexDropsTrianglesWithDeadEdges) {
  const uint64_t seed = GetParam();
  const Graph g = MakePropertyGraph(seed);
  const uint32_t m = g.NumEdges();
  std::vector<uint8_t> alive(m, 1);
  for (EdgeId e = seed % 3; e < m; e += 3 + seed % 4) alive[e] = 0;
  std::vector<uint32_t> support(m, 0);
  const TriangleIndex index = BuildTriangleIndex(
      FlatGraphView::Build(g), alive, /*full_graph=*/false, support);
  ASSERT_EQ(index.NumEdges(), m);
  for (EdgeId e = 0; e < m; ++e) {
    std::multiset<EdgePair> expected;
    if (alive[e]) {
      for (const EdgePair& p : WalkedPairs(g, e)) {
        if (alive[p.first] && alive[p.second]) expected.insert(p);
      }
    }
    EXPECT_EQ(IndexedPairs(index, e), expected) << "edge " << e;
    EXPECT_EQ(support[e], expected.size()) << "edge " << e;
  }

  // With every edge alive the subset build is the full-graph index.
  std::vector<uint32_t> full_support(m, 0);
  const TriangleIndex all_alive =
      BuildTriangleIndex(FlatGraphView::Build(g), std::vector<uint8_t>(m, 1),
                         /*full_graph=*/false, full_support);
  const TriangleIndex full = BuildTriangleIndex(g);
  EXPECT_EQ(all_alive.offsets, full.offsets);
  EXPECT_EQ(all_alive.pairs, full.pairs);
  EXPECT_EQ(full_support, ComputeSupport(g));
}

TEST(TriangleIndex, EmptyAndTriangleFreeGraphs) {
  const TriangleIndex empty = BuildTriangleIndex(GraphBuilder().Build());
  EXPECT_EQ(empty.NumEdges(), 0u);
  EXPECT_TRUE(empty.pairs.empty());

  const TriangleIndex edgeless = BuildTriangleIndex(GraphBuilder(5).Build());
  EXPECT_EQ(edgeless.NumEdges(), 0u);
  EXPECT_TRUE(edgeless.pairs.empty());

  GraphBuilder sq(4);  // a 4-cycle closes no triangle
  sq.AddEdge(0, 1);
  sq.AddEdge(1, 2);
  sq.AddEdge(2, 3);
  sq.AddEdge(0, 3);
  const Graph square = sq.Build();
  const TriangleIndex none = BuildTriangleIndex(square);
  ASSERT_EQ(none.NumEdges(), 4u);
  EXPECT_TRUE(none.pairs.empty());
  for (EdgeId e = 0; e < 4; ++e) {
    EXPECT_TRUE(IndexedPairs(none, e).empty()) << "edge " << e;
  }
}

// --- Graph::ApplyEdits ----------------------------------------------------

TEST(ApplyEdits, ProducesEditedSnapshotWithStableRemap) {
  GraphBuilder b(5);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(2, 3);
  b.AddEdge(3, 4);
  const Graph g = b.Build();

  GraphDelta delta;
  delta.remove.push_back(g.Edge(g.FindEdge(1, 2)));
  delta.add.push_back(EdgeEndpoints{4, 0});  // either orientation
  delta.add.push_back(EdgeEndpoints{2, 4});
  StatusOr<GraphEditResult> edited = g.ApplyEdits(delta);
  ASSERT_TRUE(edited.ok()) << edited.status().message();

  const Graph& next = edited->graph;
  EXPECT_EQ(next.NumVertices(), 5u);
  EXPECT_EQ(next.NumEdges(), 5u);
  EXPECT_FALSE(next.HasEdge(1, 2));
  EXPECT_TRUE(next.HasEdge(0, 4));
  EXPECT_TRUE(next.HasEdge(2, 4));

  // Surviving edges map to the id carrying the same endpoints; removed
  // edges read the sentinel.
  ASSERT_EQ(edited->edge_remap.size(), g.NumEdges());
  for (EdgeId e = 0; e < g.NumEdges(); ++e) {
    const EdgeId mapped = edited->edge_remap[e];
    if (e == g.FindEdge(1, 2)) {
      EXPECT_EQ(mapped, kInvalidEdge);
    } else {
      ASSERT_NE(mapped, kInvalidEdge);
      EXPECT_EQ(next.Edge(mapped), g.Edge(e));
    }
  }
  // Added edges are reported under their new ids, ascending.
  ASSERT_EQ(edited->added_edges.size(), 2u);
  EXPECT_LT(edited->added_edges[0], edited->added_edges[1]);
  for (const EdgeId e : edited->added_edges) {
    EXPECT_EQ(g.FindEdge(next.Edge(e).u, next.Edge(e).v), kInvalidEdge);
  }

  // The snapshot is byte-identical to building the edited edge list from
  // scratch (same normalization, same (u, v)-sorted id assignment).
  GraphBuilder fresh(5);
  fresh.AddEdge(0, 1);
  fresh.AddEdge(2, 3);
  fresh.AddEdge(3, 4);
  fresh.AddEdge(0, 4);
  fresh.AddEdge(2, 4);
  EXPECT_EQ(next.edges(), fresh.Build().edges());
}

TEST(ApplyEdits, GrowsVertexSetForNewEndpoints) {
  GraphBuilder b(3);
  b.AddEdge(0, 1);
  const Graph g = b.Build();
  GraphDelta delta;
  delta.add.push_back(EdgeEndpoints{1, 7});
  StatusOr<GraphEditResult> edited = g.ApplyEdits(delta);
  ASSERT_TRUE(edited.ok());
  EXPECT_EQ(edited->graph.NumVertices(), 8u);
  EXPECT_TRUE(edited->graph.HasEdge(1, 7));
}

TEST(ApplyEdits, ReAddingAnExistingEdgeIsIdempotent) {
  GraphBuilder b(3);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  const Graph g = b.Build();
  GraphDelta delta;
  delta.add.push_back(EdgeEndpoints{1, 0});
  delta.add.push_back(EdgeEndpoints{0, 2});
  delta.add.push_back(EdgeEndpoints{2, 0});  // duplicate within the batch
  StatusOr<GraphEditResult> edited = g.ApplyEdits(delta);
  ASSERT_TRUE(edited.ok());
  EXPECT_EQ(edited->graph.NumEdges(), 3u);
  EXPECT_EQ(edited->added_edges.size(), 1u);  // only {0, 2} is new
}

TEST(ApplyEdits, RejectsInvalidDeltas) {
  GraphBuilder b(3);
  b.AddEdge(0, 1);
  const Graph g = b.Build();

  GraphDelta absent;
  absent.remove.push_back(EdgeEndpoints{1, 2});
  EXPECT_EQ(g.ApplyEdits(absent).status().code(),
            StatusCode::kInvalidArgument);

  GraphDelta self_loop;
  self_loop.add.push_back(EdgeEndpoints{2, 2});
  EXPECT_EQ(g.ApplyEdits(self_loop).status().code(),
            StatusCode::kInvalidArgument);

  GraphDelta add_and_remove;
  add_and_remove.add.push_back(EdgeEndpoints{0, 1});
  add_and_remove.remove.push_back(EdgeEndpoints{0, 1});
  EXPECT_EQ(g.ApplyEdits(add_and_remove).status().code(),
            StatusCode::kInvalidArgument);

  GraphDelta overflow;
  overflow.add.push_back(EdgeEndpoints{0, kInvalidVertex});
  EXPECT_EQ(g.ApplyEdits(overflow).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(GraphBuilderDeath, RejectsVertexIdOverflow) {
  // v + 1 on the sentinel id would wrap num_vertices_ to 0 and silently
  // corrupt the builder; the contract is a hard CHECK.
  EXPECT_DEATH(
      {
        GraphBuilder b;
        b.AddEdge(0, kInvalidVertex);
      },
      "overflows the VertexId space");
}

}  // namespace
}  // namespace atr
