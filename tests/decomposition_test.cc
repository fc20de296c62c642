// Unit and property tests for truss decomposition (t(e), l(e), anchors).

#include "truss/decomposition.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "graph/generators/generators.h"
#include "graph/graph.h"
#include "graph/triangles.h"
#include "tests/paper_fixtures.h"
#include "tests/test_helpers.h"

namespace atr {
namespace {

TEST(TrussDecomposition, EmptyGraph) {
  Graph g = GraphBuilder(3).Build();
  const TrussDecomposition d = ComputeTrussDecomposition(g);
  EXPECT_EQ(d.trussness.size(), 0u);
  EXPECT_EQ(d.max_trussness, 2u);
}

TEST(TrussDecomposition, SingleEdgeHasTrussnessTwo) {
  GraphBuilder b(2);
  b.AddEdge(0, 1);
  Graph g = b.Build();
  const TrussDecomposition d = ComputeTrussDecomposition(g);
  EXPECT_EQ(d.trussness[0], 2u);
  EXPECT_EQ(d.max_trussness, 2u);
}

TEST(TrussDecomposition, TriangleHasTrussnessThree) {
  GraphBuilder b(3);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(0, 2);
  Graph g = b.Build();
  const TrussDecomposition d = ComputeTrussDecomposition(g);
  for (EdgeId e = 0; e < 3; ++e) EXPECT_EQ(d.trussness[e], 3u);
  EXPECT_EQ(d.max_trussness, 3u);
}

TEST(TrussDecomposition, CliqueTrussnessEqualsSize) {
  // A k-clique is a k-truss: every edge has trussness k.
  for (uint32_t k = 3; k <= 8; ++k) {
    GraphBuilder b(k);
    for (VertexId u = 0; u < k; ++u) {
      for (VertexId v = u + 1; v < k; ++v) b.AddEdge(u, v);
    }
    Graph g = b.Build();
    const TrussDecomposition d = ComputeTrussDecomposition(g);
    for (EdgeId e = 0; e < g.NumEdges(); ++e) {
      EXPECT_EQ(d.trussness[e], k) << "clique size " << k;
    }
  }
}

TEST(TrussDecomposition, Fig3TrussnessValues) {
  const Graph g = MakeFig3Graph();
  const TrussDecomposition d = ComputeTrussDecomposition(g);
  // 3-hull.
  EXPECT_EQ(d.trussness[Fig3Edge(g, 5, 8)], 3u);
  EXPECT_EQ(d.trussness[Fig3Edge(g, 7, 8)], 3u);
  EXPECT_EQ(d.trussness[Fig3Edge(g, 8, 9)], 3u);
  EXPECT_EQ(d.trussness[Fig3Edge(g, 9, 10)], 3u);
  // 4-truss components.
  EXPECT_EQ(d.trussness[Fig3Edge(g, 1, 2)], 4u);
  EXPECT_EQ(d.trussness[Fig3Edge(g, 5, 7)], 4u);
  EXPECT_EQ(d.trussness[Fig3Edge(g, 8, 10)], 4u);
  EXPECT_EQ(d.trussness[Fig3Edge(g, 11, 12)], 4u);
  // 5-truss clique.
  EXPECT_EQ(d.trussness[Fig3Edge(g, 3, 4)], 5u);
  EXPECT_EQ(d.trussness[Fig3Edge(g, 5, 13)], 5u);
  EXPECT_EQ(d.max_trussness, 5u);
}

TEST(TrussDecomposition, Fig3DeletionLayers) {
  // The paper's Example 2: L1={(v9,v10)}, L2={(v8,v9)}, L3={(v7,v8)},
  // L4={(v5,v8)} within the 3-hull.
  const Graph g = MakeFig3Graph();
  const TrussDecomposition d = ComputeTrussDecomposition(g);
  EXPECT_EQ(d.layer[Fig3Edge(g, 9, 10)], 1u);
  EXPECT_EQ(d.layer[Fig3Edge(g, 8, 9)], 2u);
  EXPECT_EQ(d.layer[Fig3Edge(g, 7, 8)], 3u);
  EXPECT_EQ(d.layer[Fig3Edge(g, 5, 8)], 4u);
}

TEST(TrussDecomposition, Fig3PrecedenceOrder) {
  const Graph g = MakeFig3Graph();
  const TrussDecomposition d = ComputeTrussDecomposition(g);
  const EdgeId e910 = Fig3Edge(g, 9, 10);
  const EdgeId e89 = Fig3Edge(g, 8, 9);
  const EdgeId e34 = Fig3Edge(g, 3, 4);
  EXPECT_TRUE(d.Precedes(e910, e89));
  EXPECT_FALSE(d.Precedes(e89, e910));
  EXPECT_TRUE(d.Precedes(e910, e34));  // lower trussness precedes
  EXPECT_TRUE(d.StrictlyPrecedes(e910, e89));
  EXPECT_FALSE(d.StrictlyPrecedes(e910, e910));
  EXPECT_TRUE(d.Precedes(e910, e910));  // non-strict admits equality
}

TEST(TrussDecomposition, AnchoredEdgeIsNeverPeeled) {
  // Path of triangles: anchoring the weakest edge keeps it out of hulls.
  GraphBuilder b(4);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(0, 2);
  b.AddEdge(2, 3);
  Graph g = b.Build();
  std::vector<bool> anchored(g.NumEdges(), false);
  const EdgeId dangling = g.FindEdge(2, 3);
  anchored[dangling] = true;
  const TrussDecomposition d = ComputeTrussDecomposition(g, anchored);
  EXPECT_TRUE(d.IsAnchored(dangling));
  EXPECT_EQ(d.trussness[dangling], kAnchoredTrussness);
}

TEST(TrussDecomposition, AnchoringRaisesNeighborTrussness) {
  // Two triangles sharing edge (0,1); all edges trussness 3. Anchoring one
  // edge of the first triangle cannot raise anything (supports unchanged),
  // but anchored support semantics must keep the anchor countable forever.
  GraphBuilder b(4);
  b.AddEdge(0, 1);
  b.AddEdge(0, 2);
  b.AddEdge(1, 2);
  b.AddEdge(0, 3);
  b.AddEdge(1, 3);
  Graph g = b.Build();
  const TrussDecomposition before = ComputeTrussDecomposition(g);
  for (EdgeId e = 0; e < g.NumEdges(); ++e) {
    EXPECT_EQ(before.trussness[e], 3u);
  }
}

// Property sweep: fast decomposition equals the naive reference, with and
// without anchors.
class DecompositionPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DecompositionPropertyTest, MatchesNaiveReference) {
  const uint64_t seed = GetParam();
  const Graph g = MakePropertyGraph(seed);
  const TrussDecomposition fast = ComputeTrussDecomposition(g);
  const std::vector<uint32_t> naive = NaiveTrussness(g);
  ASSERT_EQ(fast.trussness.size(), naive.size());
  for (EdgeId e = 0; e < g.NumEdges(); ++e) {
    EXPECT_EQ(fast.trussness[e], naive[e]) << "edge " << e << " seed " << seed;
  }
}

TEST_P(DecompositionPropertyTest, MatchesNaiveReferenceWithAnchors) {
  const uint64_t seed = GetParam();
  const Graph g = MakePropertyGraph(seed);
  if (g.NumEdges() < 4) return;
  std::vector<bool> anchored(g.NumEdges(), false);
  // Deterministic pseudo-random anchor picks.
  anchored[seed % g.NumEdges()] = true;
  anchored[(seed * 31 + 7) % g.NumEdges()] = true;
  const TrussDecomposition fast = ComputeTrussDecomposition(g, anchored);
  const std::vector<uint32_t> naive = NaiveTrussness(g, anchored);
  for (EdgeId e = 0; e < g.NumEdges(); ++e) {
    EXPECT_EQ(fast.trussness[e], naive[e]) << "edge " << e << " seed " << seed;
  }
}

TEST_P(DecompositionPropertyTest, LayersPartitionHullsContiguously) {
  // Within every k-hull, layers are 1..max and every layer is non-empty.
  const uint64_t seed = GetParam();
  const Graph g = MakePropertyGraph(seed);
  const TrussDecomposition d = ComputeTrussDecomposition(g);
  std::vector<std::vector<uint32_t>> layers_by_k(d.max_trussness + 1);
  for (EdgeId e = 0; e < g.NumEdges(); ++e) {
    EXPECT_GE(d.trussness[e], 2u);
    EXPECT_GE(d.layer[e], 1u);
    layers_by_k[d.trussness[e]].push_back(d.layer[e]);
  }
  for (uint32_t k = 2; k <= d.max_trussness; ++k) {
    if (layers_by_k[k].empty()) continue;
    uint32_t max_layer = 0;
    for (uint32_t l : layers_by_k[k]) max_layer = std::max(max_layer, l);
    std::vector<bool> seen(max_layer + 1, false);
    for (uint32_t l : layers_by_k[k]) seen[l] = true;
    for (uint32_t l = 1; l <= max_layer; ++l) {
      EXPECT_TRUE(seen[l]) << "k=" << k << " layer " << l << " empty";
    }
  }
}

TEST_P(DecompositionPropertyTest, SubsetDecompositionMatchesInducedGraph) {
  // Decomposition restricted to an edge subset must match decomposing the
  // subset as its own graph.
  const uint64_t seed = GetParam();
  const Graph g = MakePropertyGraph(seed);
  if (g.NumEdges() < 10) return;
  std::vector<EdgeId> subset;
  for (EdgeId e = 0; e < g.NumEdges(); ++e) {
    if ((seed + e) % 3 != 0) subset.push_back(e);
  }
  const TrussDecomposition on_subset =
      ComputeTrussDecompositionOnSubset(g, {}, subset);
  GraphBuilder b(g.NumVertices());
  for (EdgeId e : subset) b.AddEdge(g.Edge(e).u, g.Edge(e).v);
  Graph sub = b.Build();
  const TrussDecomposition direct = ComputeTrussDecomposition(sub);
  for (EdgeId e : subset) {
    const EdgeId in_sub = sub.FindEdge(g.Edge(e).u, g.Edge(e).v);
    ASSERT_NE(in_sub, kInvalidEdge);
    EXPECT_EQ(on_subset.trussness[e], direct.trussness[in_sub]);
    EXPECT_EQ(on_subset.layer[e], direct.layer[in_sub]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DecompositionPropertyTest,
                         ::testing::Range<uint64_t>(0, 24));

TEST(TrussDecomposition, SubsetSentinelNeverAliasesRealTrussness) {
  // kTrussnessNotComputed is 0, and real trussness of any decomposed edge
  // is >= 2 (a triangle-free edge still sits in the trivial 2-truss), so a
  // subset re-decompose must report the sentinel exactly on the removed
  // edges — never 0 for an in-subset edge, never a real value for an
  // out-of-subset one.
  const Graph g = MakeFig3Graph();
  std::vector<EdgeId> subset;
  std::vector<bool> in_subset(g.NumEdges(), false);
  for (EdgeId e = 0; e < g.NumEdges(); ++e) {
    if (e % 3 != 0) {
      subset.push_back(e);
      in_subset[e] = true;
    }
  }
  const TrussDecomposition d =
      ComputeTrussDecompositionOnSubset(g, {}, subset);
  for (EdgeId e = 0; e < g.NumEdges(); ++e) {
    if (in_subset[e]) {
      EXPECT_TRUE(d.IsComputed(e)) << "edge " << e;
      EXPECT_GE(d.trussness[e], 2u) << "edge " << e;
      EXPECT_GE(d.layer[e], 1u) << "edge " << e;
    } else {
      EXPECT_FALSE(d.IsComputed(e)) << "edge " << e;
      EXPECT_EQ(d.trussness[e], kTrussnessNotComputed) << "edge " << e;
      EXPECT_EQ(d.layer[e], 0u) << "edge " << e;
    }
  }
  // AliveSubsetOf round-trips the subset it was computed over.
  EXPECT_EQ(AliveSubsetOf(d), subset);
}

TEST(TrussDecomposition, TriangleFreeSubsetEdgeReadsTwoNotSentinel) {
  // Regression for the aliasing trap: an in-subset edge whose triangles
  // were all cut away by the subset must read trussness 2, not the
  // sentinel 0 a naive "no support => not computed" implementation yields.
  GraphBuilder b(3);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(0, 2);
  const Graph g = b.Build();
  const std::vector<EdgeId> subset = {g.FindEdge(0, 1), g.FindEdge(1, 2)};
  const TrussDecomposition d =
      ComputeTrussDecompositionOnSubset(g, {}, subset);
  for (EdgeId e : subset) {
    EXPECT_TRUE(d.IsComputed(e));
    EXPECT_EQ(d.trussness[e], 2u);
  }
  EXPECT_FALSE(d.IsComputed(g.FindEdge(0, 2)));
}

TEST(TrussDecomposition, AnchoredSubsetEdgeKeepsAnchorSentinel) {
  // Anchored edges inside the subset read kAnchoredTrussness; anchored
  // edges OUTSIDE the subset are absent and read kTrussnessNotComputed
  // (being anchored cannot resurrect a removed edge).
  const Graph g = MakeFig3Graph();
  std::vector<bool> anchored(g.NumEdges(), false);
  const EdgeId in_subset_anchor = Fig3Edge(g, 3, 4);
  const EdgeId out_of_subset_anchor = Fig3Edge(g, 9, 10);
  anchored[in_subset_anchor] = true;
  anchored[out_of_subset_anchor] = true;
  std::vector<EdgeId> subset;
  for (EdgeId e = 0; e < g.NumEdges(); ++e) {
    if (e != out_of_subset_anchor) subset.push_back(e);
  }
  const TrussDecomposition d =
      ComputeTrussDecompositionOnSubset(g, anchored, subset);
  EXPECT_EQ(d.trussness[in_subset_anchor], kAnchoredTrussness);
  EXPECT_TRUE(d.IsComputed(in_subset_anchor));
  EXPECT_EQ(d.trussness[out_of_subset_anchor], kTrussnessNotComputed);
  EXPECT_FALSE(d.IsComputed(out_of_subset_anchor));
}

TEST(HullSizes, CountsPerLevel) {
  const Graph g = MakeFig3Graph();
  const TrussDecomposition d = ComputeTrussDecomposition(g);
  const std::vector<uint32_t> hulls = HullSizes(d);
  ASSERT_EQ(hulls.size(), 6u);
  EXPECT_EQ(hulls[2], 0u);
  EXPECT_EQ(hulls[3], 4u);
  EXPECT_EQ(hulls[4], 18u);
  EXPECT_EQ(hulls[5], 10u);
}

}  // namespace
}  // namespace atr
