// Tests for the truss-component tree (Algorithm 4).

#include "tree/component_tree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <set>
#include <string>

#include "graph/triangle_index.h"
#include "graph/triangles.h"
#include "tests/paper_fixtures.h"
#include "tests/test_helpers.h"
#include "truss/decomposition.h"
#include "util/parallel_for.h"

namespace atr {
namespace {

// Brute-force K-truss component of edge `e`: triangle-connected closure of e
// within edges of trussness >= k (anchored edges count as every level).
std::set<EdgeId> BruteComponent(const Graph& g, const TrussDecomposition& d,
                                EdgeId start, uint32_t k) {
  auto in_level = [&](EdgeId e) {
    return d.trussness[e] == kAnchoredTrussness || d.trussness[e] >= k;
  };
  std::set<EdgeId> seen = {start};
  std::deque<EdgeId> frontier = {start};
  while (!frontier.empty()) {
    const EdgeId e = frontier.front();
    frontier.pop_front();
    ForEachTriangleOfEdge(g, e, [&](VertexId, EdgeId e1, EdgeId e2) {
      if (!in_level(e1) || !in_level(e2)) return;
      for (EdgeId p : {e1, e2}) {
        if (seen.insert(p).second) frontier.push_back(p);
      }
    });
  }
  return seen;
}

TEST(ComponentTree, Fig4Structure) {
  // Fig. 4: one K=3 node with the 4 hull edges; two K=4 children (9 edges
  // each); one K=5 child (10 edges); all three deeper nodes hang under the
  // K=3 node.
  const Graph g = MakeFig3Graph();
  const TrussDecomposition d = ComputeTrussDecomposition(g);
  TrussComponentTree tree;
  tree.Build(g, d, {});
  tree.CheckInvariants(g, d, {});

  ASSERT_EQ(tree.nodes().size(), 4u);
  const uint32_t root_idx = tree.NodeIndexOf(Fig3Edge(g, 9, 10));
  const TrussTreeNode& root = tree.nodes()[root_idx];
  EXPECT_EQ(root.k, 3u);
  EXPECT_EQ(root.edges.size(), 4u);
  EXPECT_EQ(root.parent, -1);
  ASSERT_EQ(root.children.size(), 3u);

  std::multiset<std::pair<uint32_t, size_t>> child_shapes;
  for (int32_t c : root.children) {
    const TrussTreeNode& child = tree.nodes()[c];
    child_shapes.insert({child.k, child.edges.size()});
    EXPECT_TRUE(child.children.empty());
  }
  const std::multiset<std::pair<uint32_t, size_t>> expected = {
      {4u, 9u}, {4u, 9u}, {5u, 10u}};
  EXPECT_EQ(child_shapes, expected);

  // The two 4-truss components are distinct nodes.
  EXPECT_NE(tree.NodeIndexOf(Fig3Edge(g, 1, 2)),
            tree.NodeIndexOf(Fig3Edge(g, 11, 12)));
  // Node id is the smallest edge id of the node.
  EXPECT_EQ(tree.NodeIdOf(Fig3Edge(g, 3, 4)),
            *std::min_element(
                tree.nodes()[tree.NodeIndexOf(Fig3Edge(g, 3, 4))].edges.begin(),
                tree.nodes()[tree.NodeIndexOf(Fig3Edge(g, 3, 4))].edges.end()));
}

TEST(ComponentTree, Fig4SubtreeIsWholeGraphFromRoot) {
  const Graph g = MakeFig3Graph();
  const TrussDecomposition d = ComputeTrussDecomposition(g);
  TrussComponentTree tree;
  tree.Build(g, d, {});
  const uint32_t root_idx = tree.NodeIndexOf(Fig3Edge(g, 9, 10));
  std::vector<EdgeId> subtree = tree.SubtreeEdges(root_idx);
  EXPECT_EQ(subtree.size(), g.NumEdges());
}

TEST(ComponentTree, AnchoredEdgesHaveNoNode) {
  const Graph g = MakeFig3Graph();
  std::vector<bool> anchored(g.NumEdges(), false);
  const EdgeId x = Fig3Edge(g, 9, 10);
  anchored[x] = true;
  const TrussDecomposition d = ComputeTrussDecomposition(g, anchored);
  TrussComponentTree tree;
  tree.Build(g, d, anchored);
  tree.CheckInvariants(g, d, anchored);
  EXPECT_EQ(tree.NodeIdOf(x), kNoTreeNode);
}

TEST(ComponentTree, AnchorMediatedTriangleConnectsComponents) {
  // Two triangles sharing only the anchored edge: with the anchor excluded
  // from nodes, its triangles still connect the remaining edges at level 3.
  GraphBuilder b(4);
  b.AddEdge(0, 1);  // shared edge, to be anchored
  b.AddEdge(0, 2);
  b.AddEdge(1, 2);
  b.AddEdge(0, 3);
  b.AddEdge(1, 3);
  const Graph g = b.Build();
  std::vector<bool> anchored(g.NumEdges(), false);
  anchored[g.FindEdge(0, 1)] = true;
  const TrussDecomposition d = ComputeTrussDecomposition(g, anchored);
  TrussComponentTree tree;
  tree.Build(g, d, anchored);
  tree.CheckInvariants(g, d, anchored);
  // All four non-anchored edges are triangle-connected through the anchor,
  // so they share one node.
  EXPECT_EQ(tree.NodeIndexOf(g.FindEdge(0, 2)),
            tree.NodeIndexOf(g.FindEdge(1, 3)));
}

class TreePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TreePropertyTest, InvariantsHold) {
  const Graph g = MakePropertyGraph(GetParam());
  const TrussDecomposition d = ComputeTrussDecomposition(g);
  TrussComponentTree tree;
  tree.Build(g, d, {});
  tree.CheckInvariants(g, d, {});
}

TEST_P(TreePropertyTest, InvariantsHoldWithAnchors) {
  const uint64_t seed = GetParam();
  const Graph g = MakePropertyGraph(seed);
  if (g.NumEdges() < 4) return;
  std::vector<bool> anchored(g.NumEdges(), false);
  anchored[seed % g.NumEdges()] = true;
  anchored[(seed * 13 + 5) % g.NumEdges()] = true;
  const TrussDecomposition d = ComputeTrussDecomposition(g, anchored);
  TrussComponentTree tree;
  tree.Build(g, d, anchored);
  tree.CheckInvariants(g, d, anchored);
}

TEST_P(TreePropertyTest, SubtreeMatchesBruteForceComponent) {
  // The subtree rooted at an edge's node is exactly the K-truss component
  // of that edge at the node's level.
  const uint64_t seed = GetParam();
  const Graph g = MakePropertyGraph(seed);
  const TrussDecomposition d = ComputeTrussDecomposition(g);
  TrussComponentTree tree;
  tree.Build(g, d, {});
  // Probe a handful of edges.
  for (EdgeId e = 0; e < g.NumEdges(); e += 1 + g.NumEdges() / 7) {
    const uint32_t idx = tree.NodeIndexOf(e);
    const TrussTreeNode& node = tree.nodes()[idx];
    std::vector<EdgeId> subtree = tree.SubtreeEdges(idx);
    std::set<EdgeId> from_tree(subtree.begin(), subtree.end());
    const std::set<EdgeId> brute = BruteComponent(g, d, e, node.k);
    EXPECT_EQ(from_tree, brute) << "edge " << e << " level " << node.k;
  }
}

TEST_P(TreePropertyTest, ParentChainLevelsStrictlyDecrease) {
  const Graph g = MakePropertyGraph(GetParam());
  const TrussDecomposition d = ComputeTrussDecomposition(g);
  TrussComponentTree tree;
  tree.Build(g, d, {});
  for (const TrussTreeNode& node : tree.nodes()) {
    int32_t parent = node.parent;
    uint32_t k = node.k;
    while (parent >= 0) {
      EXPECT_LT(tree.nodes()[parent].k, k);
      k = tree.nodes()[parent].k;
      parent = tree.nodes()[parent].parent;
    }
  }
}

void ExpectSameTree(const TrussComponentTree& want,
                    const TrussComponentTree& got, uint32_t m,
                    const std::string& label) {
  ASSERT_EQ(want.nodes().size(), got.nodes().size()) << label;
  for (size_t i = 0; i < want.nodes().size(); ++i) {
    const TrussTreeNode& a = want.nodes()[i];
    const TrussTreeNode& b = got.nodes()[i];
    EXPECT_EQ(a.k, b.k) << label << " node " << i;
    EXPECT_EQ(a.id, b.id) << label << " node " << i;
    EXPECT_EQ(a.parent, b.parent) << label << " node " << i;
    EXPECT_EQ(a.children, b.children) << label << " node " << i;
    EXPECT_EQ(a.edges, b.edges) << label << " node " << i;
  }
  for (EdgeId e = 0; e < m; ++e) {
    EXPECT_EQ(want.NodeIndexOf(e), got.NodeIndexOf(e))
        << label << " edge " << e;
    EXPECT_EQ(want.NodeIdOf(e), got.NodeIdOf(e)) << label << " edge " << e;
  }
}

TEST_P(TreePropertyTest, BuildIsIdenticalAtEveryThreadCount) {
  // Two anchors and one removed edge. Edge chunks fill the level buckets
  // in parallel; the tree, down to every node's children order, must not
  // depend on how many chunks there were. `reused` is rebuilt in place
  // over a different earlier tree.
  const uint64_t seed = GetParam();
  const Graph g = MakePropertyGraph(seed);
  const uint32_t m = g.NumEdges();
  if (m < 4) return;
  std::vector<bool> anchored(m, false);
  anchored[seed % m] = true;
  anchored[(seed * 13 + 5) % m] = true;
  EdgeId removed = (seed * 7 + 3) % m;
  while (anchored[removed]) removed = (removed + 1) % m;
  std::vector<EdgeId> alive;
  for (EdgeId e = 0; e < m; ++e) {
    if (e != removed) alive.push_back(e);
  }
  const TrussDecomposition d =
      ComputeTrussDecompositionOnSubset(g, anchored, alive);
  const TriangleIndex triangles = BuildTriangleIndex(g);

  TrussComponentTree serial;
  {
    ScopedParallelism one(1);
    serial.Build(g, triangles, d, anchored);
  }
  serial.CheckInvariants(g, d, anchored);
  EXPECT_EQ(serial.NodeIndexOf(removed), kNoTreeNode);

  TrussComponentTree reused;
  reused.Build(g, triangles, ComputeTrussDecomposition(g), {});
  for (const int threads : {1, 2, 3, 8}) {
    ScopedParallelism scope(threads);
    TrussComponentTree fresh;
    fresh.Build(g, triangles, d, anchored);
    reused.Build(g, triangles, d, anchored);
    const std::string label = "seed " + std::to_string(seed) + " threads " +
                              std::to_string(threads);
    ExpectSameTree(serial, fresh, m, label + " fresh");
    ExpectSameTree(serial, reused, m, label + " reused");
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TreePropertyTest,
                         ::testing::Range<uint64_t>(0, 20));

}  // namespace
}  // namespace atr
