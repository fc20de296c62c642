// End-to-end validation of the NP-hardness reduction (Theorem 1 / Fig. 2):
// the gadget's trussness structure must match the proof's claims, and the
// optimal ATR solution must equal the optimal max-coverage solution.

#include "core/max_coverage_gadget.h"

#include <gtest/gtest.h>

#include "core/exact.h"
#include "core/gas.h"
#include "truss/decomposition.h"
#include "truss/gain.h"

namespace atr {
namespace {

// The paper's running instance (Fig. 2): s = 3 sets over t = 4 elements.
// T1 = {e1, e3}, T2 = {e1, e2, e3}, T3 = {e3, e4} (0-based below).
MaxCoverageGadget MakePaperInstance() {
  return BuildMaxCoverageGadget({{0, 2}, {0, 1, 2}, {2, 3}}, 4);
}

TEST(MaxCoverageGadget, TrussnessMatchesProofClaims) {
  const MaxCoverageGadget gadget = MakePaperInstance();
  const Graph& g = gadget.graph;
  const TrussDecomposition d = ComputeTrussDecomposition(g);
  const uint32_t t = gadget.num_elements;
  // Claim (i): t(a_i) = |T_i| + 2.
  EXPECT_EQ(d.trussness[gadget.set_edges[0]], 2u + 2u);
  EXPECT_EQ(d.trussness[gadget.set_edges[1]], 3u + 2u);
  EXPECT_EQ(d.trussness[gadget.set_edges[2]], 2u + 2u);
  // Claim (ii): t(f_j) = t + 2 for every element edge.
  for (EdgeId f : gadget.element_edges) {
    EXPECT_EQ(d.trussness[f], t + 2u);
  }
  // Clique edges all have trussness t + 3.
  uint32_t clique_edges = 0;
  for (EdgeId e = 0; e < g.NumEdges(); ++e) {
    if (d.trussness[e] == t + 3u) ++clique_edges;
  }
  EXPECT_GT(clique_edges, 0u);
  EXPECT_EQ(d.max_trussness, t + 3u);
}

TEST(MaxCoverageGadget, AnchoringASetEdgeLiftsExactlyItsElements) {
  // Claim (iii): anchoring a_i raises precisely the covered f_j, by 1 each.
  const MaxCoverageGadget gadget = MakePaperInstance();
  const Graph& g = gadget.graph;
  const TrussDecomposition base = ComputeTrussDecomposition(g);
  const std::vector<std::vector<uint32_t>> sets = {{0, 2}, {0, 1, 2}, {2, 3}};
  for (size_t i = 0; i < sets.size(); ++i) {
    const std::vector<EdgeId> followers =
        BruteForceFollowers(g, base, {}, gadget.set_edges[i]);
    std::vector<EdgeId> expected;
    for (uint32_t j : sets[i]) expected.push_back(gadget.element_edges[j]);
    std::sort(expected.begin(), expected.end());
    std::vector<EdgeId> actual = followers;
    std::sort(actual.begin(), actual.end());
    EXPECT_EQ(actual, expected) << "set " << i;
  }
}

TEST(MaxCoverageGadget, AnchoringElementOrCliqueEdgesGainsNothing) {
  // Claim (v): only set edges produce trussness gain.
  const MaxCoverageGadget gadget = MakePaperInstance();
  const Graph& g = gadget.graph;
  const TrussDecomposition base = ComputeTrussDecomposition(g);
  for (EdgeId f : gadget.element_edges) {
    EXPECT_EQ(TrussnessGain(g, base, {}, {f}), 0u) << "element edge " << f;
  }
  // Probe a few non-set, non-element edges (cliques).
  uint32_t probed = 0;
  for (EdgeId e = 0; e < g.NumEdges() && probed < 12; e += 37) {
    bool special = false;
    for (EdgeId a : gadget.set_edges) special |= (a == e);
    for (EdgeId f : gadget.element_edges) special |= (f == e);
    if (special) continue;
    EXPECT_EQ(TrussnessGain(g, base, {}, {e}), 0u) << "edge " << e;
    ++probed;
  }
}

TEST(MaxCoverageGadget, ExactBudgetOneSolvesMaxCoverage) {
  // Best single set is T2 with 3 elements; the ATR optimum must match.
  const MaxCoverageGadget gadget = MakePaperInstance();
  SolverOptions options;
  options.budget = 1;
  const SolveResult exact =
      RunExact(gadget.graph, ComputeTrussDecomposition(gadget.graph),
               BuildTriangleIndex(gadget.graph), options);
  EXPECT_EQ(exact.total_gain, 3u);
  ASSERT_EQ(exact.anchor_edges.size(), 1u);
  EXPECT_EQ(exact.anchor_edges[0], gadget.set_edges[1]);
}

TEST(MaxCoverageGadget, GreedyBudgetTwoCoversAllElements) {
  // Greedy coverage: T2 (3 elements) then T3 (adds e4) = 4 = optimum.
  const MaxCoverageGadget gadget = MakePaperInstance();
  SolverOptions options;
  options.budget = 2;
  const SolveResult gas =
      RunGas(gadget.graph, ComputeTrussDecomposition(gadget.graph),
             BuildTriangleIndex(gadget.graph), options);
  EXPECT_EQ(gas.total_gain, 4u);
  EXPECT_EQ(gas.anchor_edges[0], gadget.set_edges[1]);
  EXPECT_EQ(gas.anchor_edges[1], gadget.set_edges[2]);
}

TEST(MaxCoverageGadget, OverlappingSetsDoNotDoubleCount)  {
  // Claim (iv): an element edge covered by several anchored sets still
  // rises by exactly 1.
  const MaxCoverageGadget gadget = MakePaperInstance();
  const Graph& g = gadget.graph;
  const TrussDecomposition base = ComputeTrussDecomposition(g);
  // T1 and T2 overlap on elements {e1, e3}; union covers {e1, e2, e3}.
  const uint64_t gain =
      TrussnessGain(g, base, {}, {gadget.set_edges[0], gadget.set_edges[1]});
  EXPECT_EQ(gain, 3u);
}

}  // namespace
}  // namespace atr
