// Tests for Exact, the randomized baselines (Rand/Sup/Tur), the AKT
// vertex-anchoring baseline, the edge-deletion baseline, and the
// non-submodularity of the gain function (Theorem 2).

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "core/akt.h"
#include "core/edge_deletion.h"
#include "core/exact.h"
#include "core/gas.h"
#include "core/random_baselines.h"
#include "graph/triangles.h"
#include "route/follower_search.h"
#include "tests/paper_fixtures.h"
#include "tests/test_helpers.h"
#include "truss/decomposition.h"
#include "truss/gain.h"
#include "truss/incremental.h"

namespace atr {
namespace {

SolverOptions Budget(uint32_t budget) {
  SolverOptions options;
  options.budget = budget;
  return options;
}

SolveResult DirectGas(const Graph& g, uint32_t budget) {
  return RunGas(g, ComputeTrussDecomposition(g), BuildTriangleIndex(g),
                Budget(budget));
}

TEST(Exact, MatchesGreedyOnFig3ForBudgetOne) {
  // With b = 1 greedy is optimal by definition of the greedy step.
  const Graph g = MakeFig3Graph();
  const SolveResult exact =
      RunExact(g, ComputeTrussDecomposition(g), Budget(1));
  const SolveResult gas = DirectGas(g, 1);
  EXPECT_EQ(exact.total_gain, gas.total_gain);
  EXPECT_EQ(exact.subsets_evaluated, g.NumEdges());
}

TEST(Exact, BudgetTwoDominatesGreedy) {
  const Graph g = MakeFig3Graph();
  const SolveResult exact =
      RunExact(g, ComputeTrussDecomposition(g), Budget(2));
  const SolveResult gas = DirectGas(g, 2);
  EXPECT_GE(exact.total_gain, gas.total_gain);
  // C(32, 2) subsets.
  EXPECT_EQ(exact.subsets_evaluated, 32u * 31u / 2u);
  // The exact answer itself must be reproducible by re-decomposition.
  const TrussDecomposition base = ComputeTrussDecomposition(g);
  EXPECT_EQ(exact.total_gain, TrussnessGain(g, base, {}, exact.anchor_edges));
}

// Witness graph for Theorem 2 (non-submodularity), in the spirit of the
// paper's Fig. 1(a): a trussness-3 edge c = (u, v) with exactly two
// triangles, each containing one trussness-3 partner (p1, p2) and one
// trussness-4 partner (q1, q2, pinned by a K4). Anchoring p1 or p2 alone
// leaves c one effective triangle short; anchoring both lifts c.
struct NonSubmodularWitness {
  Graph graph;
  EdgeId c, p1, p2;
};

NonSubmodularWitness MakeNonSubmodularWitness() {
  GraphBuilder b(10);
  const VertexId u = 0, v = 1, w1 = 2, w2 = 3;
  b.AddEdge(u, v);    // c
  b.AddEdge(u, w1);   // p1
  b.AddEdge(v, w1);   // q1
  b.AddEdge(u, w2);   // p2
  b.AddEdge(v, w2);   // q2
  // K4 {v, w1, 4, 5} pins t(q1) = 4; K4 {v, w2, 6, 7} pins t(q2) = 4.
  const VertexId k1[] = {v, w1, 4, 5};
  const VertexId k2[] = {v, w2, 6, 7};
  for (int i = 0; i < 4; ++i) {
    for (int j = i + 1; j < 4; ++j) {
      b.AddEdge(k1[i], k1[j]);
      b.AddEdge(k2[i], k2[j]);
    }
  }
  NonSubmodularWitness w;
  w.graph = b.Build();
  w.c = w.graph.FindEdge(u, v);
  w.p1 = w.graph.FindEdge(u, w1);
  w.p2 = w.graph.FindEdge(u, w2);
  return w;
}

TEST(GainFunction, IsNotSubmodularOnCraftedWitness) {
  const NonSubmodularWitness w = MakeNonSubmodularWitness();
  const TrussDecomposition base = ComputeTrussDecomposition(w.graph);
  ASSERT_EQ(base.trussness[w.c], 3u);
  ASSERT_EQ(base.trussness[w.p1], 3u);
  ASSERT_EQ(base.trussness[w.p2], 3u);
  const uint64_t gain_a = TrussnessGain(w.graph, base, {}, {w.p1});
  const uint64_t gain_b = TrussnessGain(w.graph, base, {}, {w.p2});
  const uint64_t gain_ab = TrussnessGain(w.graph, base, {}, {w.p1, w.p2});
  EXPECT_EQ(gain_a, 0u);
  EXPECT_EQ(gain_b, 0u);
  EXPECT_EQ(gain_ab, 1u);  // c rises: submodularity would force <= 0
  EXPECT_LT(gain_a + gain_b, gain_ab);
}

TEST(GainFunction, WitnessJointAnchorLiftsTheSharedEdge) {
  const NonSubmodularWitness w = MakeNonSubmodularWitness();
  const TrussDecomposition base = ComputeTrussDecomposition(w.graph);
  std::vector<bool> anchored(w.graph.NumEdges(), false);
  anchored[w.p1] = true;
  anchored[w.p2] = true;
  const TrussDecomposition after =
      ComputeTrussDecomposition(w.graph, anchored);
  EXPECT_EQ(after.trussness[w.c], 4u);
}

TEST(RandomBaselines, PoolsMatchTheirDefinitions) {
  const Graph g = MakeFig3Graph();
  const TrussDecomposition base = ComputeTrussDecomposition(g);
  const std::vector<EdgeId> all =
      BaselinePool(g, base, RandomPoolKind::kAllEdges);
  EXPECT_EQ(all.size(), g.NumEdges());

  const std::vector<EdgeId> sup =
      BaselinePool(g, base, RandomPoolKind::kTopSupport);
  EXPECT_EQ(sup.size(), static_cast<size_t>(g.NumEdges() * 0.2));
  const std::vector<uint32_t> support = ComputeSupport(g);
  uint32_t min_in_pool = 0xffffffffu;
  for (EdgeId e : sup) min_in_pool = std::min(min_in_pool, support[e]);
  uint32_t excluded_max = 0;
  for (EdgeId e = 0; e < g.NumEdges(); ++e) {
    if (std::find(sup.begin(), sup.end(), e) == sup.end()) {
      excluded_max = std::max(excluded_max, support[e]);
    }
  }
  EXPECT_GE(min_in_pool, excluded_max > 0 ? excluded_max - 1 : 0);

  const std::vector<EdgeId> tur =
      BaselinePool(g, base, RandomPoolKind::kTopRouteSize);
  EXPECT_EQ(tur.size(), static_cast<size_t>(g.NumEdges() * 0.2));
}

SolveResult DirectRand(const Graph& g, std::vector<uint32_t> checkpoints,
                       uint32_t trials, uint64_t seed) {
  SolverOptions options = Budget(checkpoints.back());
  options.budget_checkpoints = std::move(checkpoints);
  options.trials = trials;
  options.seed = seed;
  StatusOr<SolveResult> result = RunRandomBaseline(
      g, ComputeTrussDecomposition(g), RandomPoolKind::kAllEdges, options);
  EXPECT_TRUE(result.ok()) << result.status().message();
  return *std::move(result);
}

TEST(RandomBaselines, BestGainIsReproducible) {
  const Graph g = MakeFig3Graph();
  const SolveResult r1 = DirectRand(g, {2}, 50, 99);
  const SolveResult r2 = DirectRand(g, {2}, 50, 99);
  EXPECT_EQ(r1.total_gain, r2.total_gain);
  EXPECT_EQ(r1.anchor_edges, r2.anchor_edges);
  // Reported gain matches a re-decomposition of the reported anchors.
  const TrussDecomposition base = ComputeTrussDecomposition(g);
  EXPECT_EQ(r1.total_gain, TrussnessGain(g, base, {}, r1.anchor_edges));
}

TEST(RandomBaselines, CheckpointsTrackPrefixes) {
  const Graph g = MakeFig3Graph();
  const SolveResult r = DirectRand(g, {1, 2, 3}, 30, 7);
  ASSERT_EQ(r.gain_at_checkpoint.size(), 3u);
  EXPECT_EQ(r.gain_at_checkpoint.back(), r.total_gain);
}

TEST(Akt, FollowersAreHullEdgesInsideAnchoredKTruss) {
  const Graph g = MakeFig3Graph();
  const TrussDecomposition d = ComputeTrussDecomposition(g);
  // k = 4: anchoring v8 (paper index) retains 3-hull edges at v8.
  const VertexId v8 = 7;
  const std::vector<EdgeId> followers = AktFollowers(g, d, 4, {v8});
  EXPECT_FALSE(followers.empty());
  for (EdgeId e : followers) EXPECT_EQ(d.trussness[e], 3u);
}

TEST(Akt, NoAnchorsMeansNoFollowers) {
  const Graph g = MakeFig3Graph();
  const TrussDecomposition d = ComputeTrussDecomposition(g);
  for (uint32_t k = 4; k <= d.max_trussness + 1; ++k) {
    EXPECT_TRUE(AktFollowers(g, d, k, {}).empty()) << "k=" << k;
  }
}

TEST(Akt, GreedyGainIsMonotoneInRounds) {
  const Graph g = MakePropertyGraph(1);
  const TrussDecomposition d = ComputeTrussDecomposition(g);
  SolverOptions options = Budget(4);
  options.budget_checkpoints = {1, 2, 3, 4};
  const SolveResult result = RunAkt(g, d, 4, options);
  for (size_t i = 1; i < result.gain_at_checkpoint.size(); ++i) {
    EXPECT_GE(result.gain_at_checkpoint[i], result.gain_at_checkpoint[i - 1]);
  }
}

TEST(Akt, AnchoringV8AtKFourRetainsItsIncidentHullEdges) {
  // The paper's Example 1 mechanism: anchoring v8 keeps its incident
  // trussness-3 edges in the 4-truss for as long as they close a triangle;
  // (v9,v10) is not incident and loses its last triangle, so it falls.
  const Graph g = MakeFig3Graph();
  const TrussDecomposition d = ComputeTrussDecomposition(g);
  const VertexId v8 = 7;
  std::vector<EdgeId> followers = AktFollowers(g, d, 4, {v8});
  std::sort(followers.begin(), followers.end());
  std::vector<EdgeId> expected = {Fig3Edge(g, 5, 8), Fig3Edge(g, 7, 8),
                                  Fig3Edge(g, 8, 9)};
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(followers, expected);
}

TEST(Akt, LiftsOnlyTheSingleHullLevel) {
  // The limitation the ATR problem removes: AKT at level k can only lift
  // (k-1)-trussness edges, whatever vertices it anchors.
  const Graph g = MakePropertyGraph(2);
  const TrussDecomposition d = ComputeTrussDecomposition(g);
  const SolveResult result = RunAkt(g, d, 4, Budget(3));
  const std::vector<EdgeId> followers =
      AktFollowers(g, d, 4, result.anchor_vertices);
  for (EdgeId e : followers) EXPECT_EQ(d.trussness[e], 3u);
  EXPECT_EQ(result.total_gain, followers.size());
}

TEST(EdgeDeletion, SelectsDistinctEdgesAndReportsTrueGain) {
  const Graph g = MakeFig3Graph();
  const EdgeDeletionResult result = RunEdgeDeletionBaseline(g, 3);
  ASSERT_EQ(result.anchors.size(), 3u);
  std::vector<EdgeId> unique_anchors = result.anchors;
  std::sort(unique_anchors.begin(), unique_anchors.end());
  unique_anchors.erase(
      std::unique(unique_anchors.begin(), unique_anchors.end()),
      unique_anchors.end());
  EXPECT_EQ(unique_anchors.size(), 3u);
  const TrussDecomposition base = ComputeTrussDecomposition(g);
  EXPECT_EQ(result.total_gain, TrussnessGain(g, base, {}, result.anchors));
}

TEST(EdgeDeletion, IsWeakerThanGasOnClusteredGraphs) {
  // The case-study claim: deletion-critical edges are poor anchors.
  const Graph g = MakePropertyGraph(2);
  const EdgeDeletionResult deletion = RunEdgeDeletionBaseline(g, 3);
  const SolveResult gas = DirectGas(g, 3);
  EXPECT_GE(gas.total_gain, deletion.total_gain);
}

TEST(EdgeDeletion, MatchesBruteForcePerCandidateRecomputation) {
  // The baseline now scores candidates with speculative incremental
  // RemoveEdge + rollback; the selection must equal the historical
  // brute-force ranking (one subset decomposition per candidate).
  for (uint64_t seed : {0ull, 1ull, 3ull}) {
    const Graph g = MakePropertyGraph(seed);
    const uint32_t m = g.NumEdges();
    const TrussDecomposition base = ComputeTrussDecomposition(g);
    uint64_t baseline_total = 0;
    for (EdgeId e = 0; e < m; ++e) baseline_total += base.trussness[e];
    std::vector<uint64_t> impact(m, 0);
    for (EdgeId deleted = 0; deleted < m; ++deleted) {
      std::vector<EdgeId> subset;
      for (EdgeId e = 0; e < m; ++e) {
        if (e != deleted) subset.push_back(e);
      }
      const TrussDecomposition without =
          ComputeTrussDecompositionOnSubset(g, {}, subset);
      uint64_t remaining = 0;
      for (EdgeId e : subset) remaining += without.trussness[e];
      impact[deleted] = baseline_total - remaining - base.trussness[deleted];
    }
    std::vector<EdgeId> order(m);
    std::iota(order.begin(), order.end(), 0u);
    std::sort(order.begin(), order.end(), [&impact](EdgeId a, EdgeId b) {
      return impact[a] != impact[b] ? impact[a] > impact[b] : a < b;
    });
    const EdgeDeletionResult result = RunEdgeDeletionBaseline(g, 3);
    EXPECT_EQ(result.anchors,
              std::vector<EdgeId>(order.begin(), order.begin() + 3))
        << "seed " << seed;
  }
}

TEST(EdgeDeletion, DuplicateCandidateEvaluationIsStable) {
  // Regression for the duplicate-candidate case: scoring the same edge
  // twice in one round (as a chunk does after a rollback) must read
  // identical support state both times, not the remnants of the first
  // evaluation.
  const Graph g = MakeFig3Graph();
  IncrementalTruss engine(g);
  for (EdgeId e = 0; e < g.NumEdges(); ++e) {
    const IncrementalTruss::Checkpoint cp = engine.MarkRollbackPoint();
    const uint64_t first = engine.RemoveEdge(e);
    engine.RollbackTo(cp);
    const uint64_t second = engine.RemoveEdge(e);
    engine.RollbackTo(cp);
    EXPECT_EQ(first, second) << "edge " << e;
  }
}

TEST(Gain, DuplicateAnchorsInOneRoundCountOnce) {
  // TrussnessGain must treat {e, e} exactly like {e} — a duplicated
  // candidate in one round neither double-counts its followers nor trips
  // the anchored-edge bookkeeping.
  const Graph g = MakeFig3Graph();
  const TrussDecomposition base = ComputeTrussDecomposition(g);
  const EdgeId e = Fig3Edge(g, 5, 8);
  ASSERT_NE(e, kInvalidEdge);
  EXPECT_EQ(TrussnessGain(g, base, {}, {e, e}),
            TrussnessGain(g, base, {}, {e}));
}

TEST(Gain, RespectsRemovedEdgesInsteadOfResurrectingThem) {
  // Regression for the stale-support read: when `base` was computed over a
  // subset (removed edges report kTrussnessNotComputed), the gain oracle
  // must re-decompose over that same subset. The historical full-graph
  // recompute silently resurrected removed edges and credited their
  // trussness as gain.
  const Graph g = MakeFig3Graph();
  const uint32_t m = g.NumEdges();
  // Remove one edge of the 5-clique; anchor another clique edge.
  const EdgeId removed = Fig3Edge(g, 3, 4);
  const EdgeId anchor = Fig3Edge(g, 3, 5);
  ASSERT_NE(removed, kInvalidEdge);
  ASSERT_NE(anchor, kInvalidEdge);
  std::vector<EdgeId> subset;
  for (EdgeId e = 0; e < m; ++e) {
    if (e != removed) subset.push_back(e);
  }
  const TrussDecomposition base =
      ComputeTrussDecompositionOnSubset(g, {}, subset);

  // Independent oracle: rebuild the graph without the removed edge and
  // compute the gain there.
  GraphBuilder builder(g.NumVertices());
  for (EdgeId e = 0; e < m; ++e) {
    if (e == removed) continue;
    builder.AddEdge(g.Edge(e).u, g.Edge(e).v);
  }
  const Graph rebuilt = builder.Build();
  const EdgeId rebuilt_anchor =
      rebuilt.FindEdge(g.Edge(anchor).u, g.Edge(anchor).v);
  ASSERT_NE(rebuilt_anchor, kInvalidEdge);
  const TrussDecomposition rebuilt_base = ComputeTrussDecomposition(rebuilt);

  EXPECT_EQ(TrussnessGain(g, base, {}, {anchor}),
            TrussnessGain(rebuilt, rebuilt_base, {}, {rebuilt_anchor}));
  EXPECT_EQ(BruteForceFollowers(g, base, {}, anchor).size(),
            BruteForceFollowers(rebuilt, rebuilt_base, {}, rebuilt_anchor)
                .size());
}

}  // namespace
}  // namespace atr
