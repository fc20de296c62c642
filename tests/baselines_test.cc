// Tests for Exact, the randomized baselines (Rand/Sup/Tur), the AKT
// vertex-anchoring baseline, the edge-deletion baseline, the incremental
// set scorer they share (IncrementalTruss::ScoreAnchorSet), and the
// non-submodularity of the gain function (Theorem 2).
//
// Stress knobs (the CI nightly job turns these up):
//   ATR_STRESS_ITERS — multiplies the number of scored sets (default 1)
//   ATR_STRESS_SEED  — offsets the set streams (default 0)

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "api/registry.h"
#include "core/akt.h"
#include "core/edge_deletion.h"
#include "core/exact.h"
#include "core/gas.h"
#include "core/random_baselines.h"
#include "graph/generators/social_profiles.h"
#include "graph/subgraph.h"
#include "graph/triangles.h"
#include "route/follower_search.h"
#include "tests/paper_fixtures.h"
#include "tests/test_helpers.h"
#include "truss/decomposition.h"
#include "truss/gain.h"
#include "truss/incremental.h"
#include "util/env.h"
#include "util/prng.h"

namespace atr {
namespace {

uint64_t StressIters() {
  return static_cast<uint64_t>(
      std::max<int64_t>(1, GetEnvInt64("ATR_STRESS_ITERS", 1)));
}

uint64_t StressSeed() {
  return static_cast<uint64_t>(
      std::max<int64_t>(0, GetEnvInt64("ATR_STRESS_SEED", 0)));
}

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
  const SolveResult exact = RunExact(g, ComputeTrussDecomposition(g),
                                     BuildTriangleIndex(g), Budget(1));
  const SolveResult gas = DirectGas(g, 1);
  EXPECT_EQ(exact.total_gain, gas.total_gain);
  EXPECT_EQ(exact.subsets_evaluated, g.NumEdges());
}

TEST(Exact, BudgetTwoDominatesGreedy) {
  const Graph g = MakeFig3Graph();
  const SolveResult exact = RunExact(g, ComputeTrussDecomposition(g),
                                     BuildTriangleIndex(g), Budget(2));
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
  const TriangleIndex triangles = BuildTriangleIndex(g);
  const std::vector<EdgeId> all =
      BaselinePool(g, base, triangles, RandomPoolKind::kAllEdges);
  EXPECT_EQ(all.size(), g.NumEdges());

  const std::vector<EdgeId> sup =
      BaselinePool(g, base, triangles, RandomPoolKind::kTopSupport);
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
      BaselinePool(g, base, triangles, RandomPoolKind::kTopRouteSize);
  EXPECT_EQ(tur.size(), static_cast<size_t>(g.NumEdges() * 0.2));
}

SolveResult DirectRand(const Graph& g, std::vector<uint32_t> checkpoints,
                       uint32_t trials, uint64_t seed) {
  SolverOptions options = Budget(checkpoints.back());
  options.budget_checkpoints = std::move(checkpoints);
  options.trials = trials;
  options.seed = seed;
  StatusOr<SolveResult> result =
      RunRandomBaseline(g, ComputeTrussDecomposition(g), BuildTriangleIndex(g),
                        RandomPoolKind::kAllEdges, options);
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

// --- The incremental set scorer -------------------------------------------

struct NamedGraph {
  std::string name;
  Graph graph;
};

// The paper's running example, a serve_mixed-sized Holme–Kim graph, and an
// Exact-sized ego-ball extract of the facebook stand-in. The extract grows
// from the lowest-degree vertex: those around its hubs are near-cliques in
// which no single anchor has a follower.
std::vector<NamedGraph> ScorerGraphs() {
  std::vector<NamedGraph> graphs;
  graphs.push_back({"fig3", MakeFig3Graph()});
  graphs.push_back({"holme-kim", HolmeKimGraph(1000, 5, 0.5, 131)});
  const Graph facebook = MakeSocialProfile("facebook", 0.05, 0);
  VertexId seed = 0;
  for (VertexId v = 1; v < facebook.NumVertices(); ++v) {
    if (facebook.Degree(v) < facebook.Degree(seed)) seed = v;
  }
  graphs.push_back(
      {"facebook extract", ExtractEgoBall(facebook, seed, 150, 250)});
  return graphs;
}

TEST(SetScorer, PrefixGainsMatchTheRedecompositionOracle) {
  // Random anchor sequences from the Rand and Sup pools, b up to 30, with
  // random checkpoints. Every checkpoint gain must equal TrussnessGain of
  // that prefix, and the scorer must leave the engine as it found it.
  uint64_t risen_sets = 0;
  for (const NamedGraph& named : ScorerGraphs()) {
    const Graph& g = named.graph;
    const TrussDecomposition base = ComputeTrussDecomposition(g);
    const TriangleIndex triangles = BuildTriangleIndex(g);
    IncrementalTruss engine(g, base, &triangles);
    const std::vector<EdgeId> pools[] = {
        BaselinePool(g, base, triangles, RandomPoolKind::kAllEdges),
        BaselinePool(g, base, triangles, RandomPoolKind::kTopSupport)};
    // Edges with at least one follower: where a chain of risen anchors can
    // start.
    std::vector<EdgeId> lifting;
    FollowerSearch search(g, triangles);
    search.SetState(&base, nullptr);
    for (EdgeId e = 0; e < g.NumEdges(); ++e) {
      if (search.CountFollowers(e) > 0) lifting.push_back(e);
    }
    ASSERT_FALSE(lifting.empty()) << named.name;
    Rng rng(StressSeed() * 1000003ULL + g.NumEdges());
    const uint64_t sets = 16 * StressIters();
    for (uint64_t set = 0; set < sets; ++set) {
      const std::vector<EdgeId>& pool = pools[set % 2];
      const uint32_t cap = std::min<uint32_t>(
          30, static_cast<uint32_t>(pool.size()));
      const uint32_t b = 1 + static_cast<uint32_t>(rng.NextBounded(cap));
      std::vector<uint32_t> picks =
          rng.SampleWithoutReplacement(static_cast<uint32_t>(pool.size()), b);
      rng.Shuffle(picks);
      std::vector<EdgeId> anchors;
      for (const uint32_t p : picks) anchors.push_back(pool[p]);
      // Replay the set. Every other set is a chain: it starts at an edge
      // with followers, and each anchor that has followers is followed by
      // one of them, which has risen by the time it is anchored.
      const bool chain = set % 2 == 1;
      auto place = [&anchors](size_t i, EdgeId e) {
        const auto at = std::find(anchors.begin() + i, anchors.end(), e);
        if (at != anchors.end()) {
          std::iter_swap(anchors.begin() + i, at);
        } else {
          anchors[i] = e;
        }
      };
      if (chain) place(0, lifting[rng.NextBounded(lifting.size())]);
      IncrementalTruss replay(engine);
      std::vector<EdgeId> followers;
      bool risen = false;
      for (uint32_t i = 0; i < b; ++i) {
        risen = risen || replay.decomposition().trussness[anchors[i]] !=
                             base.trussness[anchors[i]];
        replay.ApplyAnchor(anchors[i], &followers);
        if (chain && i + 1 < b && !followers.empty()) {
          place(i + 1, followers[rng.NextBounded(followers.size())]);
        }
      }
      risen_sets += risen ? 1 : 0;
      // Checkpoints: a random ascending subset of [1, b], never empty, and
      // sometimes short of b.
      std::vector<uint32_t> checkpoints;
      for (uint32_t c = 1; c <= b; ++c) {
        if (c == b ? set % 3 != 0 || checkpoints.empty()
                   : rng.NextBounded(3) == 0) {
          checkpoints.push_back(c);
        }
      }
      std::vector<uint64_t> gains(checkpoints.size());
      engine.ScoreAnchorSet(anchors, checkpoints, gains);

      const std::string label = named.name + " set " + std::to_string(set);
      for (size_t c = 0; c < checkpoints.size(); ++c) {
        const std::vector<EdgeId> prefix(anchors.begin(),
                                         anchors.begin() + checkpoints[c]);
        ASSERT_EQ(gains[c], TrussnessGain(g, base, {}, prefix))
            << label << " prefix " << checkpoints[c];
      }
      ASSERT_EQ(engine.decomposition().trussness, base.trussness) << label;
      ASSERT_EQ(engine.decomposition().layer, base.layer) << label;
      ASSERT_EQ(engine.anchored(), std::vector<bool>(g.NumEdges(), false));
    }
  }
  // Sets where an earlier anchor raises a later one; without them,
  // dropping the rise term would go unnoticed.
  EXPECT_GT(risen_sets, 0u);
}

// The trial streams of RunRandomBaseline, each draw scored by
// re-decomposition: what every draw cost before the incremental scorer.
SolveResult OracleRandomBaseline(const Graph& g, RandomPoolKind kind,
                                 const SolverOptions& options) {
  const TrussDecomposition base = ComputeTrussDecomposition(g);
  const std::vector<EdgeId> pool =
      BaselinePool(g, base, BuildTriangleIndex(g), kind);
  const std::vector<uint32_t> checkpoints = EffectiveCheckpoints(options);
  SolveResult result;
  result.trials = options.trials;
  result.gain_at_checkpoint.assign(checkpoints.size(), 0);
  bool have_best = false;
  for (uint32_t trial = 0; trial < options.trials; ++trial) {
    Rng rng(options.seed ^ (0x9e3779b97f4a7c15ULL * (trial + 1)));
    std::vector<uint32_t> picks = rng.SampleWithoutReplacement(
        static_cast<uint32_t>(pool.size()), options.budget);
    rng.Shuffle(picks);
    std::vector<EdgeId> anchors;
    for (const uint32_t p : picks) anchors.push_back(pool[p]);
    for (size_t c = 0; c < checkpoints.size(); ++c) {
      const uint64_t gain = TrussnessGain(
          g, base, {},
          std::vector<EdgeId>(anchors.begin(),
                              anchors.begin() + checkpoints[c]));
      result.gain_at_checkpoint[c] =
          std::max(result.gain_at_checkpoint[c], gain);
      if (c + 1 == checkpoints.size() &&
          (!have_best || gain > result.total_gain)) {
        have_best = true;
        result.total_gain = gain;
        result.anchor_edges = anchors;
      }
    }
  }
  return result;
}

// Exact by re-decomposing every subset, one checkpoint after another.
SolveResult OracleExact(const Graph& g, const SolverOptions& options) {
  const TrussDecomposition base = ComputeTrussDecomposition(g);
  const uint32_t m = g.NumEdges();
  SolveResult result;
  for (const uint32_t budget : EffectiveCheckpoints(options)) {
    // Lexicographic enumeration; the first best subset wins ties.
    std::vector<EdgeId> subset(budget);
    std::iota(subset.begin(), subset.end(), 0u);
    bool have_best = false;
    for (;;) {
      const uint64_t gain = TrussnessGain(g, base, {}, subset);
      ++result.subsets_evaluated;
      if (!have_best || gain > result.total_gain) {
        have_best = true;
        result.total_gain = gain;
        result.anchor_edges = subset;
      }
      int i = static_cast<int>(budget) - 1;
      while (i >= 0 && subset[i] == m - budget + i) --i;
      if (i < 0) break;
      ++subset[i];
      for (uint32_t j = i + 1; j < budget; ++j) subset[j] = subset[j - 1] + 1;
    }
    result.gain_at_checkpoint.push_back(result.total_gain);
  }
  return result;
}

TEST(SetScorer, RegistrySolversMatchTheRedecompositionReference) {
  const std::vector<NamedGraph> graphs = [] {
    std::vector<NamedGraph> out;
    out.push_back({"fig3", MakeFig3Graph()});
    for (const uint64_t seed : {1ull, 2ull, 4ull}) {
      out.push_back({"property " + std::to_string(seed),
                     MakePropertyGraph(seed)});
    }
    return out;
  }();
  const std::pair<const char*, RandomPoolKind> randomized[] = {
      {"rand", RandomPoolKind::kAllEdges},
      {"sup", RandomPoolKind::kTopSupport},
      {"tur", RandomPoolKind::kTopRouteSize}};
  for (const NamedGraph& named : graphs) {
    const Graph& g = named.graph;
    SolverOptions swept;
    swept.budget = 6;
    swept.budget_checkpoints = {1, 3, 6};
    swept.trials = 24;
    swept.seed = 17;
    SolverOptions exact;
    exact.budget = 2;
    exact.budget_checkpoints = {1, 2};
    std::vector<std::pair<std::string, SolveResult>> references;
    for (const auto& [name, kind] : randomized) {
      references.emplace_back(name, OracleRandomBaseline(g, kind, swept));
    }
    references.emplace_back("exact", OracleExact(g, exact));

    for (const int threads : {1, 8}) {
      for (const auto& [name, reference] : references) {
        SolverOptions options = name == "exact" ? exact : swept;
        options.threads = threads;
        StatusOr<std::unique_ptr<Solver>> solver = SolverRegistry::Create(name);
        ASSERT_TRUE(solver.ok()) << name;
        StatusOr<SolveResult> result = (*solver)->Solve(g, options);
        ASSERT_TRUE(result.ok()) << result.status().message();
        const std::string label = named.name + " " + name + " at " +
                                  std::to_string(threads) + " threads";
        EXPECT_EQ(result->anchor_edges, reference.anchor_edges) << label;
        EXPECT_EQ(result->total_gain, reference.total_gain) << label;
        EXPECT_EQ(result->gain_at_checkpoint, reference.gain_at_checkpoint)
            << label;
        EXPECT_EQ(result->trials, reference.trials) << label;
        EXPECT_EQ(result->subsets_evaluated, reference.subsets_evaluated)
            << label;
      }
    }
  }
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
