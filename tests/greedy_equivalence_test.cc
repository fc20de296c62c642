// The central correctness property of the repository: BASE (brute force),
// BASE+ (upward-route search) and GAS (route search + read-set reuse) are
// three implementations of the same greedy algorithm and must select
// identical anchor sequences with identical per-round gains. All solvers run
// through the unified registry API (api/registry.h) — the same code path
// benches and services use. Also checks the reported total gain against an
// independent anchored re-decomposition.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "api/registry.h"
#include "api/solver.h"
#include "graph/generators/social_profiles.h"
#include "tests/paper_fixtures.h"
#include "tests/test_helpers.h"
#include "truss/decomposition.h"
#include "truss/gain.h"

namespace atr {
namespace {

SolveResult RunVia(const char* solver_name, const Graph& g, uint32_t budget) {
  StatusOr<std::unique_ptr<Solver>> solver =
      SolverRegistry::Create(solver_name);
  EXPECT_TRUE(solver.ok()) << solver.status().message();
  SolverOptions options;
  options.budget = budget;
  StatusOr<SolveResult> result = (*solver)->Solve(g, options);
  EXPECT_TRUE(result.ok()) << result.status().message();
  return *std::move(result);
}

void ExpectSameSelections(const SolveResult& a, const SolveResult& b,
                          const char* label) {
  ASSERT_EQ(a.anchor_edges.size(), b.anchor_edges.size()) << label;
  for (size_t i = 0; i < a.anchor_edges.size(); ++i) {
    EXPECT_EQ(a.anchor_edges[i], b.anchor_edges[i]) << label << " round " << i;
    EXPECT_EQ(a.rounds[i].gain, b.rounds[i].gain) << label << " round " << i;
  }
  EXPECT_EQ(a.total_gain, b.total_gain) << label;
}

TEST(GreedyEquivalence, Fig3AllThreeAgree) {
  const Graph g = MakeFig3Graph();
  const SolveResult base = RunVia("base", g, 4);
  const SolveResult plus = RunVia("base+", g, 4);
  const SolveResult gas = RunVia("gas", g, 4);
  ExpectSameSelections(base, plus, "BASE vs BASE+");
  ExpectSameSelections(base, gas, "BASE vs GAS");
}

TEST(GreedyEquivalence, Fig3FirstAnchorLiftsThreeEdges) {
  // On the running example the best single anchor gains 3 (the 3-hull route
  // of Example 4 — no other edge does better).
  const Graph g = MakeFig3Graph();
  const SolveResult gas = RunVia("gas", g, 1);
  EXPECT_EQ(gas.rounds[0].gain, 3u);
}

TEST(GreedyEquivalence, TotalGainMatchesRedecomposition) {
  const Graph g = MakeFig3Graph();
  const SolveResult gas = RunVia("gas", g, 3);
  const TrussDecomposition base = ComputeTrussDecomposition(g);
  EXPECT_EQ(gas.total_gain, TrussnessGain(g, base, {}, gas.anchor_edges));
}

TEST(GreedyEquivalence, ReuseStatsCoverAllCandidates) {
  const Graph g = MakeFig3Graph();
  const SolveResult gas = RunVia("gas", g, 3);
  uint64_t classified_total = 0;
  for (size_t r = 0; r < gas.rounds.size(); ++r) {
    const AnchorRound& round = gas.rounds[r];
    const uint32_t classified = round.fully_reusable +
                                round.partially_reusable +
                                round.non_reusable;
    EXPECT_EQ(classified, g.NumEdges() - r) << "round " << r;
    classified_total += classified;
    if (r == 0) {
      // Round 1 computes everything from scratch.
      EXPECT_EQ(round.fully_reusable, 0u);
      EXPECT_EQ(round.partially_reusable, 0u);
    }
  }
  // The SolveResult reuse totals aggregate the per-round counters.
  EXPECT_EQ(gas.fully_reusable + gas.partially_reusable + gas.non_reusable,
            classified_total);
}

class GreedyEquivalenceProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GreedyEquivalenceProperty, BasePlusEqualsBase) {
  const Graph g = MakePropertyGraph(GetParam());
  const uint32_t budget = 3 + GetParam() % 3;
  ExpectSameSelections(RunVia("base", g, budget), RunVia("base+", g, budget),
                       "BASE vs BASE+");
}

TEST_P(GreedyEquivalenceProperty, GasEqualsBasePlus) {
  // The deeper budget stresses multi-round cache reuse in GAS.
  const Graph g = MakePropertyGraph(GetParam());
  const uint32_t budget = 5 + GetParam() % 4;
  ExpectSameSelections(RunVia("base+", g, budget), RunVia("gas", g, budget),
                       "BASE+ vs GAS");
}

TEST_P(GreedyEquivalenceProperty, GasTotalGainMatchesRedecomposition) {
  const uint64_t seed = GetParam();
  const Graph g = MakePropertyGraph(seed);
  const SolveResult gas = RunVia("gas", g, 4);
  const TrussDecomposition base = ComputeTrussDecomposition(g);
  EXPECT_EQ(gas.total_gain, TrussnessGain(g, base, {}, gas.anchor_edges))
      << "seed " << seed;
}

TEST_P(GreedyEquivalenceProperty, MarginalGainsAreFollowerCounts) {
  // Every reported round gain must equal the marginal gain of that anchor
  // given the previous ones (checked by incremental re-decomposition).
  const uint64_t seed = GetParam();
  const Graph g = MakePropertyGraph(seed);
  const SolveResult gas = RunVia("gas", g, 4);
  std::vector<bool> anchored(g.NumEdges(), false);
  TrussDecomposition current = ComputeTrussDecomposition(g, anchored);
  for (const AnchorRound& round : gas.rounds) {
    const uint64_t marginal =
        TrussnessGain(g, current, anchored, {round.anchor});
    EXPECT_EQ(marginal, round.gain) << "seed " << seed;
    anchored[round.anchor] = true;
    current = ComputeTrussDecomposition(g, anchored);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GreedyEquivalenceProperty,
                         ::testing::Range<uint64_t>(0, 20));

// Deep budgets on the profile families: many rounds of reuse on top of
// earlier commits. Geometric graphs at this size produce candidates whose
// seeds sit in different same-level truss components coupled only through
// the candidate edge itself; the web and hierarchy profiles are where GAS's
// read-set rule marks the most candidates per commit.
TEST(GreedyEquivalence, GeometricProfileDeepBudget) {
  const Graph g = MakeSocialProfile("gowalla", 0.05, 0);
  ExpectSameSelections(RunVia("base+", g, 10), RunVia("gas", g, 10),
                       "BASE+ vs GAS (gowalla stand-in)");
}

TEST(GreedyEquivalence, WebProfileDeepBudget) {
  const Graph g = MakeSocialProfile("google", 0.03, 0);
  ExpectSameSelections(RunVia("base+", g, 10), RunVia("gas", g, 10),
                       "BASE+ vs GAS (google stand-in)");
}

TEST(GreedyEquivalence, HierarchyProfileDeepBudget) {
  const Graph g = MakeSocialProfile("facebook", 0.03, 0);
  ExpectSameSelections(RunVia("base+", g, 10), RunVia("gas", g, 10),
                       "BASE+ vs GAS (facebook stand-in)");
}

// GAS re-searches a candidate only when its last search read an edge the
// commit wrote. On this graph a commit writes a few dozen edges, so every
// round after the first must reuse all but a few percent of its cached
// counts, and none is partly reused. A rule that marks too much (say,
// every candidate in the commit's truss component) fails the bound; one
// that marks too little diverges from BASE+.
TEST(GreedyEquivalence, GasResearchesFewCandidatesAfterRoundOne) {
  const Graph g = MakeSocialProfile("pokec", 0.05, 0);
  const SolveResult gas = RunVia("gas", g, 6);
  ASSERT_EQ(gas.rounds.size(), 6u);
  ExpectSameSelections(RunVia("base+", g, 6), gas, "BASE+ vs GAS");
  EXPECT_EQ(gas.rounds[0].fully_reusable, 0u);
  for (size_t r = 1; r < gas.rounds.size(); ++r) {
    const AnchorRound& round = gas.rounds[r];
    const uint32_t candidates = round.fully_reusable + round.non_reusable;
    EXPECT_EQ(candidates, gas.rounds[0].non_reusable - r) << "round " << r;
    EXPECT_LT(round.non_reusable * 20u, candidates) << "round " << r;
    EXPECT_EQ(round.partially_reusable, 0u) << "round " << r;
  }
}

SolveResult RunAtThreads(const char* solver_name, const Graph& g,
                         uint32_t budget, int threads) {
  StatusOr<std::unique_ptr<Solver>> solver =
      SolverRegistry::Create(solver_name);
  EXPECT_TRUE(solver.ok()) << solver.status().message();
  SolverOptions options;
  options.budget = budget;
  options.threads = threads;
  StatusOr<SolveResult> result = (*solver)->Solve(g, options);
  EXPECT_TRUE(result.ok()) << result.status().message();
  return *std::move(result);
}

// Everything a run reports except timings.
void ExpectIdenticalRuns(const SolveResult& a, const SolveResult& b,
                         const std::string& label) {
  ExpectSameSelections(a, b, label.c_str());
  ASSERT_EQ(a.rounds.size(), b.rounds.size()) << label;
  for (size_t i = 0; i < a.rounds.size(); ++i) {
    EXPECT_EQ(a.rounds[i].follower_trussness, b.rounds[i].follower_trussness)
        << label << " round " << i;
    EXPECT_EQ(a.rounds[i].fully_reusable, b.rounds[i].fully_reusable)
        << label << " round " << i;
    EXPECT_EQ(a.rounds[i].partially_reusable, b.rounds[i].partially_reusable)
        << label << " round " << i;
    EXPECT_EQ(a.rounds[i].non_reusable, b.rounds[i].non_reusable)
        << label << " round " << i;
  }
  EXPECT_EQ(a.fully_reusable, b.fully_reusable) << label;
  EXPECT_EQ(a.partially_reusable, b.partially_reusable) << label;
  EXPECT_EQ(a.non_reusable, b.non_reusable) << label;
}

// BASE+ and GAS hand candidates out in 256-edge blocks to whichever worker
// asks next, so the worker that evaluates (and, in GAS, caches) an edge
// changes from run to run. The property graphs above fit in one block;
// this graph spans dozens, so a claim-loop fault — a block skipped or
// evaluated twice, a worker's best lost in the fold, a block's read sets
// written by a worker that did not claim it — shows up as a divergence
// from the one-thread run. The nightly TSan leg runs this test to prove
// the cursor and the per-block cache writes race-free.
TEST(GreedyEquivalence, GasThreadSweepOnManyClaimBlocks) {
  const Graph g = MakeSocialProfile("pokec", 0.05, 0);
  ASSERT_GT(g.NumEdges(), 40u * 256);
  const SolveResult gas = RunAtThreads("gas", g, 6, 1);
  ASSERT_EQ(gas.anchor_edges.size(), 6u);
  const SolveResult plus = RunAtThreads("base+", g, 3, 1);
  for (const int threads : {2, 3, 8}) {
    const std::string label = "threads " + std::to_string(threads);
    ExpectIdenticalRuns(gas, RunAtThreads("gas", g, 6, threads),
                        "GAS " + label);
    ExpectIdenticalRuns(plus, RunAtThreads("base+", g, 3, threads),
                        "BASE+ " + label);
  }
  const SolveResult gas_prefix = RunAtThreads("gas", g, 3, 8);
  ExpectSameSelections(plus, gas_prefix, "BASE+ vs GAS");
  for (size_t i = 0; i < plus.rounds.size(); ++i) {
    EXPECT_EQ(plus.rounds[i].follower_trussness,
              gas_prefix.rounds[i].follower_trussness)
        << "BASE+ vs GAS round " << i;
  }
}

}  // namespace
}  // namespace atr
