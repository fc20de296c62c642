// Tests for the unified solver API: registry lookup, options validation,
// AtrEngine decomposition-cache reuse, sweeps, cancellation, and the
// BASE / BASE+ / GAS identical-anchor-sequence property exercised through
// the registry.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>

#include "api/engine.h"
#include "api/registry.h"
#include "api/solver.h"
#include "core/exact.h"
#include "core/gas.h"
#include "core/random_baselines.h"
#include "tests/paper_fixtures.h"
#include "tests/test_helpers.h"
#include "truss/gain.h"

namespace atr {
namespace {

SolveResult MustSolve(const std::string& name, const Graph& g,
                      const SolverOptions& options) {
  StatusOr<std::unique_ptr<Solver>> solver = SolverRegistry::Create(name);
  EXPECT_TRUE(solver.ok()) << solver.status().message();
  StatusOr<SolveResult> result = (*solver)->Solve(g, options);
  EXPECT_TRUE(result.ok()) << result.status().message();
  return *std::move(result);
}

TEST(Registry, CreatesEveryBuiltinSolver) {
  for (const char* name :
       {"base", "base+", "gas", "exact", "rand", "sup", "tur", "akt:4"}) {
    StatusOr<std::unique_ptr<Solver>> solver = SolverRegistry::Create(name);
    ASSERT_TRUE(solver.ok()) << name << ": " << solver.status().message();
    EXPECT_EQ((*solver)->Name(), name);
  }
}

TEST(Registry, KnownSolversListsTheBuiltins) {
  const std::vector<std::string> names = SolverRegistry::KnownSolvers();
  for (const char* expected :
       {"base", "base+", "gas", "exact", "rand", "sup", "tur", "akt:<k>"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << expected;
  }
}

// Every solver stamps its registry name on its result and on each of its
// progress events.
TEST(Registry, EveryBuiltinReportsItsName) {
  const Graph g = MakeFig3Graph();
  for (const char* name :
       {"base", "base+", "gas", "exact", "rand", "sup", "tur", "akt:4"}) {
    SolverOptions options;
    options.budget = 2;
    uint32_t events = 0;
    options.progress = [&](const SolveProgress& progress) {
      EXPECT_EQ(progress.solver, name);
      ++events;
      return true;
    };
    const SolveResult result = MustSolve(name, g, options);
    EXPECT_EQ(result.solver, name);
    EXPECT_GT(events, 0u) << name;
  }
}

TEST(Registry, UnknownNameIsNotFound) {
  StatusOr<std::unique_ptr<Solver>> solver =
      SolverRegistry::Create("does-not-exist");
  ASSERT_FALSE(solver.ok());
  EXPECT_EQ(solver.status().code(), StatusCode::kNotFound);
  // The error lists the known solvers to aid discovery.
  EXPECT_NE(solver.status().message().find("gas"), std::string::npos);
}

TEST(Registry, MalformedAktParameterIsInvalidArgument) {
  for (const char* name : {"akt:", "akt:x", "akt:2", "akt:4x", "akt:-3"}) {
    StatusOr<std::unique_ptr<Solver>> solver = SolverRegistry::Create(name);
    ASSERT_FALSE(solver.ok()) << name;
    EXPECT_EQ(solver.status().code(), StatusCode::kInvalidArgument) << name;
  }
}

TEST(Options, BudgetOutOfRangeIsRejected) {
  const Graph g = MakeFig3Graph();
  StatusOr<std::unique_ptr<Solver>> solver = SolverRegistry::Create("gas");
  ASSERT_TRUE(solver.ok());

  SolverOptions zero;
  zero.budget = 0;
  EXPECT_EQ((*solver)->Solve(g, zero).status().code(),
            StatusCode::kInvalidArgument);

  SolverOptions huge;
  huge.budget = g.NumEdges() + 1;
  EXPECT_EQ((*solver)->Solve(g, huge).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(Options, CheckpointRulesAreEnforced) {
  const Graph g = MakeFig3Graph();
  StatusOr<std::unique_ptr<Solver>> solver = SolverRegistry::Create("gas");
  ASSERT_TRUE(solver.ok());

  SolverOptions not_ascending;
  not_ascending.budget = 4;
  not_ascending.budget_checkpoints = {2, 2, 4};
  EXPECT_EQ((*solver)->Solve(g, not_ascending).status().code(),
            StatusCode::kInvalidArgument);

  SolverOptions zero_start;
  zero_start.budget = 4;
  zero_start.budget_checkpoints = {0, 2, 4};
  EXPECT_EQ((*solver)->Solve(g, zero_start).status().code(),
            StatusCode::kInvalidArgument);

  SolverOptions wrong_tail;
  wrong_tail.budget = 4;
  wrong_tail.budget_checkpoints = {1, 3};
  EXPECT_EQ((*solver)->Solve(g, wrong_tail).status().code(),
            StatusCode::kInvalidArgument);

  SolverOptions ok;
  ok.budget = 4;
  ok.budget_checkpoints = {1, 2, 4};
  EXPECT_TRUE((*solver)->Solve(g, ok).ok());
}

TEST(Options, RandomBaselineRejectsZeroTrials) {
  const Graph g = MakeFig3Graph();
  SolverOptions options;
  options.budget = 2;
  options.trials = 0;
  StatusOr<std::unique_ptr<Solver>> solver = SolverRegistry::Create("rand");
  ASSERT_TRUE(solver.ok());
  EXPECT_EQ((*solver)->Solve(g, options).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(Api, GasThroughRegistryMatchesDirectCall) {
  const Graph g = MakeFig3Graph();
  SolverOptions options;
  options.budget = 3;
  const SolveResult via_api = MustSolve("gas", g, options);
  const SolveResult direct =
      RunGas(g, ComputeTrussDecomposition(g), BuildTriangleIndex(g), options);
  EXPECT_EQ(via_api.anchor_edges, direct.anchor_edges);
  EXPECT_EQ(via_api.total_gain, direct.total_gain);
  ASSERT_EQ(via_api.rounds.size(), direct.rounds.size());
  for (size_t i = 0; i < direct.rounds.size(); ++i) {
    EXPECT_EQ(via_api.rounds[i].gain, direct.rounds[i].gain);
  }
}

TEST(Api, TotalGainMatchesRedecomposition) {
  const Graph g = MakeFig3Graph();
  SolverOptions options;
  options.budget = 3;
  const SolveResult gas = MustSolve("gas", g, options);
  const TrussDecomposition base = ComputeTrussDecomposition(g);
  EXPECT_EQ(gas.total_gain, TrussnessGain(g, base, {}, gas.anchor_edges));
}

TEST(Api, ExactReportsOneRunPerCheckpoint) {
  const Graph g = MakeFig3Graph();
  SolverOptions options;
  options.budget = 2;
  options.budget_checkpoints = {1, 2};
  const SolveResult exact = MustSolve("exact", g, options);
  ASSERT_EQ(exact.gain_at_checkpoint.size(), 2u);
  // C(32, 1) + C(32, 2) subsets scored across the two checkpoints.
  EXPECT_EQ(exact.subsets_evaluated, 32u + 32u * 31u / 2u);
  EXPECT_GE(exact.gain_at_checkpoint[1], exact.gain_at_checkpoint[0]);
  EXPECT_EQ(exact.total_gain, exact.gain_at_checkpoint.back());
}

TEST(Api, AktSolverAnchorsVertices) {
  const Graph g = MakeFig3Graph();
  SolverOptions options;
  options.budget = 2;
  const SolveResult akt = MustSolve("akt:4", g, options);
  EXPECT_TRUE(akt.anchor_edges.empty());
  EXPECT_EQ(akt.anchor_vertices.size(), 2u);
  EXPECT_GT(akt.total_gain, 0u);
}

TEST(Api, ProgressCallbackSeesEveryRound) {
  const Graph g = MakeFig3Graph();
  SolverOptions options;
  options.budget = 3;
  std::vector<uint32_t> rounds_seen;
  options.progress = [&](const SolveProgress& progress) {
    EXPECT_EQ(progress.solver, "gas");
    EXPECT_EQ(progress.budget, 3u);
    rounds_seen.push_back(progress.round);
    return true;
  };
  const SolveResult gas = MustSolve("gas", g, options);
  EXPECT_FALSE(gas.stopped_early);
  EXPECT_EQ(rounds_seen, (std::vector<uint32_t>{1, 2, 3}));
}

TEST(Api, ProgressCallbackCanCancelAfterFirstRound) {
  const Graph g = MakeFig3Graph();
  SolverOptions options;
  options.budget = 5;
  options.progress = [](const SolveProgress& progress) {
    return progress.round < 1;  // stop after round 1
  };
  const SolveResult gas = MustSolve("gas", g, options);
  EXPECT_TRUE(gas.stopped_early);
  EXPECT_EQ(gas.anchor_edges.size(), 1u);
  // The single selected anchor is still the greedy's first choice.
  SolverOptions one;
  one.budget = 1;
  EXPECT_EQ(gas.anchor_edges[0],
            RunGas(g, ComputeTrussDecomposition(g), BuildTriangleIndex(g), one)
                .anchor_edges[0]);
}

TEST(Api, CancelFlagStopsBeforeAnyRound) {
  const Graph g = MakeFig3Graph();
  std::atomic<bool> cancel{true};
  SolverOptions options;
  options.budget = 3;
  options.cancel = &cancel;
  const SolveResult gas = MustSolve("gas", g, options);
  EXPECT_TRUE(gas.stopped_early);
  EXPECT_TRUE(gas.anchor_edges.empty());
}

TEST(Engine, DecompositionIsComputedOnceAcrossSolvers) {
  AtrEngine engine(MakeFig3Graph());
  EXPECT_EQ(engine.decomposition_builds(), 0u);  // lazy until needed

  SolverOptions options;
  options.budget = 2;
  ASSERT_TRUE(engine.Run("akt:4", options).ok());
  EXPECT_EQ(engine.decomposition_builds(), 1u);

  // Every further consumer — including the greedy family, which seeds its
  // round-1 state from the cache — reuses the cached decomposition.
  ASSERT_TRUE(engine.Run("akt:5", options).ok());
  ASSERT_TRUE(engine.Run("tur", options).ok());
  ASSERT_TRUE(engine.Run("gas", options).ok());
  ASSERT_TRUE(engine.Run("exact", options).ok());
  engine.Decomposition();
  EXPECT_EQ(engine.decomposition_builds(), 1u);
  EXPECT_GE(engine.decomposition_reuses(), 5u);
}

TEST(Engine, TriangleIndexIsBuiltOnceAcrossGreedySolves) {
  const Graph g = MakeFig3Graph();
  const TrussDecomposition base = ComputeTrussDecomposition(g);
  const TriangleIndex triangles = BuildTriangleIndex(g);
  AtrEngine engine(MakeFig3Graph());
  SolverOptions options;
  options.budget = 3;
  // AKT walks no index and leaves it unbuilt.
  ASSERT_TRUE(engine.Run("akt:3", options).ok());
  EXPECT_EQ(engine.triangle_index_builds(), 0u);

  // The first solve that walks it builds it, here rand's set scorer; exact
  // and the greedy solves, a sweep included, reuse it, and each selects
  // what a direct call on a fresh index selects.
  StatusOr<SolveResult> rand = engine.Run("rand", options);
  ASSERT_TRUE(rand.ok()) << rand.status().message();
  EXPECT_EQ(engine.triangle_index_builds(), 1u);
  StatusOr<SolveResult> exact = engine.Run("exact", options);
  ASSERT_TRUE(exact.ok()) << exact.status().message();
  StatusOr<SolveResult> direct_rand = RunRandomBaseline(
      g, base, triangles, RandomPoolKind::kAllEdges, options);
  ASSERT_TRUE(direct_rand.ok()) << direct_rand.status().message();
  EXPECT_EQ(rand->anchor_edges, direct_rand->anchor_edges);
  EXPECT_EQ(rand->total_gain, direct_rand->total_gain);
  const SolveResult direct_exact = RunExact(g, base, triangles, options);
  EXPECT_EQ(exact->anchor_edges, direct_exact.anchor_edges);
  EXPECT_EQ(exact->total_gain, direct_exact.total_gain);

  const SolveResult direct = RunGas(g, base, triangles, options);
  StatusOr<SolveResult> gas = engine.Run("gas", options);
  ASSERT_TRUE(gas.ok()) << gas.status().message();
  EXPECT_EQ(engine.triangle_index_builds(), 1u);
  StatusOr<SolveResult> base_plus = engine.Run("base+", options);
  ASSERT_TRUE(base_plus.ok()) << base_plus.status().message();
  StatusOr<SolveResult> sweep = engine.RunSweep("gas", {1, 2, 3});
  ASSERT_TRUE(sweep.ok()) << sweep.status().message();
  EXPECT_EQ(engine.triangle_index_builds(), 1u);
  EXPECT_EQ(engine.decomposition_builds(), 1u);
  EXPECT_EQ(gas->anchor_edges, direct.anchor_edges);
  EXPECT_EQ(base_plus->anchor_edges, direct.anchor_edges);
  EXPECT_EQ(sweep->anchor_edges, direct.anchor_edges);
  EXPECT_EQ(gas->total_gain, direct.total_gain);
}

TEST(Api, AktHonorsCancellationBetweenRounds) {
  const Graph g = MakeFig3Graph();
  SolverOptions options;
  options.budget = 4;
  options.progress = [](const SolveProgress& progress) {
    return progress.round < 1;  // stop after the first vertex
  };
  StatusOr<std::unique_ptr<Solver>> solver = SolverRegistry::Create("akt:4");
  ASSERT_TRUE(solver.ok());
  StatusOr<SolveResult> result = (*solver)->Solve(g, options);
  ASSERT_TRUE(result.ok()) << result.status().message();
  EXPECT_TRUE(result->stopped_early);
  EXPECT_EQ(result->anchor_vertices.size(), 1u);
}

// SolverOptions::cancel raised mid-run (from the progress callback after
// the first round/checkpoint): every round-structured solver stops at its
// next check and returns a valid prefix of its full run.
TEST(Api, CancelFlagRaisedMidRunLeavesValidPrefixOnEverySolver) {
  const Graph g = MakeFig3Graph();
  const TrussDecomposition base = ComputeTrussDecomposition(g);
  for (const char* solver : {"base", "base+", "gas", "exact", "akt:4"}) {
    SolverOptions full_options;
    full_options.budget = 3;
    if (std::string(solver) == "exact") {
      // Independent exhaustive runs per checkpoint; keep them tiny.
      full_options.budget = 2;
      full_options.budget_checkpoints = {1, 2};
    }
    const SolveResult full = MustSolve(solver, g, full_options);

    std::atomic<bool> cancel{false};
    SolverOptions options = full_options;
    options.cancel = &cancel;
    options.progress = [&cancel](const SolveProgress& progress) {
      if (progress.round == 1) cancel.store(true);
      return true;  // cancellation flows through the flag, not the return
    };
    const SolveResult stopped = MustSolve(solver, g, options);
    EXPECT_TRUE(stopped.stopped_early) << solver;
    if (std::string(solver) == "exact") {
      ASSERT_EQ(stopped.gain_at_checkpoint.size(), 1u) << solver;
      EXPECT_EQ(stopped.gain_at_checkpoint[0], full.gain_at_checkpoint[0]);
    } else if (std::string(solver) == "akt:4") {
      ASSERT_EQ(stopped.anchor_vertices.size(), 1u) << solver;
      EXPECT_EQ(stopped.anchor_vertices[0], full.anchor_vertices[0]);
    } else {
      ASSERT_EQ(stopped.anchor_edges.size(), 1u) << solver;
      EXPECT_EQ(stopped.anchor_edges[0], full.anchor_edges[0]) << solver;
      EXPECT_EQ(stopped.total_gain,
                TrussnessGain(g, base, {}, stopped.anchor_edges))
          << solver;
    }
  }
}

TEST(Api, RandomBaselineHonorsCancelFlag) {
  const Graph g = MakeFig3Graph();
  std::atomic<bool> cancel{true};
  SolverOptions options;
  options.budget = 2;
  options.trials = 50;
  options.cancel = &cancel;
  const SolveResult rand = MustSolve("rand", g, options);
  EXPECT_TRUE(rand.stopped_early);
  EXPECT_EQ(rand.total_gain, 0u);  // cancelled before any trial completed
}

TEST(Api, SupBudgetBeyondPoolIsRejected) {
  // Sup draws from the top-20% support pool; a budget beyond that pool
  // would silently under-deliver anchors, so it is an error.
  const Graph g = MakeFig3Graph();
  SolverOptions options;
  options.budget = g.NumEdges();  // valid vs |E|, far beyond the 20% pool
  StatusOr<std::unique_ptr<Solver>> solver = SolverRegistry::Create("sup");
  ASSERT_TRUE(solver.ok());
  EXPECT_EQ((*solver)->Solve(g, options).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(Engine, PrimedDecompositionIsNeverRecomputed) {
  Graph g = MakeFig3Graph();
  TrussDecomposition decomp = ComputeTrussDecomposition(g);
  AtrEngine engine(g, decomp);
  SolverOptions options;
  options.budget = 2;
  ASSERT_TRUE(engine.Run("akt:4", options).ok());
  ASSERT_TRUE(engine.Run("sup", options).ok());
  EXPECT_EQ(engine.decomposition_builds(), 0u);
  EXPECT_GE(engine.decomposition_reuses(), 2u);
  EXPECT_EQ(engine.MaxTrussness(), decomp.max_trussness);
}

TEST(Engine, RunSweepReportsPrefixGains) {
  AtrEngine engine(MakeFig3Graph());
  StatusOr<SolveResult> sweep = engine.RunSweep("gas", {1, 2, 4});
  ASSERT_TRUE(sweep.ok()) << sweep.status().message();
  ASSERT_EQ(sweep->gain_at_checkpoint.size(), 3u);
  ASSERT_EQ(sweep->rounds.size(), 4u);
  EXPECT_EQ(sweep->gain_at_checkpoint[0], sweep->rounds[0].gain);
  EXPECT_EQ(sweep->gain_at_checkpoint[1],
            sweep->rounds[0].gain + sweep->rounds[1].gain);
  EXPECT_EQ(sweep->gain_at_checkpoint[2], sweep->total_gain);
}

TEST(Engine, RunSweepOnRandomBaselineTracksCheckpoints) {
  AtrEngine engine(MakeFig3Graph());
  SolverOptions options;
  options.trials = 30;
  options.seed = 7;
  StatusOr<SolveResult> sweep = engine.RunSweep("rand", {1, 2, 3}, options);
  ASSERT_TRUE(sweep.ok()) << sweep.status().message();
  ASSERT_EQ(sweep->gain_at_checkpoint.size(), 3u);
  EXPECT_EQ(sweep->gain_at_checkpoint.back(), sweep->total_gain);
  EXPECT_EQ(sweep->trials, 30u);
}

TEST(Engine, UnknownSolverNameFlowsBackAsStatus) {
  AtrEngine engine(MakeFig3Graph());
  SolverOptions options;
  options.budget = 1;
  EXPECT_EQ(engine.Run("nope", options).status().code(),
            StatusCode::kNotFound);
}

// The repository's central property, exercised end-to-end through the
// registry: BASE, BASE+, and GAS are one greedy algorithm and must select
// identical anchor sequences with identical per-round gains.
class RegistryEquivalenceProperty : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(RegistryEquivalenceProperty, BaseBasePlusGasAgreeThroughRegistry) {
  const uint64_t seed = GetParam();
  const Graph g = MakePropertyGraph(seed);
  SolverOptions options;
  options.budget = 3 + seed % 3;

  const SolveResult base = MustSolve("base", g, options);
  const SolveResult plus = MustSolve("base+", g, options);
  const SolveResult gas = MustSolve("gas", g, options);

  EXPECT_EQ(base.anchor_edges, plus.anchor_edges) << "seed " << seed;
  EXPECT_EQ(base.anchor_edges, gas.anchor_edges) << "seed " << seed;
  EXPECT_EQ(base.total_gain, plus.total_gain) << "seed " << seed;
  EXPECT_EQ(base.total_gain, gas.total_gain) << "seed " << seed;
  ASSERT_EQ(base.rounds.size(), gas.rounds.size());
  for (size_t i = 0; i < base.rounds.size(); ++i) {
    EXPECT_EQ(base.rounds[i].gain, plus.rounds[i].gain)
        << "seed " << seed << " round " << i;
    EXPECT_EQ(base.rounds[i].gain, gas.rounds[i].gain)
        << "seed " << seed << " round " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RegistryEquivalenceProperty,
                         ::testing::Range<uint64_t>(0, 8));

}  // namespace
}  // namespace atr
