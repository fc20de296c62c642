// Randomized differential harness for the incremental truss maintenance
// engine: on hundreds of seeded random graphs (Erdős–Rényi and power-law
// families), interleave ApplyAnchor / RemoveEdge operations and assert
// after EVERY step that the maintained decomposition — trussness, layer,
// and max_trussness — is byte-identical to a from-scratch
// ComputeTrussDecompositionOnSubset over the same anchors and alive
// edges. Undo round-trips are checked by snapshotting, applying more
// operations, rolling back, and comparing the full state.
//
// Stress knobs (the CI nightly job turns these up):
//   ATR_STRESS_ITERS — multiplies the number of random graphs (default 1)
//   ATR_STRESS_SEED  — offsets every graph seed (default 0), so each
//                      nightly run explores a fresh slice of the space

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <vector>

#include "graph/generators/generators.h"
#include "graph/generators/social_profiles.h"
#include "graph/graph.h"
#include "graph/triangle_index.h"
#include "graph/triangles.h"
#include "tests/paper_fixtures.h"
#include "truss/decomposition.h"
#include "truss/gain.h"
#include "truss/incremental.h"
#include "util/env.h"
#include "util/prng.h"

namespace atr {
namespace {

uint64_t StressIters() {
  return static_cast<uint64_t>(std::max<int64_t>(1, GetEnvInt64("ATR_STRESS_ITERS", 1)));
}

uint64_t StressSeed() {
  return static_cast<uint64_t>(std::max<int64_t>(0, GetEnvInt64("ATR_STRESS_SEED", 0)));
}

// The issue's two required families plus their parameter spread.
Graph MakeDifferentialGraph(uint64_t seed) {
  if (seed % 2 == 0) {
    return ErdosRenyiGraph(25 + seed % 30, 60 + (seed * 13) % 120, seed);
  }
  // Power-law with triad closure so the truss structure is non-trivial.
  return HolmeKimGraph(30 + seed % 25, 2 + seed % 3,
                       0.3 + 0.1 * (seed % 6), seed);
}

// From-scratch oracle over the engine's current anchor + alive state.
TrussDecomposition Oracle(const IncrementalTruss& inc) {
  return ComputeTrussDecompositionOnSubset(inc.graph(), inc.anchored(),
                                           inc.AliveEdges());
}

void ExpectByteIdentical(const IncrementalTruss& inc, uint64_t seed,
                         int step) {
  const TrussDecomposition oracle = Oracle(inc);
  const TrussDecomposition& maintained = inc.decomposition();
  ASSERT_EQ(maintained.trussness, oracle.trussness)
      << "trussness diverged, seed " << seed << " step " << step;
  ASSERT_EQ(maintained.layer, oracle.layer)
      << "layer diverged, seed " << seed << " step " << step;
  ASSERT_EQ(maintained.max_trussness, oracle.max_trussness)
      << "max_trussness diverged, seed " << seed << " step " << step;
}

struct StateSnapshot {
  std::vector<uint32_t> trussness;
  std::vector<uint32_t> layer;
  uint32_t max_trussness;
  std::vector<bool> anchored;
  uint64_t total_trussness;

  explicit StateSnapshot(const IncrementalTruss& inc)
      : trussness(inc.decomposition().trussness),
        layer(inc.decomposition().layer),
        max_trussness(inc.decomposition().max_trussness),
        anchored(inc.anchored()),
        total_trussness(inc.total_trussness()) {}

  void ExpectEquals(const IncrementalTruss& inc, uint64_t seed) const {
    EXPECT_EQ(trussness, inc.decomposition().trussness) << "seed " << seed;
    EXPECT_EQ(layer, inc.decomposition().layer) << "seed " << seed;
    EXPECT_EQ(max_trussness, inc.decomposition().max_trussness)
        << "seed " << seed;
    EXPECT_EQ(anchored, inc.anchored()) << "seed " << seed;
    EXPECT_EQ(total_trussness, inc.total_trussness()) << "seed " << seed;
  }
};

// Picks a random alive, non-anchored edge; kInvalidEdge when none remain.
EdgeId PickMutableEdge(const IncrementalTruss& inc, Rng& rng) {
  std::vector<EdgeId> eligible;
  for (EdgeId e = 0; e < inc.graph().NumEdges(); ++e) {
    if (inc.IsAlive(e) && !inc.IsAnchored(e)) eligible.push_back(e);
  }
  if (eligible.empty()) return kInvalidEdge;
  return eligible[rng.NextBounded(eligible.size())];
}

// One randomized episode: interleaved anchors/removals with a full oracle
// comparison after every step, plus one mid-episode rollback round-trip.
// `use_index` gives the engine BuildTriangleIndex(g), so every walk reads
// the index instead of the adjacency lists.
void RunEpisode(uint64_t seed, bool use_index) {
  const Graph g = MakeDifferentialGraph(seed);
  if (g.NumEdges() == 0) return;
  const TriangleIndex triangles = BuildTriangleIndex(g);
  IncrementalTruss inc = use_index
                             ? IncrementalTruss(g, ComputeTrussDecomposition(g),
                                                &triangles)
                             : IncrementalTruss(g);
  ExpectByteIdentical(inc, seed, -1);

  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  const int steps = 8 + static_cast<int>(rng.NextBounded(8));
  for (int step = 0; step < steps; ++step) {
    const EdgeId e = PickMutableEdge(inc, rng);
    if (e == kInvalidEdge) break;
    if (rng.NextBounded(100) < 55) {
      const TrussDecomposition before = inc.decomposition();
      const std::vector<bool> anchored_before = inc.anchored();
      const uint32_t gain = inc.ApplyAnchor(e);
      // The reported gain is the trussness-gain oracle of Definition 4.
      EXPECT_EQ(gain, TrussnessGain(g, before, anchored_before, {e}))
          << "seed " << seed << " step " << step;
    } else {
      inc.RemoveEdge(e);
    }
    ASSERT_NO_FATAL_FAILURE(ExpectByteIdentical(inc, seed, step));
  }

  // FollowerSearch and the affected-region re-peel must have agreed on
  // every ApplyAnchor (mismatches fall back to a correct full rebuild, but
  // are a bug in one of the two engines).
  EXPECT_EQ(inc.stats().follower_mismatches, 0u) << "seed " << seed;

  // Rollback round-trip: speculate a few more operations, then undo them.
  const StateSnapshot snapshot(inc);
  const IncrementalTruss::Checkpoint cp = inc.MarkRollbackPoint();
  Rng spec_rng(seed ^ 0xabcdef12345678ULL);
  for (int i = 0; i < 4; ++i) {
    const EdgeId e = PickMutableEdge(inc, spec_rng);
    if (e == kInvalidEdge) break;
    if (spec_rng.NextBounded(2) == 0) {
      inc.ApplyAnchor(e);
    } else {
      inc.RemoveEdge(e);
    }
  }
  inc.RollbackTo(cp);
  snapshot.ExpectEquals(inc, seed);
  ASSERT_NO_FATAL_FAILURE(ExpectByteIdentical(inc, seed, steps));
}

TEST(IncrementalDifferential, RandomizedInterleavedOpsMatchOracle) {
  // ~200 graphs at the default multiplier: 100 ER + 100 power-law, each
  // run on an engine that walks adjacency lists and on one that walks a
  // triangle index.
  const uint64_t episodes = 200 * StressIters();
  const uint64_t base = StressSeed() * 1000003ULL;
  for (uint64_t i = 0; i < episodes; ++i) {
    for (const bool use_index : {false, true}) {
      ASSERT_NO_FATAL_FAILURE(RunEpisode(base + i, use_index))
          << "episode " << i << (use_index ? " (index)" : "");
    }
  }
}

TEST(IncrementalDifferential, TopSupportAnchorsOnHubHeavyStandIns) {
  // Anchoring the highest-support edges of a hub-heavy stand-in grows
  // regions whose context edges hold many triangles, among them triangles
  // with two region edges, which a context removal must replay once.
  for (const char* name : {"facebook", "google"}) {
    const Graph g = MakeSocialProfile(name, 0.05, 0);
    const TrussDecomposition base = ComputeTrussDecomposition(g);
    const TriangleIndex triangles = BuildTriangleIndex(g);
    const std::vector<uint32_t> support = ComputeSupport(g);
    std::vector<EdgeId> order(g.NumEdges());
    std::iota(order.begin(), order.end(), 0u);
    std::sort(order.begin(), order.end(), [&](EdgeId a, EdgeId b) {
      return support[a] != support[b] ? support[a] > support[b] : a < b;
    });
    for (const bool use_index : {false, true}) {
      IncrementalTruss inc = use_index ? IncrementalTruss(g, base, &triangles)
                                       : IncrementalTruss(g, base);
      for (int step = 0; step < 10; ++step) {
        inc.ApplyAnchor(order[step]);
        ASSERT_NO_FATAL_FAILURE(ExpectByteIdentical(inc, 0, step))
            << name << (use_index ? " (index)" : "");
      }
      EXPECT_EQ(inc.stats().follower_mismatches, 0u) << name;
    }
  }
}

TEST(IncrementalTruss, Fig3AnchorMatchesOracleAndGain) {
  const Graph g = MakeFig3Graph();
  IncrementalTruss inc(g);
  const TrussDecomposition base = ComputeTrussDecomposition(g);
  EXPECT_EQ(inc.decomposition().trussness, base.trussness);
  EXPECT_EQ(inc.decomposition().layer, base.layer);

  // Anchoring (v5, v8) — the paper's running example — lifts the 3-hull.
  const EdgeId x = Fig3Edge(g, 5, 8);
  ASSERT_NE(x, kInvalidEdge);
  std::vector<EdgeId> followers;
  const uint32_t gain = inc.ApplyAnchor(x, &followers);
  EXPECT_EQ(gain, TrussnessGain(g, base, {}, {x}));
  EXPECT_EQ(gain, followers.size());
  EXPECT_TRUE(inc.IsAnchored(x));
  EXPECT_EQ(inc.decomposition().trussness[x], kAnchoredTrussness);
  for (const EdgeId f : followers) {
    EXPECT_EQ(inc.decomposition().trussness[f], base.trussness[f] + 1);
  }
  const TrussDecomposition oracle = ComputeTrussDecomposition(
      g, inc.anchored());
  EXPECT_EQ(inc.decomposition().trussness, oracle.trussness);
  EXPECT_EQ(inc.decomposition().layer, oracle.layer);
  EXPECT_EQ(inc.decomposition().max_trussness, oracle.max_trussness);
}

TEST(IncrementalTruss, RemoveEdgeReportsTrussnessLoss) {
  const Graph g = MakeFig3Graph();
  IncrementalTruss inc(g);
  const uint64_t total_before = inc.total_trussness();
  const EdgeId x = Fig3Edge(g, 3, 4);  // edge of the 5-truss clique
  ASSERT_NE(x, kInvalidEdge);
  const uint32_t own = inc.decomposition().trussness[x];
  const uint64_t loss = inc.RemoveEdge(x);
  EXPECT_FALSE(inc.IsAlive(x));
  EXPECT_EQ(inc.decomposition().trussness[x], kTrussnessNotComputed);
  EXPECT_EQ(inc.total_trussness(), total_before - own - loss);
  // The 5-clique loses an edge: the remaining clique edges drop a level.
  EXPECT_GT(loss, 0u);
}

TEST(IncrementalTruss, SpeculativeApplyRollbackIsByteExact) {
  const Graph g = MakeFig3Graph();
  IncrementalTruss inc(g);
  const StateSnapshot snapshot(inc);
  for (EdgeId e = 0; e < g.NumEdges(); ++e) {
    const IncrementalTruss::Checkpoint cp = inc.MarkRollbackPoint();
    inc.ApplyAnchor(e);
    inc.RollbackTo(cp);
  }
  snapshot.ExpectEquals(inc, 0);
  EXPECT_EQ(inc.stats().rollbacks, g.NumEdges());
}

TEST(IncrementalTruss, ClearUndoLogInvalidatesAllCheckpoints) {
  // Regression: the pristine {0, 0} checkpoint must not survive a
  // ClearUndoLog — rolling back to it afterwards would only unwind the
  // post-clear mutations and leave the caller believing it restored the
  // checkpointed state.
  const Graph g = MakeFig3Graph();
  IncrementalTruss inc(g);
  const IncrementalTruss::Checkpoint pristine = inc.MarkRollbackPoint();
  inc.ApplyAnchor(0);
  const IncrementalTruss::Checkpoint mid = inc.MarkRollbackPoint();
  inc.ClearUndoLog();
  EXPECT_FALSE(inc.IsValidCheckpoint(pristine));
  EXPECT_FALSE(inc.IsValidCheckpoint(mid));
  const IncrementalTruss::Checkpoint fresh = inc.MarkRollbackPoint();
  inc.ApplyAnchor(1);
  ASSERT_TRUE(inc.IsValidCheckpoint(fresh));
  inc.RollbackTo(fresh);
  EXPECT_TRUE(inc.IsAnchored(0));  // the cleared commit is the new floor
  EXPECT_FALSE(inc.IsAnchored(1));
}

TEST(IncrementalTruss, RollbackPastACheckpointInvalidatesIt) {
  // Rolling back to a checkpoint keeps every earlier one usable. A later
  // checkpoint the rollback unwound stays invalid once the log regrows
  // past its position: restoring it would land mid-mutation.
  const Graph g = MakeFig3Graph();
  IncrementalTruss inc(g);
  inc.ApplyAnchor(0);
  const IncrementalTruss::Checkpoint outer = inc.MarkRollbackPoint();
  inc.ApplyAnchor(1);
  const IncrementalTruss::Checkpoint inner = inc.MarkRollbackPoint();
  inc.ApplyAnchor(2);
  inc.RollbackTo(inner);
  ASSERT_TRUE(inc.IsValidCheckpoint(outer));
  inc.RollbackTo(outer);
  EXPECT_TRUE(inc.IsAnchored(0));
  EXPECT_FALSE(inc.IsAnchored(1));
  EXPECT_FALSE(inc.IsAnchored(2));
  inc.ApplyAnchor(3);
  EXPECT_FALSE(inc.IsValidCheckpoint(inner));
  ASSERT_NO_FATAL_FAILURE(ExpectByteIdentical(inc, 0, 0));
}

TEST(IncrementalTruss, CopiesAreIndependent) {
  const Graph g = MakeFig3Graph();
  IncrementalTruss inc(g);
  IncrementalTruss copy(inc);
  copy.ApplyAnchor(0);
  EXPECT_TRUE(copy.IsAnchored(0));
  EXPECT_FALSE(inc.IsAnchored(0));
  EXPECT_EQ(inc.decomposition().trussness,
            ComputeTrussDecomposition(g).trussness);
}

// Equal region sizes, expansion passes and rebuilds: the index walk must
// visit the same regions as the adjacency walk, not only reach the same
// decomposition.
void ExpectSameWork(const IncrementalTruss& own,
                    const IncrementalTruss& shared, uint64_t seed) {
  EXPECT_EQ(own.stats().region_edges_total, shared.stats().region_edges_total)
      << "seed " << seed;
  EXPECT_EQ(own.stats().expansion_passes, shared.stats().expansion_passes)
      << "seed " << seed;
  EXPECT_EQ(own.stats().full_rebuilds, shared.stats().full_rebuilds)
      << "seed " << seed;
  EXPECT_EQ(own.stats().follower_mismatches, 0u) << "seed " << seed;
  EXPECT_EQ(shared.stats().follower_mismatches, 0u) << "seed " << seed;
}

TEST(IncrementalTruss, SharedTriangleIndexMatchesOwnIndex) {
  // The greedy solvers hand the engine their graph's triangle index, which
  // every walk of every mutation then reads. Anchoring, removing and
  // re-inserting must give the followers, in order, the decomposition and
  // the region work an engine without an index gives; so must a copy,
  // which keeps sharing the index.
  for (uint64_t seed = 0; seed < 40; ++seed) {
    const Graph g = MakeDifferentialGraph(seed);
    if (g.NumEdges() == 0) continue;
    const TriangleIndex triangles = BuildTriangleIndex(g);
    const TrussDecomposition start = ComputeTrussDecomposition(g);
    IncrementalTruss own(g, start);
    IncrementalTruss shared(g, start, &triangles);
    Rng rng(seed + 17);
    std::vector<EdgeId> removed;
    for (int step = 0; step < 16; ++step) {
      const EdgeId e = PickMutableEdge(own, rng);
      if (e == kInvalidEdge) break;
      if (step % 4 == 3) {
        own.RemoveEdge(e);
        shared.RemoveEdge(e);
        removed.push_back(e);
      } else if (step % 8 == 6 && !removed.empty()) {
        const EdgeId back = removed[rng.NextBounded(removed.size())];
        removed.erase(std::find(removed.begin(), removed.end(), back));
        EXPECT_EQ(own.InsertEdge(back), shared.InsertEdge(back))
            << "seed " << seed << " step " << step;
      } else {
        std::vector<EdgeId> own_followers;
        std::vector<EdgeId> shared_followers;
        EXPECT_EQ(own.ApplyAnchor(e, &own_followers),
                  shared.ApplyAnchor(e, &shared_followers))
            << "seed " << seed << " step " << step;
        EXPECT_EQ(own_followers, shared_followers)
            << "seed " << seed << " step " << step;
      }
      ASSERT_EQ(own.decomposition().trussness,
                shared.decomposition().trussness)
          << "seed " << seed << " step " << step;
      ASSERT_EQ(own.decomposition().layer, shared.decomposition().layer)
          << "seed " << seed << " step " << step;
      ASSERT_EQ(own.decomposition().max_trussness,
                shared.decomposition().max_trussness)
          << "seed " << seed << " step " << step;
      ASSERT_EQ(own.anchored(), shared.anchored()) << "seed " << seed;
    }
    ExpectSameWork(own, shared, seed);
    IncrementalTruss own_copy(own);
    IncrementalTruss shared_copy(shared);
    const EdgeId e = PickMutableEdge(own, rng);
    if (e == kInvalidEdge) continue;
    std::vector<EdgeId> own_followers;
    std::vector<EdgeId> shared_followers;
    EXPECT_EQ(own_copy.ApplyAnchor(e, &own_followers),
              shared_copy.ApplyAnchor(e, &shared_followers))
        << "seed " << seed;
    EXPECT_EQ(own_followers, shared_followers) << "seed " << seed;
    EXPECT_EQ(own_copy.decomposition().trussness,
              shared_copy.decomposition().trussness)
        << "seed " << seed;
    EXPECT_EQ(own_copy.decomposition().layer,
              shared_copy.decomposition().layer)
        << "seed " << seed;
    ExpectSameWork(own_copy, shared_copy, seed);
  }
}

TEST(IncrementalTrussDeath, RejectsTriangleIndexOfAnotherGraph) {
  // Every walk indexes the caller's index by edge id, so an index of a
  // different graph must fail the constructor, not read out of bounds on
  // the first RemoveEdge or InsertEdge.
  const Graph g = MakeFig3Graph();
  const Graph other = MakeDifferentialGraph(3);
  ASSERT_NE(other.NumEdges(), g.NumEdges());
  const TriangleIndex wrong = BuildTriangleIndex(other);
  EXPECT_DEATH(
      { IncrementalTruss inc(g, ComputeTrussDecomposition(g), &wrong); },
      "triangle index is not of this graph");
}

TEST(IncrementalTruss, SeededConstructorAdoptsDecomposition) {
  const Graph g = MakeFig3Graph();
  TrussDecomposition seed = ComputeTrussDecomposition(g);
  IncrementalTruss inc(g, seed);
  EXPECT_EQ(inc.decomposition().trussness, seed.trussness);
  const uint32_t gain = inc.ApplyAnchor(Fig3Edge(g, 5, 8));
  EXPECT_EQ(gain, TrussnessGain(g, seed, {}, {Fig3Edge(g, 5, 8)}));

  // An anchored seed: the engine reads its anchors off kAnchoredTrussness.
  const TrussDecomposition anchored_seed =
      ComputeTrussDecomposition(g, inc.anchored());
  IncrementalTruss seeded(g, anchored_seed);
  EXPECT_EQ(seeded.anchored(), inc.anchored());
  EXPECT_EQ(seeded.total_trussness(), inc.total_trussness());
  const EdgeId next = Fig3Edge(g, 9, 10);
  EXPECT_EQ(seeded.ApplyAnchor(next),
            TrussnessGain(g, anchored_seed, inc.anchored(), {next}));
}

}  // namespace
}  // namespace atr
