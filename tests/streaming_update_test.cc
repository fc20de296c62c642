// Randomized streaming differential harness for the dynamic-update
// subsystem: on seeded random graphs (Erdős–Rényi and power-law families),
// interleave InsertEdge / RemoveEdge / ApplyAnchor / rollback operations
// and assert after EVERY step that the maintained decomposition —
// trussness, layer, and max_trussness — is byte-identical to a
// from-scratch ComputeTrussDecompositionOnSubset over the same anchors and
// alive edges. Episodes run at thread counts {1, 8} (the oracle and the
// engine's full-rebuild fallback run the flat peel, inline at one thread
// and fanned out at eight), with the fan-out cutoff lowered so the
// fan-out engages on these small graphs.
//
// The Graph::ApplyEdits carry differential replays what
// AtrService::UpdateGraph does — one engine retires the removed edges on
// the old topology, is carried across the edge-id remap and streams the
// added edges in — and checks the result against a from-scratch
// decomposition of the new snapshot.
//
// Stress knobs (the CI nightly job turns these up):
//   ATR_STRESS_ITERS — multiplies the number of random graphs (default 1)
//   ATR_STRESS_SEED  — offsets every graph seed (default 0)

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "graph/generators/generators.h"
#include "graph/graph.h"
#include "graph/triangle_index.h"
#include "tests/paper_fixtures.h"
#include "tests/test_helpers.h"
#include "truss/decomposition.h"
#include "truss/incremental.h"
#include "truss/flat_peel.h"
#include "util/parallel_for.h"
#include "util/prng.h"

namespace atr {
namespace {

// RAII cutoff override so every test restores the production value.
class ScopedPeelCutoff {
 public:
  explicit ScopedPeelCutoff(size_t cutoff)
      : previous_(internal::SetParallelPeelMinFrontierForTest(cutoff)) {}
  ~ScopedPeelCutoff() {
    internal::SetParallelPeelMinFrontierForTest(previous_);
  }

 private:
  size_t previous_;
};

Graph MakeStreamingGraph(uint64_t seed) {
  if (seed % 2 == 0) {
    return ErdosRenyiGraph(25 + seed % 30, 60 + (seed * 13) % 120, seed);
  }
  return HolmeKimGraph(30 + seed % 25, 2 + seed % 3,
                       0.3 + 0.1 * (seed % 6), seed);
}

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

EdgeId PickEdge(const std::vector<EdgeId>& pool, Rng& rng) {
  return pool.empty() ? kInvalidEdge : pool[rng.NextBounded(pool.size())];
}

std::vector<EdgeId> MutableEdges(const IncrementalTruss& inc) {
  std::vector<EdgeId> pool;
  for (EdgeId e = 0; e < inc.graph().NumEdges(); ++e) {
    if (inc.IsAlive(e) && !inc.IsAnchored(e)) pool.push_back(e);
  }
  return pool;
}

std::vector<EdgeId> DeadEdges(const IncrementalTruss& inc) {
  std::vector<EdgeId> pool;
  for (EdgeId e = 0; e < inc.graph().NumEdges(); ++e) {
    if (!inc.IsAlive(e)) pool.push_back(e);
  }
  return pool;
}

// Applies one random operation; returns false when nothing was eligible.
bool RandomOp(IncrementalTruss& inc, Rng& rng) {
  const std::vector<EdgeId> dead = DeadEdges(inc);
  const uint64_t roll = rng.NextBounded(100);
  if (roll < 35 && !dead.empty()) {
    inc.InsertEdge(PickEdge(dead, rng));
    return true;
  }
  const std::vector<EdgeId> eligible = MutableEdges(inc);
  const EdgeId e = PickEdge(eligible, rng);
  if (e == kInvalidEdge) return false;
  if (roll < 65) {
    inc.RemoveEdge(e);
  } else {
    inc.ApplyAnchor(e);
  }
  return true;
}

// One randomized episode: interleaved inserts/removals/anchors with a full
// oracle comparison after every step, plus one rollback round-trip whose
// speculative window itself mixes all three operations.
void RunEpisode(uint64_t seed) {
  const Graph g = MakeStreamingGraph(seed);
  if (g.NumEdges() == 0) return;
  IncrementalTruss inc(g);
  ExpectByteIdentical(inc, seed, -1);

  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 17);
  // Open with a removal burst so the insert pool is non-trivial from the
  // start (later steps keep churning the same slots).
  const int burst = 2 + static_cast<int>(rng.NextBounded(3));
  for (int i = 0; i < burst; ++i) {
    const EdgeId e = PickEdge(MutableEdges(inc), rng);
    if (e == kInvalidEdge) break;
    inc.RemoveEdge(e);
    ASSERT_NO_FATAL_FAILURE(ExpectByteIdentical(inc, seed, -2));
  }

  const int steps = 10 + static_cast<int>(rng.NextBounded(8));
  for (int step = 0; step < steps; ++step) {
    if (!RandomOp(inc, rng)) break;
    ASSERT_NO_FATAL_FAILURE(ExpectByteIdentical(inc, seed, step));
  }
  EXPECT_EQ(inc.stats().follower_mismatches, 0u) << "seed " << seed;

  // Rollback round-trip across a speculative window of streaming ops.
  const StateSnapshot snapshot(inc);
  const IncrementalTruss::Checkpoint cp = inc.MarkRollbackPoint();
  Rng spec_rng(seed ^ 0x5ca1ab1e0ddba11ULL);
  for (int i = 0; i < 5; ++i) {
    if (!RandomOp(inc, spec_rng)) break;
  }
  inc.RollbackTo(cp);
  snapshot.ExpectEquals(inc, seed);
  ASSERT_NO_FATAL_FAILURE(ExpectByteIdentical(inc, seed, steps));
}

// Thread counts {1, 8}: the oracle and the engine's full-rebuild
// fallback run the flat peel inline at 1 worker and fanned out at 8.
void RunSweep(uint64_t episodes, uint64_t base, int threads) {
  ScopedParallelism parallelism(threads);
  // Force the fan-out path on these sub-cutoff graphs when sweeping with
  // workers; the single-thread leg keeps the production cutoff (inline).
  std::optional<ScopedPeelCutoff> cutoff;
  if (threads > 1) cutoff.emplace(1);
  for (uint64_t i = 0; i < episodes; ++i) {
    ASSERT_NO_FATAL_FAILURE(RunEpisode(base + i))
        << "episode " << i << " threads " << threads;
  }
}

TEST(StreamingDifferential, InterleavedOpsMatchOracleSingleThread) {
  const uint64_t episodes = 60 * StressIters();
  RunSweep(episodes, StressSeed() * 1000003ULL, 1);
}

TEST(StreamingDifferential, InterleavedOpsMatchOracleEightThreads) {
  const uint64_t episodes = 60 * StressIters();
  RunSweep(episodes, StressSeed() * 1000003ULL + 500000ULL, 8);
}

TEST(StreamingInsert, RemoveThenReinsertRestoresByteIdenticalState) {
  const Graph g = MakeFig3Graph();
  IncrementalTruss inc(g);
  const StateSnapshot pristine(inc);
  for (EdgeId e = 0; e < g.NumEdges(); ++e) {
    inc.RemoveEdge(e);
    EXPECT_FALSE(inc.IsAlive(e));
    const uint32_t t = inc.InsertEdge(e);
    EXPECT_TRUE(inc.IsAlive(e));
    EXPECT_EQ(t, pristine.trussness[e]);
    // Same alive set as before the churn => the exact same decomposition.
    pristine.ExpectEquals(inc, e);
  }
  EXPECT_EQ(inc.stats().edges_inserted, g.NumEdges());
}

TEST(StreamingInsert, InsertNearAnchorsMatchesOracle) {
  const Graph g = MakeFig3Graph();
  IncrementalTruss inc(g);
  inc.ApplyAnchor(Fig3Edge(g, 5, 8));
  const EdgeId victim = Fig3Edge(g, 3, 4);
  ASSERT_NE(victim, kInvalidEdge);
  inc.RemoveEdge(victim);
  ASSERT_NO_FATAL_FAILURE(ExpectByteIdentical(inc, 0, 0));
  inc.InsertEdge(victim);
  ASSERT_NO_FATAL_FAILURE(ExpectByteIdentical(inc, 0, 1));
}

// --- Graph::ApplyEdits carry differential --------------------------------

// Replays the UpdateGraph seeding recipe for one delta and asserts the
// carried + maintained decomposition is byte-identical to a from-scratch
// decomposition of the new snapshot.
void RunCarryEpisode(uint64_t seed) {
  const Graph g = MakeStreamingGraph(seed);
  if (g.NumEdges() < 4) return;
  Rng rng(seed * 0x2545f4914f6cdd1dULL + 3);

  GraphDelta delta;
  const uint32_t removals = 1 + static_cast<uint32_t>(rng.NextBounded(3));
  std::vector<bool> chosen(g.NumEdges(), false);
  for (uint32_t i = 0; i < removals; ++i) {
    const EdgeId e = static_cast<EdgeId>(rng.NextBounded(g.NumEdges()));
    if (chosen[e]) continue;
    chosen[e] = true;
    delta.remove.push_back(g.Edge(e));
  }
  const uint32_t additions = 1 + static_cast<uint32_t>(rng.NextBounded(4));
  for (uint32_t i = 0; i < additions; ++i) {
    const VertexId u = static_cast<VertexId>(rng.NextBounded(g.NumVertices()));
    const VertexId v =
        static_cast<VertexId>(rng.NextBounded(g.NumVertices() + 2));
    if (u == v) continue;
    if (g.FindEdge(u, v) != kInvalidEdge && chosen[g.FindEdge(u, v)]) {
      continue;  // add+remove of one edge in a delta is rejected by design
    }
    delta.add.push_back(EdgeEndpoints{u, v});
  }

  StatusOr<GraphEditResult> edited = g.ApplyEdits(delta);
  ASSERT_TRUE(edited.ok()) << edited.status().message() << " seed " << seed;

  // removed_edges lists, ascending and once each, exactly the old ids the
  // remap drops (`dropped` is built ascending and duplicate-free).
  std::vector<EdgeId> dropped;
  for (EdgeId e = 0; e < g.NumEdges(); ++e) {
    if (edited->edge_remap[e] == kInvalidEdge) dropped.push_back(e);
  }
  EXPECT_EQ(edited->removed_edges, dropped) << "seed " << seed;

  // The UpdateGraph recipe: one engine retires the removals on the old
  // topology, is carried across the remap and streams the additions in.
  IncrementalTruss engine(g);
  for (const EdgeId e : edited->removed_edges) engine.RemoveEdge(e);
  engine.CarryAcross(edited->graph, edited->edge_remap);
  for (const EdgeId e : edited->added_edges) engine.InsertEdge(e);

  // The carried histogram agrees with an engine seeded on the new graph.
  const IncrementalTruss seeded(edited->graph, engine.decomposition());
  EXPECT_EQ(engine.total_trussness(), seeded.total_trussness())
      << "seed " << seed;
  EXPECT_EQ(engine.decomposition().max_trussness,
            seeded.decomposition().max_trussness)
      << "seed " << seed;

  const TrussDecomposition oracle =
      ComputeTrussDecomposition(edited->graph);
  const TrussDecomposition maintained = std::move(engine).decomposition();
  EXPECT_EQ(maintained.trussness, oracle.trussness) << "seed " << seed;
  EXPECT_EQ(maintained.layer, oracle.layer) << "seed " << seed;
  EXPECT_EQ(maintained.max_trussness, oracle.max_trussness)
      << "seed " << seed;
}

TEST(ApplyEditsCarry, SeededMaintenanceMatchesFromScratch) {
  const uint64_t episodes = 80 * StressIters();
  const uint64_t base = StressSeed() * 1000003ULL;
  for (uint64_t i = 0; i < episodes; ++i) {
    ASSERT_NO_FATAL_FAILURE(RunCarryEpisode(base + i)) << "episode " << i;
  }
}

TEST(ApplyEditsCarry, CarriesAnchorsAndClearsTheUndoLog) {
  const Graph g = MakeFig3Graph();
  IncrementalTruss engine(g);
  const EdgeId anchor = Fig3Edge(g, 5, 8);
  engine.ApplyAnchor(anchor);
  const IncrementalTruss::Checkpoint checkpoint = engine.MarkRollbackPoint();

  // Remove one unanchored edge; add an edge to a new vertex and one
  // between two existing vertices that are not yet adjacent.
  GraphDelta delta;
  delta.remove.push_back(g.Edge(anchor == 0 ? 1 : 0));
  delta.add.push_back(EdgeEndpoints{0, g.NumVertices()});
  for (VertexId v = 1; v < g.NumVertices(); ++v) {
    if (!g.HasEdge(0, v)) {
      delta.add.push_back(EdgeEndpoints{0, v});
      break;
    }
  }
  StatusOr<GraphEditResult> edited = g.ApplyEdits(delta);
  ASSERT_TRUE(edited.ok()) << edited.status().message();
  ASSERT_EQ(edited->added_edges.size(), 2u);
  for (const EdgeId e : edited->removed_edges) engine.RemoveEdge(e);
  const uint64_t removed_before = engine.stats().edges_removed;

  engine.CarryAcross(edited->graph, edited->edge_remap);
  EXPECT_EQ(&engine.graph(), &edited->graph);
  EXPECT_FALSE(engine.IsValidCheckpoint(checkpoint));
  int writes = 0;
  engine.ForEachWrite([&](EdgeId, uint32_t) { ++writes; });
  EXPECT_EQ(writes, 0);
  EXPECT_EQ(engine.stats().edges_removed, removed_before);
  EXPECT_TRUE(engine.IsAnchored(edited->edge_remap[anchor]));
  for (const EdgeId e : edited->added_edges) EXPECT_FALSE(engine.IsAlive(e));
  ASSERT_NO_FATAL_FAILURE(ExpectByteIdentical(engine, 0, 0));

  for (const EdgeId e : edited->added_edges) engine.InsertEdge(e);
  ASSERT_NO_FATAL_FAILURE(ExpectByteIdentical(engine, 0, 1));
}

TEST(ApplyEditsCarryDeath, RejectsAliveDroppedEdgesAndTriangleIndexes) {
  const Graph g = MakeFig3Graph();
  GraphDelta delta;
  delta.remove.push_back(g.Edge(0));
  StatusOr<GraphEditResult> edited = g.ApplyEdits(delta);
  ASSERT_TRUE(edited.ok());
  // The remap has no slot for edge 0, so it must be removed first.
  EXPECT_DEATH(
      {
        IncrementalTruss engine(g);
        engine.CarryAcross(edited->graph, edited->edge_remap);
      },
      "drops an alive edge");
  // A caller's triangle index belongs to the old graph.
  const TriangleIndex index = BuildTriangleIndex(g);
  EXPECT_DEATH(
      {
        IncrementalTruss engine(g, ComputeTrussDecomposition(g), &index);
        engine.RemoveEdge(0);
        engine.CarryAcross(edited->graph, edited->edge_remap);
      },
      "triangle index");
}

}  // namespace
}  // namespace atr
