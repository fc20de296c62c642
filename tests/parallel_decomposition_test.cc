// Thread-sweep differential suite for the flat SoA truss peel
// (truss/flat_peel.h) behind ComputeTrussDecomposition and
// ComputeTrussDecompositionOnSubset: on 100+ seeded random graphs
// (Erdős–Rényi and power-law families), with and without anchored-edge
// sets and edge subsets, assert that the entry points produce trussness,
// layer, and max_trussness vectors byte-identical to the serial
// Algorithm 1 peel for every thread count in {1, 2, 3, 4, 8, 16}.
//
// The fan-out cutoff is lowered to 1 for the sweep so even the small
// differential graphs exercise real multi-chunk rounds; separate tests
// run larger graphs at the production cutoff so both the inline and
// fan-out paths are covered at realistic frontier sizes.
//
// Stress knobs (the CI nightly job turns these up, including under TSan):
//   ATR_STRESS_ITERS — multiplies the number of random graphs (default 1)
//   ATR_STRESS_SEED  — offsets every graph seed (default 0), so each
//                      nightly run explores a fresh slice of the space

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "graph/generators/generators.h"
#include "graph/graph.h"
#include "tests/paper_fixtures.h"
#include "tests/test_helpers.h"
#include "truss/decomposition.h"
#include "truss/flat_peel.h"
#include "util/parallel_for.h"

namespace atr {
namespace {

constexpr int kThreadSweep[] = {1, 2, 3, 4, 8, 16};

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

// The two required families plus their parameter spread (mirrors the
// incremental differential harness).
Graph MakeDifferentialGraph(uint64_t seed) {
  if (seed % 2 == 0) {
    return ErdosRenyiGraph(25 + seed % 30, 60 + (seed * 13) % 120, seed);
  }
  // Power-law with triad closure so the truss structure is non-trivial.
  return HolmeKimGraph(30 + seed % 25, 2 + seed % 3, 0.3 + 0.1 * (seed % 6),
                       seed);
}

// Seed-derived anchored-edge mask; empty on a quarter of the seeds.
std::vector<bool> MakeAnchors(const Graph& g, uint64_t seed) {
  if (seed % 4 == 0 || g.NumEdges() == 0) return {};
  std::vector<bool> anchored(g.NumEdges(), false);
  const uint32_t count = 1 + seed % 4;
  for (uint32_t i = 0; i < count; ++i) {
    anchored[(seed * 31 + i * 1009) % g.NumEdges()] = true;
  }
  return anchored;
}

// Seed-derived edge subset (anchored edges included); empty vector means
// "decompose the full graph".
std::vector<EdgeId> MakeSubset(const Graph& g,
                               const std::vector<bool>& anchored,
                               uint64_t seed) {
  if (seed % 3 == 0) return {};
  std::vector<EdgeId> subset;
  for (EdgeId e = 0; e < g.NumEdges(); ++e) {
    const bool keep = ((seed + e) % 5 != 0) || (!anchored.empty() && anchored[e]);
    if (keep) subset.push_back(e);
  }
  return subset;
}

void ExpectIdentical(const TrussDecomposition& expected,
                     const TrussDecomposition& actual, uint64_t seed,
                     int threads, const char* label) {
  ASSERT_EQ(expected.trussness, actual.trussness)
      << label << " trussness diverged, seed " << seed << " threads "
      << threads;
  ASSERT_EQ(expected.layer, actual.layer)
      << label << " layer diverged, seed " << seed << " threads " << threads;
  ASSERT_EQ(expected.max_trussness, actual.max_trussness)
      << label << " max_trussness diverged, seed " << seed << " threads "
      << threads;
}

// One graph: serial oracle once, then the entry point at every sweep
// thread count.
void RunEpisode(uint64_t seed) {
  const Graph g = MakeDifferentialGraph(seed);
  if (g.NumEdges() == 0) return;
  const std::vector<bool> anchored = MakeAnchors(g, seed);
  const std::vector<EdgeId> subset = MakeSubset(g, anchored, seed);

  const TrussDecomposition oracle =
      subset.empty()
          ? ComputeTrussDecompositionSerial(g, anchored)
          : ComputeTrussDecompositionOnSubsetSerial(g, anchored, subset);

  for (const int threads : kThreadSweep) {
    ScopedParallelism parallelism(threads);
    const TrussDecomposition got =
        subset.empty()
            ? ComputeTrussDecomposition(g, anchored)
            : ComputeTrussDecompositionOnSubset(g, anchored, subset);
    ASSERT_NO_FATAL_FAILURE(
        ExpectIdentical(oracle, got, seed, threads, "flat"));
  }
}

TEST(ParallelDecompositionDifferential, ThreadSweepMatchesSerialOracle) {
  // 120 graphs at the default multiplier: 60 ER + 60 power-law, each
  // decomposed at 6 thread counts (full-graph or subset entry point by
  // seed). The fan-out cutoff of 1 forces multi-chunk rounds even on these
  // small graphs.
  ScopedPeelCutoff cutoff(1);
  const uint64_t episodes = 120 * StressIters();
  const uint64_t base = StressSeed() * 1000003ULL;
  for (uint64_t i = 0; i < episodes; ++i) {
    ASSERT_NO_FATAL_FAILURE(RunEpisode(base + i)) << "episode " << i;
  }
}

TEST(ParallelDecompositionDifferential, LargeGraphsAtProductionCutoff) {
  // Frontiers on these graphs exceed the production fan-out cutoff, so the
  // real chunked path runs with realistic chunk boundaries.
  const uint64_t base = StressSeed() * 7919ULL;
  const std::pair<uint64_t, Graph> graphs[] = {
      {base + 1, ErdosRenyiGraph(600, 6000, base + 1)},
      {base + 2, HolmeKimGraph(1500, 4, 0.6, base + 2)},
      {base + 3, BarabasiAlbertGraph(1200, 5, base + 3)},
  };
  for (const auto& [seed, g] : graphs) {
    const TrussDecomposition oracle = ComputeTrussDecompositionSerial(g);
    for (const int threads : {1, 2, 4, 8, 16}) {
      ScopedParallelism parallelism(threads);
      const TrussDecomposition got = ComputeTrussDecomposition(g);
      ASSERT_NO_FATAL_FAILURE(
          ExpectIdentical(oracle, got, seed, threads, "large"));
    }
  }
}

TEST(ParallelDecompositionDifferential, AnchoredLargeGraphAgrees) {
  const Graph g = HolmeKimGraph(1200, 4, 0.7, 42 + StressSeed());
  std::vector<bool> anchored(g.NumEdges(), false);
  for (EdgeId e = 0; e < g.NumEdges(); e += 97) anchored[e] = true;
  const TrussDecomposition oracle =
      ComputeTrussDecompositionSerial(g, anchored);
  for (const int threads : {3, 8}) {
    ScopedParallelism parallelism(threads);
    const TrussDecomposition got = ComputeTrussDecomposition(g, anchored);
    ASSERT_NO_FATAL_FAILURE(
        ExpectIdentical(oracle, got, 42, threads, "anchored-large"));
  }
}

TEST(ParallelDecomposition, Fig3MatchesSerialAtEveryThreadCount) {
  ScopedPeelCutoff cutoff(1);
  const Graph g = MakeFig3Graph();
  const TrussDecomposition oracle = ComputeTrussDecompositionSerial(g);
  for (const int threads : kThreadSweep) {
    ScopedParallelism parallelism(threads);
    const TrussDecomposition got = ComputeTrussDecomposition(g);
    ASSERT_NO_FATAL_FAILURE(ExpectIdentical(oracle, got, 0, threads, "fig3"));
  }
}

TEST(ParallelDecomposition, EmptyEdgelessAndAllAnchoredGraphs) {
  ScopedPeelCutoff cutoff(1);
  ScopedParallelism parallelism(8);
  const Graph empty = GraphBuilder(3).Build();
  const TrussDecomposition d = ComputeTrussDecomposition(empty);
  EXPECT_EQ(d.trussness.size(), 0u);
  EXPECT_EQ(d.max_trussness, 2u);

  GraphBuilder b(2);
  b.AddEdge(0, 1);
  const Graph single = b.Build();
  const TrussDecomposition s = ComputeTrussDecomposition(single);
  EXPECT_EQ(s.trussness[0], 2u);
  EXPECT_EQ(s.layer[0], 1u);

  // All edges anchored: nothing peels, max_trussness stays the floor.
  const Graph fig3 = MakeFig3Graph();
  const std::vector<bool> all(fig3.NumEdges(), true);
  const TrussDecomposition a = ComputeTrussDecomposition(fig3, all);
  for (EdgeId e = 0; e < fig3.NumEdges(); ++e) {
    EXPECT_EQ(a.trussness[e], kAnchoredTrussness) << "edge " << e;
  }
  EXPECT_EQ(a.max_trussness, 2u);
}

}  // namespace
}  // namespace atr
