// Tests for the upward-route follower search (Algorithm 3). The linchpin
// property: CountFollowers must reproduce the brute-force oracle (anchored
// re-decomposition diff) for every candidate edge, on every graph, including
// graphs that already carry anchors. The second property is the contract
// GAS's reuse rests on: a search whose processed edges a commit did not
// change, by the read-set rule of core/greedy_internal.h, returns the same
// count and processed set on the new state.
//
// Stress knobs for the read-set rule suite (the CI nightly job turns these
// up):
//   ATR_STRESS_ITERS — multiplies the number of random graphs (default 1)
//   ATR_STRESS_SEED  — offsets every graph seed (default 0), so each
//                      nightly run explores a fresh slice of the space

#include "route/follower_search.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "core/greedy_internal.h"
#include "graph/triangle_index.h"
#include "tests/paper_fixtures.h"
#include "tests/test_helpers.h"
#include "truss/decomposition.h"
#include "truss/gain.h"
#include "truss/incremental.h"
#include "util/prng.h"

namespace atr {
namespace {

std::vector<EdgeId> Sorted(std::vector<EdgeId> v) {
  std::sort(v.begin(), v.end());
  return v;
}

TEST(FollowerSearch, Fig3AnchorV9V10LiftsTheThreeHullEdges) {
  // The paper's Example 4: anchoring (v9,v10) makes (v8,v9), (v7,v8) and
  // (v5,v8) followers; the level-4 route through (v8,v10) dies on the
  // support check.
  const Graph g = MakeFig3Graph();
  const TrussDecomposition d = ComputeTrussDecomposition(g);
  FollowerSearch search(g);
  search.SetState(&d, nullptr);

  std::vector<EdgeId> followers;
  const uint32_t count = search.CountFollowers(Fig3Edge(g, 9, 10), &followers);
  EXPECT_EQ(count, 3u);
  const std::vector<EdgeId> expected = Sorted(
      {Fig3Edge(g, 8, 9), Fig3Edge(g, 7, 8), Fig3Edge(g, 5, 8)});
  EXPECT_EQ(Sorted(followers), expected);
}

TEST(FollowerSearch, Fig3MatchesBruteForceForEveryAnchor) {
  const Graph g = MakeFig3Graph();
  const TrussDecomposition d = ComputeTrussDecomposition(g);
  FollowerSearch search(g);
  search.SetState(&d, nullptr);
  for (EdgeId x = 0; x < g.NumEdges(); ++x) {
    std::vector<EdgeId> fast;
    search.CountFollowers(x, &fast);
    const std::vector<EdgeId> brute = BruteForceFollowers(g, d, {}, x);
    EXPECT_EQ(Sorted(fast), Sorted(brute)) << "anchor " << x;
  }
}

TEST(FollowerSearch, RouteSizeOfFig3Anchor) {
  // From (v9,v10): seeds are (v8,v9) (same level, later layer) and (v8,v10)
  // (higher trussness). The level-3 route reaches (v7,v8) and (v5,v8); the
  // level-4 route is pure reachability (no support check), so it expands
  // from (v8,v10) through the {v6,v8,v10,v11,v12} 4-hull along
  // nondecreasing layers — 6 of its 9 edges. Total: 3 + 6 = 9.
  const Graph g = MakeFig3Graph();
  const TrussDecomposition d = ComputeTrussDecomposition(g);
  FollowerSearch search(g);
  search.SetState(&d, nullptr);
  const uint32_t size = search.RouteSize(Fig3Edge(g, 9, 10));
  EXPECT_EQ(size, 9u);
  // The route set must cover the three true followers plus the failed
  // level-4 seed (routes are a superset of followers, Lemma 2).
  EXPECT_GE(size, search.CountFollowers(Fig3Edge(g, 9, 10)) + 1);
}

TEST(FollowerSearch, NoTriangleEdgeHasNoFollowersAndEmptyRoute) {
  GraphBuilder b(5);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(0, 2);
  b.AddEdge(3, 4);  // isolated edge
  const Graph g = b.Build();
  const TrussDecomposition d = ComputeTrussDecomposition(g);
  FollowerSearch search(g);
  search.SetState(&d, nullptr);
  const EdgeId isolated = g.FindEdge(3, 4);
  EXPECT_EQ(search.CountFollowers(isolated), 0u);
  EXPECT_EQ(search.RouteSize(isolated), 0u);
}

// Property sweep: exact agreement with the brute-force oracle for every
// candidate edge over a varied family of random graphs.
class FollowerPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FollowerPropertyTest, MatchesBruteForceOnAllEdges) {
  const uint64_t seed = GetParam();
  const Graph g = MakePropertyGraph(seed);
  const TrussDecomposition d = ComputeTrussDecomposition(g);
  FollowerSearch search(g);
  search.SetState(&d, nullptr);
  for (EdgeId x = 0; x < g.NumEdges(); ++x) {
    std::vector<EdgeId> fast;
    search.CountFollowers(x, &fast);
    const std::vector<EdgeId> brute = BruteForceFollowers(g, d, {}, x);
    ASSERT_EQ(Sorted(fast), Sorted(brute))
        << "anchor " << x << " seed " << seed;
  }
}

TEST_P(FollowerPropertyTest, MatchesBruteForceWithExistingAnchors) {
  // The search must stay exact when the graph already carries anchors
  // (greedy rounds 2+): anchors count as permanently survived partners.
  const uint64_t seed = GetParam();
  const Graph g = MakePropertyGraph(seed);
  if (g.NumEdges() < 6) return;
  std::vector<bool> anchored(g.NumEdges(), false);
  anchored[seed % g.NumEdges()] = true;
  anchored[(seed * 17 + 3) % g.NumEdges()] = true;
  const TrussDecomposition d = ComputeTrussDecomposition(g, anchored);
  FollowerSearch search(g);
  search.SetState(&d, &anchored);
  for (EdgeId x = 0; x < g.NumEdges(); ++x) {
    if (anchored[x]) continue;
    std::vector<EdgeId> fast;
    search.CountFollowers(x, &fast);
    const std::vector<EdgeId> brute = BruteForceFollowers(g, d, anchored, x);
    ASSERT_EQ(Sorted(fast), Sorted(brute))
        << "anchor " << x << " seed " << seed;
  }
}

TEST_P(FollowerPropertyTest, FollowersRiseByExactlyOne) {
  // Lemma 1: anchoring one edge lifts every follower by exactly 1 and
  // touches nothing else.
  const uint64_t seed = GetParam();
  const Graph g = MakePropertyGraph(seed);
  const TrussDecomposition base = ComputeTrussDecomposition(g);
  const EdgeId x = seed % g.NumEdges();
  std::vector<bool> anchored(g.NumEdges(), false);
  anchored[x] = true;
  const TrussDecomposition after = ComputeTrussDecomposition(g, anchored);
  for (EdgeId e = 0; e < g.NumEdges(); ++e) {
    if (e == x) continue;
    const uint32_t delta = after.trussness[e] - base.trussness[e];
    EXPECT_LE(delta, 1u) << "edge " << e << " seed " << seed;
  }
}

TEST_P(FollowerPropertyTest, RouteSizeBoundsFollowerCount) {
  // Followers lie on upward routes (Lemma 2), so the route size is an upper
  // bound on the follower count.
  const uint64_t seed = GetParam();
  const Graph g = MakePropertyGraph(seed);
  const TrussDecomposition d = ComputeTrussDecomposition(g);
  FollowerSearch search(g);
  search.SetState(&d, nullptr);
  for (EdgeId x = 0; x < g.NumEdges(); ++x) {
    EXPECT_LE(search.CountFollowers(x), search.RouteSize(x)) << "edge " << x;
  }
}

TEST_P(FollowerPropertyTest, ScratchStateIsReusableAcrossCalls) {
  // Epoch-stamped scratch must make repeated calls independent: the same
  // query twice gives the same answer after arbitrary interleaving.
  const uint64_t seed = GetParam();
  const Graph g = MakePropertyGraph(seed);
  const TrussDecomposition d = ComputeTrussDecomposition(g);
  FollowerSearch search(g);
  search.SetState(&d, nullptr);
  const EdgeId probe = seed % g.NumEdges();
  const uint32_t first = search.CountFollowers(probe);
  for (EdgeId x = 0; x < std::min<EdgeId>(g.NumEdges(), 16); ++x) {
    search.CountFollowers(x);
    search.RouteSize(x);
  }
  EXPECT_EQ(search.CountFollowers(probe), first);
}

TEST_P(FollowerPropertyTest, ProcessedSetListsEachPoppedEdgeOnce) {
  // The processed set holds every follower (each survived a pop), no edge
  // twice, never the candidate itself, and asking for it changes neither
  // the count nor the follower list.
  const uint64_t seed = GetParam();
  const Graph g = MakePropertyGraph(seed);
  const TrussDecomposition d = ComputeTrussDecomposition(g);
  FollowerSearch search(g);
  search.SetState(&d, nullptr);
  for (EdgeId x = 0; x < g.NumEdges(); ++x) {
    std::vector<EdgeId> plain;
    std::vector<EdgeId> followers;
    std::vector<EdgeId> processed;
    const uint32_t count = search.CountFollowers(x, &plain);
    ASSERT_EQ(search.CountFollowers(x, &followers, &processed), count);
    ASSERT_EQ(followers, plain) << "anchor " << x << " seed " << seed;
    const std::vector<EdgeId> popped = Sorted(processed);
    EXPECT_EQ(std::adjacent_find(popped.begin(), popped.end()), popped.end())
        << "anchor " << x << " seed " << seed;
    EXPECT_FALSE(std::binary_search(popped.begin(), popped.end(), x));
    for (const EdgeId f : followers) {
      EXPECT_TRUE(std::binary_search(popped.begin(), popped.end(), f))
          << "follower " << f << " anchor " << x << " seed " << seed;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FollowerPropertyTest,
                         ::testing::Range<uint64_t>(0, 30));

// The property-graph seeds of one ReadSetRuleTest parameter, one per
// stress iteration.
std::vector<uint64_t> RuleSeeds(uint64_t param) {
  std::vector<uint64_t> seeds;
  for (uint64_t i = 0; i < StressIters(); ++i) {
    seeds.push_back(StressSeed() + param + 30 * i);
  }
  return seeds;
}

struct SearchRecord {
  uint32_t count = 0;
  std::vector<EdgeId> processed;
};

// Runs GAS's per-block check, FlagStaleCandidates, on every
// CandidateCursor block of `records`, with each candidate's processed
// edges tagged by its offset in the block as GAS caches them, and asserts
// that it flags exactly the candidates the per-candidate oracle
// ReadsCommitWrites flags. Fills `stale` with the flags, one per edge.
void FlagStaleRecords(const std::vector<uint8_t>& marks,
                      const std::vector<SearchRecord>& records,
                      std::vector<bool>* stale) {
  constexpr int64_t kBlock = CandidateCursor::kBlock;
  const int64_t m = static_cast<int64_t>(records.size());
  stale->assign(m, false);
  std::vector<EdgeId> reads;
  std::vector<uint8_t> owners;
  bool flags[kBlock];
  for (int64_t first = 0; first < m; first += kBlock) {
    const int64_t end = std::min(m, first + kBlock);
    reads.clear();
    owners.clear();
    for (int64_t x = first; x < end; ++x) {
      reads.insert(reads.end(), records[x].processed.begin(),
                   records[x].processed.end());
      owners.insert(owners.end(), records[x].processed.size(),
                    static_cast<uint8_t>(x - first));
    }
    FlagStaleCandidates(marks, first, reads, owners,
                        std::span<bool>(flags, end - first));
    for (int64_t x = first; x < end; ++x) {
      const EdgeId e = static_cast<EdgeId>(x);
      ASSERT_EQ(flags[x - first],
                ReadsCommitWrites(marks, e, records[x].processed))
          << "candidate " << x;
      (*stale)[x] = flags[x - first];
    }
  }
}

// Commits four anchors through `inc`, alternating the best candidate (GAS's
// pick) and a random one, the way GAS does: every candidate is searched
// once, and after each commit only the candidates GAS's per-block check
// flags are searched again, the rest keep their record. Each record the
// rule keeps must equal a fresh search on the committed state — count and
// processed set in pop order — so every candidate whose count changed was
// flagged.
void CheckReadSetRule(const Graph& g, const TriangleIndex& triangles,
                      IncrementalTruss& inc, uint64_t seed) {
  const uint32_t m = g.NumEdges();
  FollowerSearch search(g, triangles);
  search.SetState(&inc.decomposition(), &inc.anchored());
  const auto eligible = [&](EdgeId e) {
    return inc.IsAlive(e) && !inc.IsAnchored(e);
  };
  std::vector<SearchRecord> records(m);
  for (EdgeId x = 0; x < m; ++x) {
    if (!eligible(x)) continue;
    records[x].count = search.CountFollowers(x, nullptr, &records[x].processed);
  }
  std::vector<uint8_t> marks(m);
  std::vector<bool> stale;
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 7);
  SearchRecord fresh;
  for (int step = 0; step < 4; ++step) {
    std::vector<EdgeId> pool;
    EdgeId anchor = kInvalidEdge;
    for (EdgeId x = 0; x < m; ++x) {
      if (!eligible(x)) continue;
      pool.push_back(x);
      if (anchor == kInvalidEdge || records[x].count > records[anchor].count) {
        anchor = x;
      }
    }
    if (pool.empty()) return;
    if (step % 2 == 1) anchor = pool[rng.NextBounded(pool.size())];
    inc.ApplyAnchor(anchor);
    MarkCommitWrites(inc, triangles, &marks);
    inc.ClearUndoLog();
    ASSERT_NO_FATAL_FAILURE(FlagStaleRecords(marks, records, &stale));
    for (EdgeId x = 0; x < m; ++x) {
      if (!eligible(x)) continue;
      fresh.count = search.CountFollowers(x, nullptr, &fresh.processed);
      if (stale[x]) {
        records[x] = fresh;
        continue;
      }
      ASSERT_EQ(records[x].count, fresh.count)
          << "count changed but the rule kept it: candidate " << x
          << " after anchoring " << anchor << ", step " << step << " seed "
          << seed;
      ASSERT_EQ(records[x].processed, fresh.processed)
          << "processed set changed but the rule kept it: candidate " << x
          << " after anchoring " << anchor << ", step " << step << " seed "
          << seed;
    }
  }
}

class ReadSetRuleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ReadSetRuleTest, KeptCountsEqualFreshSearches) {
  for (const uint64_t seed : RuleSeeds(GetParam())) {
    const Graph g = MakePropertyGraph(seed);
    const TriangleIndex triangles = BuildTriangleIndex(g);
    IncrementalTruss inc(g, ComputeTrussDecomposition(g), &triangles);
    ASSERT_NO_FATAL_FAILURE(CheckReadSetRule(g, triangles, inc, seed));
  }
}

TEST_P(ReadSetRuleTest, KeptCountsEqualFreshSearchesWithAnchorsAndRemoval) {
  // A state with two anchors committed and one edge removed before the
  // records are taken (their writes are not part of any marked commit).
  for (const uint64_t seed : RuleSeeds(GetParam())) {
    const Graph g = MakePropertyGraph(seed);
    const uint32_t m = g.NumEdges();
    if (m < 6) continue;
    const TriangleIndex triangles = BuildTriangleIndex(g);
    IncrementalTruss inc(g, ComputeTrussDecomposition(g), &triangles);
    for (const EdgeId a : {static_cast<EdgeId>(seed % m),
                           static_cast<EdgeId>((seed * 17 + 3) % m)}) {
      if (!inc.IsAnchored(a)) inc.ApplyAnchor(a);
    }
    const EdgeId removed = static_cast<EdgeId>((seed * 31 + 11) % m);
    if (!inc.IsAnchored(removed)) inc.RemoveEdge(removed);
    inc.ClearUndoLog();
    ASSERT_NO_FATAL_FAILURE(CheckReadSetRule(g, triangles, inc, seed));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReadSetRuleTest,
                         ::testing::Range<uint64_t>(0, 30));

}  // namespace
}  // namespace atr
