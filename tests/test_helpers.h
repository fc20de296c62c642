// Shared helpers for the test suites: random test graphs and slow reference
// implementations used as oracles.

#ifndef ATR_TESTS_TEST_HELPERS_H_
#define ATR_TESTS_TEST_HELPERS_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "core/greedy_internal.h"
#include "graph/generators/generators.h"
#include "graph/graph.h"
#include "truss/decomposition.h"
#include "util/env.h"

namespace atr {

// The stress knobs of the randomized differential tests (the CI nightly
// job turns them up): ATR_STRESS_ITERS multiplies the number of cases
// (default 1) and ATR_STRESS_SEED offsets every case seed (default 0).
inline uint64_t StressIters() {
  return static_cast<uint64_t>(
      std::max<int64_t>(1, GetEnvInt64("ATR_STRESS_ITERS", 1)));
}

inline uint64_t StressSeed() {
  return static_cast<uint64_t>(
      std::max<int64_t>(0, GetEnvInt64("ATR_STRESS_SEED", 0)));
}

// A varied family of small graphs for property sweeps, indexed by seed.
// Mixes density regimes and generator families so sweeps hit triangle-rich,
// triangle-poor, and clustered structures.
inline Graph MakePropertyGraph(uint64_t seed) {
  switch (seed % 5) {
    case 0:
      return ErdosRenyiGraph(30 + seed % 21, 80 + (seed * 7) % 90, seed);
    case 1:
      return HolmeKimGraph(40 + seed % 25, 3 + seed % 3, 0.7, seed);
    case 2:
      return PlantedCommunitiesGraph(45 + seed % 12, 4, 7, 0.85,
                                     30 + seed % 40, seed);
    case 3:
      return BarabasiAlbertGraph(35 + seed % 20, 2 + seed % 3, seed);
    default:
      return WattsStrogatzGraph(40 + seed % 15, 6, 0.2, seed);
  }
}

// O(m^2)-ish reference trussness: repeatedly strips min-support edges with
// no clever bookkeeping. Anchored edges are never stripped.
inline std::vector<uint32_t> NaiveTrussness(const Graph& g,
                                            const std::vector<bool>& anchored =
                                                {}) {
  const uint32_t m = g.NumEdges();
  std::vector<bool> alive(m, true);
  std::vector<uint32_t> trussness(m, 0);
  auto is_anchored = [&](EdgeId e) {
    return !anchored.empty() && anchored[e];
  };
  auto support_of = [&](EdgeId e) {
    const EdgeEndpoints ends = g.Edge(e);
    uint32_t s = 0;
    for (const AdjEntry& a : g.Neighbors(ends.u)) {
      if (a.neighbor == ends.v || !alive[a.edge]) continue;
      const EdgeId other = g.FindEdge(ends.v, a.neighbor);
      if (other != kInvalidEdge && alive[other]) ++s;
    }
    return s;
  };
  uint32_t remaining = 0;
  for (EdgeId e = 0; e < m; ++e) {
    if (!is_anchored(e)) ++remaining;
  }
  uint32_t k = 2;
  while (remaining > 0) {
    bool removed_any = true;
    while (removed_any) {
      removed_any = false;
      for (EdgeId e = 0; e < m; ++e) {
        if (!alive[e] || is_anchored(e)) continue;
        if (support_of(e) <= k - 2) {
          alive[e] = false;
          trussness[e] = k;
          --remaining;
          removed_any = true;
        }
      }
    }
    ++k;
  }
  for (EdgeId e = 0; e < m; ++e) {
    if (is_anchored(e)) trussness[e] = kAnchoredTrussness;
  }
  return trussness;
}

// GAS's read-set rule for one candidate (core/greedy_internal.h), the
// oracle for FlagStaleCandidates and for GAS's reuse counters: candidate
// `x`, whose last search popped `processed`, must be searched again after
// the commit `marks` describes when its own mark has kNear or an edge it
// popped has kTouched.
inline bool ReadsCommitWrites(const std::vector<uint8_t>& marks, EdgeId x,
                              std::span<const EdgeId> processed) {
  if ((marks[x] & kNear) != 0) return true;
  for (const EdgeId r : processed) {
    if ((marks[r] & kTouched) != 0) return true;
  }
  return false;
}

}  // namespace atr

#endif  // ATR_TESTS_TEST_HELPERS_H_
