// Shared round-state plumbing of the greedy family (BASE, BASE+, GAS):
// seeding from an optional cached decomposition and optional pre-existing
// anchors (the api layer's mutable sessions), recomputing with the alive
// subset respected, and constructing the incremental engine behind
// GreedyControl::use_incremental.
//
// The greedy cores keep no private support state of their own: every
// (re)decomposition below goes through truss/decomposition.h, which
// dispatches to the round-synchronous parallel peel under the solver's
// ScopedParallelism worker count with byte-identical results.

#ifndef ATR_CORE_GREEDY_INTERNAL_H_
#define ATR_CORE_GREEDY_INTERNAL_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "truss/decomposition.h"
#include "truss/incremental.h"
#include "util/macros.h"

namespace atr {

struct GreedySeedState {
  std::vector<bool> anchored;
  TrussDecomposition current;
  // Edges participating in the decomposition; empty = all of them. Fixed
  // for the whole run (anchoring never removes edges).
  std::vector<EdgeId> alive;
};

inline GreedySeedState MakeGreedySeedState(
    const Graph& g, const TrussDecomposition* seed,
    const std::vector<bool>* initial_anchors) {
  GreedySeedState state;
  state.anchored = initial_anchors != nullptr
                       ? *initial_anchors
                       : std::vector<bool>(g.NumEdges(), false);
  ATR_CHECK(state.anchored.size() == g.NumEdges());
  state.current = seed != nullptr ? *seed
                                  : ComputeTrussDecomposition(g, state.anchored);
  state.alive = AliveSubsetOf(state.current);
  return state;
}

inline TrussDecomposition RecomputeGreedyState(
    const Graph& g, const std::vector<bool>& anchored,
    const std::vector<EdgeId>& alive) {
  return alive.empty() ? ComputeTrussDecomposition(g, anchored)
                       : ComputeTrussDecompositionOnSubset(g, anchored, alive);
}

// An edge the greedy may anchor this round: present and not yet anchored.
inline bool EligibleCandidate(const TrussDecomposition& current,
                              const std::vector<bool>& anchored, EdgeId e) {
  return !anchored[e] &&
         current.trussness[e] != kTrussnessNotComputed;
}

// Shared cursor of the BASE+ and GAS candidate sweeps: workers claim fixed
// kBlock-edge blocks of [0, m) until none are left. Per-candidate cost is
// skewed: preferential-attachment generators make the lowest vertex ids
// the hubs and edge ids sort by endpoint, so the costly hub-incident edges
// cluster at the low edge ids, and a static contiguous split leaves the
// workers holding the cheap ranges idle. Which worker claims which block
// varies run to run, so callers fold per-worker results with a total
// order (BetterCandidate) or a sum, and write per-edge state only for the
// edges of blocks they claimed.
class CandidateCursor {
 public:
  // 64, 256 and 1024 time within noise of each other on pokec@0.2 at four
  // threads; 256 keeps the cursor to a few hundred claims per sweep and
  // still leaves dozens of blocks per worker to even out the tail.
  static constexpr int64_t kBlock = 256;

  explicit CandidateCursor(uint32_t m) : m_(m) {}

  // Claims the next block into [*begin, *end); false once none are left.
  bool Claim(int64_t* begin, int64_t* end) {
    *begin = next_.fetch_add(kBlock, std::memory_order_relaxed);
    if (*begin >= m_) return false;
    *end = std::min(m_, *begin + kBlock);
    return true;
  }

 private:
  const int64_t m_;
  std::atomic<int64_t> next_{0};
};

inline IncrementalTruss MakeGreedyEngine(
    const Graph& g, const TrussDecomposition* seed,
    const std::vector<bool>* initial_anchors) {
  const std::vector<bool> no_anchors;
  const std::vector<bool>& anchors =
      initial_anchors != nullptr ? *initial_anchors : no_anchors;
  if (seed != nullptr) return IncrementalTruss(g, *seed, anchors);
  if (!anchors.empty()) {
    return IncrementalTruss(g, ComputeTrussDecomposition(g, anchors),
                            anchors);
  }
  return IncrementalTruss(g);
}

}  // namespace atr

#endif  // ATR_CORE_GREEDY_INTERNAL_H_
