// Shared round-state plumbing of the greedy family (BASE, BASE+, GAS): the
// candidate filter, the candidate-sweep cursor, and the incremental engine
// that holds a BASE+ or GAS solve's committed state, seeded from an
// optional cached decomposition and optional pre-existing anchors (the api
// layer's mutable sessions).
//
// BASE+ and GAS commit every anchor through that engine
// (truss/incremental.h), whose affected-region update is byte-identical to
// a from-scratch decomposition. BASE recomputes from scratch after each
// commit: it is the paper's brute-force reference the others are checked
// against.

#ifndef ATR_CORE_GREEDY_INTERNAL_H_
#define ATR_CORE_GREEDY_INTERNAL_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "graph/triangle_index.h"
#include "truss/decomposition.h"
#include "truss/incremental.h"

namespace atr {

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

// The committed (decomposition, anchors) state of a BASE+ or GAS solve.
// `seed`, when non-null, must be the decomposition of `g` under
// `initial_anchors` (no anchors when null); edges it reports as
// kTrussnessNotComputed are treated as removed. ApplyAnchor's follower
// recount reads `triangles`, the solve's BuildTriangleIndex(g), which must
// outlive the engine.
inline IncrementalTruss MakeGreedyEngine(
    const Graph& g, const TriangleIndex& triangles,
    const TrussDecomposition* seed,
    const std::vector<bool>* initial_anchors) {
  std::vector<bool> anchors =
      initial_anchors != nullptr ? *initial_anchors : std::vector<bool>();
  TrussDecomposition decomp =
      seed != nullptr ? *seed : ComputeTrussDecomposition(g, anchors);
  return IncrementalTruss(g, std::move(decomp), std::move(anchors),
                          &triangles);
}

}  // namespace atr

#endif  // ATR_CORE_GREEDY_INTERNAL_H_
