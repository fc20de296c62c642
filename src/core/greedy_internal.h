// Shared round-state plumbing of the greedy family (BASE, BASE+, GAS): the
// candidate filter, the candidate-sweep cursor, GAS's read-set rule, and
// the bookkeeping that turns committed rounds into a SolveResult.
//
// BASE+ and GAS commit every anchor through an IncrementalTruss seeded
// from the caller's anchor-free decomposition (truss/incremental.h), whose
// affected-region update is byte-identical to a from-scratch
// decomposition. BASE recomputes from scratch after each commit: it is the
// paper's brute-force reference the others are checked against.

#ifndef ATR_CORE_GREEDY_INTERNAL_H_
#define ATR_CORE_GREEDY_INTERNAL_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/atr_problem.h"
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

// GAS's read-set rule (core/gas.h explains why it is exact). A commit's
// written set C is the edges whose state it wrote, as
// IncrementalTruss::ForEachWrite lists them. A written edge c that moved
// from trussness t0 to t1 (anchored counts as +inf) looks different only
// to searches that read c's own state (c is the candidate, a seed, or a
// popped edge) or that popped a partner r of c with t(r) in
// [min(t0, t1), max(t0, t1)]. MarkCommitWrites records this in one byte
// per edge:
//   kNear    — the edge is in C, or an edge of C is now one of its seeds
//              (a partner that is neither anchored nor removed and comes
//              strictly later in ≺): as a candidate, its seed set may
//              have gained an edge. A seed it lost was popped, so kTouched
//              catches that;
//   kTouched — the edge is in C, or is a partner of some c in C with its
//              trussness in c's interval: a search that popped it read
//              changed state.
inline constexpr uint8_t kNear = 1;
inline constexpr uint8_t kTouched = 2;

// Clears `marks` (one byte per edge) and marks the writes `engine` logged
// since its last ClearUndoLog(). `triangles` is BuildTriangleIndex of the
// engine's graph, the index the solve was given.
inline void MarkCommitWrites(const IncrementalTruss& engine,
                             const TriangleIndex& triangles,
                             std::vector<uint8_t>* marks) {
  std::fill(marks->begin(), marks->end(), 0);
  const TrussDecomposition& now = engine.decomposition();
  const std::vector<uint32_t>& t = now.trussness;
  engine.ForEachWrite([&](EdgeId c, uint32_t old_t) {
    const uint32_t lo = std::min(old_t, t[c]);
    const uint32_t hi = std::max(old_t, t[c]);
    const bool seedable = !engine.IsAnchored(c) && engine.IsAlive(c);
    (*marks)[c] |= kNear | kTouched;
    triangles.ForEachTriangleOf(c, [&](EdgeId p, EdgeId q) {
      for (const EdgeId r : {p, q}) {
        if (seedable && engine.IsAlive(r) && now.StrictlyPrecedes(r, c)) {
          (*marks)[r] |= kNear;
        }
        if (t[r] >= lo && t[r] <= hi) (*marks)[r] |= kTouched;
      }
    });
  });
}

// Whether candidate `x`, whose last search popped `processed`, must be
// searched again after the commit `marks` describes. Every other cached
// count equals what a fresh search would return, and its processed set
// what a fresh search would pop.
inline bool ReadsCommitWrites(const std::vector<uint8_t>& marks, EdgeId x,
                              std::span<const EdgeId> processed) {
  if ((marks[x] & kNear) != 0) return true;
  for (const EdgeId r : processed) {
    if ((marks[r] & kTouched) != 0) return true;
  }
  return false;
}

// Appends a committed round to `result` and reports it to
// options.progress. Returns false, with stopped_early set, when the
// callback asks the solve to stop.
inline bool RecordRound(const SolverOptions& options, uint32_t budget,
                        AnchorRound round, SolveResult& result) {
  result.total_gain += round.gain;
  result.anchor_edges.push_back(round.anchor);
  result.rounds.push_back(std::move(round));
  if (NotifyRound(options, result, static_cast<uint32_t>(result.rounds.size()),
                  budget, result.rounds.back().cumulative_seconds)) {
    return true;
  }
  result.stopped_early = true;
  return false;
}

// Fills what a finished walk derives from its rounds: the reuse totals,
// the prefix gains at the effective checkpoints, and `seconds`.
inline void FinishGreedyResult(const SolverOptions& options, double seconds,
                               SolveResult& result) {
  for (const AnchorRound& round : result.rounds) {
    result.fully_reusable += round.fully_reusable;
    result.partially_reusable += round.partially_reusable;
    result.non_reusable += round.non_reusable;
  }
  result.gain_at_checkpoint =
      PrefixGains(result.rounds, EffectiveCheckpoints(options));
  result.seconds = seconds;
}

}  // namespace atr

#endif  // ATR_CORE_GREEDY_INTERNAL_H_
