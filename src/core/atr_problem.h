// Shared types for the Anchor Trussness Reinforcement (ATR) problem.
//
// Problem statement (paper §II): given graph G and budget b, pick an edge
// set A, |A| = b, maximizing TG(A, G) = sum over e in E\A of
// t_A(e) - t(e), where anchored edges have infinite support.
//
// All greedy solvers (BASE, BASE+, GAS) implement the same contract and
// break ties identically (largest marginal gain, then smallest edge id), so
// they must produce identical anchor sequences — a property the test suite
// enforces.

#ifndef ATR_CORE_ATR_PROBLEM_H_
#define ATR_CORE_ATR_PROBLEM_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

#include "graph/graph.h"

namespace atr {

// Per-greedy-round record. `cumulative_seconds` lets one budget-b run report
// every intermediate budget (the paper's Fig. 6 / Fig. 8 sweeps).
struct AnchorRound {
  EdgeId anchor = kInvalidEdge;
  // Marginal trussness gain of this round's anchor (= its follower count).
  uint32_t gain = 0;
  double cumulative_seconds = 0.0;
  // Reuse classification of candidate edges this round (GAS only; zero
  // elsewhere). FR: every cached follower result reused; PR: some reused;
  // NR: fully recomputed. Round 1 is always all-NR.
  uint32_t fully_reusable = 0;
  uint32_t partially_reusable = 0;
  uint32_t non_reusable = 0;
  // Trussness values (pre-anchoring, this round) of the chosen anchor's
  // followers, for the paper's Fig. 11(b) distribution.
  std::vector<uint32_t> follower_trussness;
};

struct AnchorResult {
  std::vector<EdgeId> anchors;     // in selection order
  std::vector<AnchorRound> rounds;  // one per anchor
  uint64_t total_gain = 0;          // sum of round gains = TG(A, G)
  // True when the run ended before exhausting the budget because a
  // GreedyControl asked it to (cancellation, wall-clock limit, or an
  // on_round callback returning false). The rounds selected so far are
  // still a valid greedy prefix.
  bool stopped_early = false;
};

// Progress event handed to GreedyControl::on_round after each completed
// greedy round.
struct GreedyProgress {
  uint32_t round = 0;   // 1-based index of the round just completed
  uint32_t budget = 0;  // effective budget of the run
  EdgeId anchor = kInvalidEdge;
  uint32_t gain = 0;          // marginal gain of this round's anchor
  uint64_t total_gain = 0;    // cumulative gain so far
  double elapsed_seconds = 0.0;
};

// Optional cooperative control shared by the greedy solvers (BASE, BASE+,
// GAS). All members are optional; a default-constructed control never
// interrupts a run. Cancellation is checked between rounds — a round in
// flight always completes, so interrupted results are valid greedy prefixes.
struct GreedyControl {
  // Called after every round; returning false stops the run.
  std::function<bool(const GreedyProgress&)> on_round;
  // When non-null, the run stops before the next round once it reads true.
  const std::atomic<bool>* cancel = nullptr;
  // When positive, the run stops before the next round once the elapsed
  // wall-clock time exceeds this many seconds.
  double wall_clock_limit_seconds = 0.0;

  bool ShouldStop(double elapsed_seconds) const {
    if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
      return true;
    }
    return wall_clock_limit_seconds > 0.0 &&
           elapsed_seconds >= wall_clock_limit_seconds;
  }
};

// Delivers the just-completed round (result.rounds.back()) to
// `control->on_round` when one is set, recording an early stop on `result`
// if the callback declined to continue. Returns true when the run may
// proceed to the next round.
inline bool NotifyRound(const GreedyControl* control, uint32_t budget,
                        AnchorResult& result) {
  if (control == nullptr || !control->on_round) return true;
  const AnchorRound& round = result.rounds.back();
  GreedyProgress progress;
  progress.round = static_cast<uint32_t>(result.rounds.size());
  progress.budget = budget;
  progress.anchor = round.anchor;
  progress.gain = round.gain;
  progress.total_gain = result.total_gain;
  progress.elapsed_seconds = round.cumulative_seconds;
  if (control->on_round(progress)) return true;
  result.stopped_early = true;
  return false;
}

// Deterministic tie-break shared by every solver: prefer larger gain, then
// smaller edge id.
inline bool BetterCandidate(uint64_t gain, EdgeId edge, uint64_t best_gain,
                            EdgeId best_edge) {
  if (gain != best_gain) return gain > best_gain;
  return edge < best_edge;
}

}  // namespace atr

#endif  // ATR_CORE_ATR_PROBLEM_H_
