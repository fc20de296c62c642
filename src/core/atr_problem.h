// The ATR problem's solve contract: the options every solver takes, the
// result and progress events it reports, and the helpers the solvers share.
//
// Problem statement (paper §II): given graph G and budget b, pick an edge
// set A, |A| = b, maximizing TG(A, G) = sum over e in E\A of
// t_A(e) - t(e), where anchored edges have infinite support.
//
// Each core solver (BASE, BASE+, GAS, Exact, Rand/Sup/Tur, AKT) has one
// entry that takes the graph's precomputed inputs by reference plus a
// SolverOptions, and returns the SolveResult the api/ Solver adapters hand
// out unchanged: the core fills the solver's registry name, the progress
// events, the checkpoint gains, the reuse totals and `seconds`.
//
// All greedy solvers (BASE, BASE+, GAS) break ties identically (largest
// marginal gain, then smallest edge id), so they must produce identical
// anchor sequences — a property the test suite enforces.

#ifndef ATR_CORE_ATR_PROBLEM_H_
#define ATR_CORE_ATR_PROBLEM_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
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

// Progress event delivered to SolverOptions::progress after each completed
// round of a round-based solver (greedy family, AKT). Exact emits one
// event per finished checkpoint; the randomized baselines emit a single
// completion event (their trials run as one parallel batch, though the
// cancel flag and wall-clock limit are still checked between trials).
struct SolveProgress {
  std::string solver;          // registry name of the running solver
  uint32_t round = 0;          // 1-based round / checkpoint just completed
  uint32_t budget = 0;         // effective budget of the run
  uint64_t total_gain = 0;     // cumulative trussness gain so far
  double elapsed_seconds = 0.0;
};

// Options shared by every solver. Fields a solver does not use are
// ignored (e.g. `trials` outside the randomized baselines); fields it does
// use are validated and rejected with InvalidArgument when out of range.
struct SolverOptions {
  // Number of anchors to select. Must satisfy 1 <= budget <= |E| (AKT:
  // <= |V|).
  uint32_t budget = 1;
  // Optional ascending budgets at which the gain is additionally reported
  // in SolveResult::gain_at_checkpoint. When empty, {budget} is used. When
  // provided, checkpoints must be strictly ascending, start at >= 1, and
  // end exactly at `budget`.
  std::vector<uint32_t> budget_checkpoints;
  // Randomized baselines: deterministic stream seed and number of
  // independent draws (best draw is reported, as in the paper's Exp-1).
  uint64_t seed = 1;
  uint32_t trials = 100;
  // When positive, round-based solvers stop before the next round once the
  // elapsed wall clock exceeds this; the result is a valid greedy prefix
  // with stopped_early set.
  double wall_clock_limit_seconds = 0.0;
  // Worker threads for the parallel inner loops, including the truss
  // decomposition itself (the round-synchronous parallel peel is
  // byte-identical to the serial result at every thread count, so results
  // never depend on this setting); 0 keeps the process-wide default
  // (ATR_THREADS env, else hardware concurrency).
  int threads = 0;
  // Called after every round/checkpoint; returning false cancels the run
  // (result is the prefix selected so far, stopped_early set).
  std::function<bool(const SolveProgress&)> progress;
  // When non-null, setting the flag to true cancels the run between
  // rounds/checkpoints.
  const std::atomic<bool>* cancel = nullptr;
};

// Unified result. Exactly one of anchor_edges / anchor_vertices is
// populated (AKT anchors vertices; everything else anchors edges).
struct SolveResult {
  std::string solver;  // registry name of the solver that produced this

  std::vector<EdgeId> anchor_edges;       // in selection order
  std::vector<VertexId> anchor_vertices;  // AKT only, in selection order
  // One record per selected anchor for the edge-greedy solvers
  // (base/base+/gas): marginal gain, cumulative timing, GAS reuse
  // classification, follower trussness. AnchorRound is edge-typed, so AKT
  // leaves this empty and reports its per-round cumulative gains through
  // gain_at_checkpoint instead.
  std::vector<AnchorRound> rounds;
  uint64_t total_gain = 0;  // TG(A, G) of the full selection

  // Gain at each effective checkpoint (options.budget_checkpoints, or
  // {budget}): greedy/AKT report prefix gains of the one run, randomized
  // baselines the best draw per prefix, Exact one exhaustive run per
  // checkpoint.
  std::vector<uint64_t> gain_at_checkpoint;

  double seconds = 0.0;       // wall-clock time of the whole solve
  bool stopped_early = false; // cancelled / wall-clock limit hit

  // Solver-specific extras (zero elsewhere):
  uint64_t subsets_evaluated = 0;  // Exact: anchor sets scored
  uint32_t trials = 0;             // randomized: draws performed
  // GAS: reuse classification totals over all rounds (Exp-8).
  uint64_t fully_reusable = 0;
  uint64_t partially_reusable = 0;
  uint64_t non_reusable = 0;
};

// The checkpoint list a solve reports on: options.budget_checkpoints, or
// {options.budget} when none were requested.
inline std::vector<uint32_t> EffectiveCheckpoints(
    const SolverOptions& options) {
  if (!options.budget_checkpoints.empty()) return options.budget_checkpoints;
  return {options.budget};
}

// Gains of the greedy prefixes at each checkpoint: a budget-b greedy walk
// reports every intermediate budget for free (the paper's Fig. 6 sweeps).
// Solo greedy solves and the service's result memo both report through
// it, so a memo hit's gains match its solo run.
inline std::vector<uint64_t> PrefixGains(
    const std::vector<AnchorRound>& rounds,
    const std::vector<uint32_t>& checkpoints) {
  std::vector<uint64_t> gains;
  gains.reserve(checkpoints.size());
  for (uint32_t c : checkpoints) {
    uint64_t gain = 0;
    for (size_t r = 0; r < rounds.size() && r < c; ++r) {
      gain += rounds[r].gain;
    }
    gains.push_back(gain);
  }
  return gains;
}

// Whether a solve must stop before its next round, checkpoint or trial:
// options.cancel reads true, or the wall-clock limit has passed.
inline bool StopRequested(const SolverOptions& options,
                          double elapsed_seconds) {
  if (options.cancel != nullptr &&
      options.cancel->load(std::memory_order_relaxed)) {
    return true;
  }
  return options.wall_clock_limit_seconds > 0.0 &&
         elapsed_seconds >= options.wall_clock_limit_seconds;
}

// Delivers round or checkpoint `round` of `result`, with its running
// total_gain, to options.progress when one is set. Returns false when the
// callback asks the solve to stop.
inline bool NotifyRound(const SolverOptions& options,
                        const SolveResult& result, uint32_t round,
                        uint32_t budget, double elapsed_seconds) {
  if (!options.progress) return true;
  SolveProgress event;
  event.solver = result.solver;
  event.round = round;
  event.budget = budget;
  event.total_gain = result.total_gain;
  event.elapsed_seconds = elapsed_seconds;
  return options.progress(event);
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
