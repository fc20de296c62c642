// BASE+ (paper §IV): the greedy framework where each candidate's gain is
// computed with the upward-route follower search (Algorithm 3) instead of a
// full truss decomposition. One decomposition per round, plus m follower
// searches; no result reuse across rounds.
//
// With GreedyControl::use_incremental the per-round decomposition is
// maintained by truss/incremental.h instead of recomputed from scratch
// after every committed anchor; candidate evaluation is unchanged, and so
// are the selected anchors and gains.

#ifndef ATR_CORE_BASE_PLUS_H_
#define ATR_CORE_BASE_PLUS_H_

#include <vector>

#include "core/atr_problem.h"
#include "graph/graph.h"
#include "truss/decomposition.h"

namespace atr {

// Runs BASE+ with the given budget. Candidate evaluation is parallelized
// across edges with one FollowerSearch instance per worker, all sharing
// one triangle index built per solve; workers claim candidate blocks
// dynamically and their bests fold under BetterCandidate's total order
// (deterministic at every thread count). `control` may carry a per-round
// progress callback, a cancellation flag, a wall-clock limit, and the
// use_incremental switch.
// `seed_decomposition`, when non-null, must be the decomposition of `g`
// under `initial_anchors` (no anchors when null) and replaces the round-1
// computation (the api layer passes its cached copy); edges it reports as
// kTrussnessNotComputed are treated as removed. `initial_anchors` edges are
// never candidates and gains are measured on top of them.
AnchorResult RunBasePlus(
    const Graph& g, uint32_t budget, const GreedyControl* control = nullptr,
    const TrussDecomposition* seed_decomposition = nullptr,
    const std::vector<bool>* initial_anchors = nullptr);

}  // namespace atr

#endif  // ATR_CORE_BASE_PLUS_H_
