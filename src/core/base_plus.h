// BASE+ (paper §IV): the greedy framework where each candidate's gain is
// computed with the upward-route follower search (Algorithm 3) instead of a
// full truss decomposition. Per round: m follower searches, then the
// chosen anchor is committed through truss/incremental.h, which updates
// the decomposition in place (byte-identical to recomputing it); no result
// reuse across rounds.

#ifndef ATR_CORE_BASE_PLUS_H_
#define ATR_CORE_BASE_PLUS_H_

#include "core/atr_problem.h"
#include "graph/graph.h"
#include "graph/triangle_index.h"
#include "truss/decomposition.h"

namespace atr {

// Runs BASE+ with the given budget. Candidate evaluation is parallelized
// across edges with one FollowerSearch instance per worker; the searches
// and the engine's commits all read `triangles`, which must be
// BuildTriangleIndex(g) (the api layer passes the graph version's cached
// one). Workers claim candidate blocks dynamically and their bests fold
// under BetterCandidate's total order (deterministic at every thread
// count). `control` may carry a per-round
// progress callback, a cancellation flag, and a wall-clock limit.
// `seed_decomposition`, when non-null, must be the anchor-free
// decomposition of `g` and replaces the round-1 computation (the api layer
// passes its cached copy).
AnchorResult RunBasePlus(
    const Graph& g, const TriangleIndex& triangles, uint32_t budget,
    const GreedyControl* control = nullptr,
    const TrussDecomposition* seed_decomposition = nullptr);

}  // namespace atr

#endif  // ATR_CORE_BASE_PLUS_H_
