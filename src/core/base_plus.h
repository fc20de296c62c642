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

// Runs BASE+ ("base+") from `seed`, the anchor-free decomposition of `g`.
// The searches and the engine's commits all read `triangles`, which must
// be BuildTriangleIndex(g) (the api layer passes the graph version's
// cached one). `options` must pass ValidateSolverOptions (api/solver.h);
// the cancel flag and wall-clock limit are checked between rounds.
// Candidate evaluation runs one FollowerSearch per worker; workers claim
// candidate blocks dynamically and their bests fold under
// BetterCandidate's total order (deterministic at every thread count).
SolveResult RunBasePlus(const Graph& g, const TrussDecomposition& seed,
                        const TriangleIndex& triangles,
                        const SolverOptions& options);

}  // namespace atr

#endif  // ATR_CORE_BASE_PLUS_H_
