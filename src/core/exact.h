// Exact ATR solver: exhaustively evaluates every b-subset of edges and
// returns one with maximum trussness gain (Exp-2 of the paper). The
// subsets are walked depth-first on a per-worker IncrementalTruss: an
// inner node applies one anchor and rolls it back on the way up, and a
// leaf costs one follower search on the applied prefix. That is C(m, b)
// follower searches plus C(m, b-1) localized updates, where a
// re-decomposition per subset (truss/gain.h's oracle, which the tests
// check Exact against) costs C(m, b) whole-graph peels — still only viable
// for the 150-250 edge extracts the paper uses.

#ifndef ATR_CORE_EXACT_H_
#define ATR_CORE_EXACT_H_

#include "core/atr_problem.h"
#include "graph/graph.h"
#include "graph/triangle_index.h"
#include "truss/decomposition.h"

namespace atr {

// Runs Exact ("exact") against `base`, the anchor-free decomposition of
// `g`, and `triangles`, its full-graph triangle index
// (BuildTriangleIndex(g)): one independent exhaustive run per effective
// checkpoint (a b-subset optimum is not a prefix of a (b+1)-subset
// optimum), which is exactly the Fig. 5 usage, RunSweep("exact", {1, 2,
// 3}). The result carries the last finished checkpoint's best set
// (ascending edge ids) and gain, and the subsets scored over all of them.
// Each run evaluates all C(m, b) anchor sets, parallelized over the first
// element, with the deterministic tie-break max gain, then
// lexicographically smallest subset. `options` must pass
// ValidateSolverOptions (api/solver.h). The cancel flag and the wall-clock
// limit are checked between checkpoints only — a checkpoint in flight
// always completes.
SolveResult RunExact(const Graph& g, const TrussDecomposition& base,
                     const TriangleIndex& triangles,
                     const SolverOptions& options);

}  // namespace atr

#endif  // ATR_CORE_EXACT_H_
