// BASE (Algorithm 2): the greedy framework with brute-force gain
// computation. Every round, the trussness gain of every candidate edge is
// obtained by a full truss decomposition of the anchored graph —
// O(b * m^2.5), and every commit recomputes the decomposition from
// scratch. Only feasible on small graphs; it is the reference
// implementation the accelerated solvers are verified against.

#ifndef ATR_CORE_BASE_GREEDY_H_
#define ATR_CORE_BASE_GREEDY_H_

#include "core/atr_problem.h"
#include "graph/graph.h"
#include "truss/decomposition.h"

namespace atr {

// Runs BASE ("base") from `seed`, the anchor-free decomposition of `g`.
// `options` must pass ValidateSolverOptions (api/solver.h); the cancel
// flag and wall-clock limit are checked between rounds. Candidate
// evaluation is parallelized across edges (deterministic reduction).
SolveResult RunBaseGreedy(const Graph& g, const TrussDecomposition& seed,
                          const SolverOptions& options);

}  // namespace atr

#endif  // ATR_CORE_BASE_GREEDY_H_
