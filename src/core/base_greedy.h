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

// Runs BASE with the given budget. Candidate evaluation is parallelized
// across edges (deterministic reduction). `control` may carry a per-round
// progress callback, a cancellation flag, and a wall-clock limit.
// `seed_decomposition`, when non-null, must be the anchor-free
// decomposition of `g` and replaces the round-1 computation (the api layer
// passes its cached copy).
AnchorResult RunBaseGreedy(
    const Graph& g, uint32_t budget, const GreedyControl* control = nullptr,
    const TrussDecomposition* seed_decomposition = nullptr);

}  // namespace atr

#endif  // ATR_CORE_BASE_GREEDY_H_
