// GAS (Algorithm 6): the full greedy solver combining the upward-route
// follower search (Algorithm 3) with the truss-component tree (Algorithm 4)
// and cross-round result reuse (Algorithm 5).
//
// Per round:
//  1. every candidate edge e keeps a cache F[e][TN.I] of follower counts per
//     subtree-adjacent tree node; only entries for "dirty" nodes (the ES set
//     of Algorithm 5) are recomputed, the rest are reused;
//  2. the best candidate is anchored, the decomposition and component tree
//     are rebuilt, and the dirty-node set for the next round is derived from
//     the edges whose (trussness, layer) changed plus the anchored edge's
//     subtree-adjacency (a correctness-preserving superset of the paper's
//     ES — see DESIGN.md §4).
//
// Every per-edge triangle walk of a solve — the candidate sweep's follower
// searches, the seed and sla(x) walks, the per-round tree rebuild — reads
// one full-graph TriangleIndex built when the solve starts. The sweep's
// workers claim candidate blocks from a shared cursor (CandidateCursor in
// core/greedy_internal.h) and only the claiming worker touches an edge's
// cache.
//
// GAS must select exactly the same anchor sequence as BASE and BASE+ (the
// reuse is exact); the property tests enforce this.

#ifndef ATR_CORE_GAS_H_
#define ATR_CORE_GAS_H_

#include <vector>

#include "core/atr_problem.h"
#include "graph/graph.h"
#include "truss/decomposition.h"

namespace atr {

// Runs GAS with the given budget. `control` may carry a per-round progress
// callback, a cancellation flag, a wall-clock limit, and the
// use_incremental switch (the post-commit decomposition is then maintained
// by truss/incremental.h instead of recomputed; the component tree is
// still rebuilt per round). `seed_decomposition`, when non-null, must be
// the decomposition of `g` under `initial_anchors` (no anchors when null)
// and replaces the round-1 computation (the api layer passes its cached
// copy); edges it reports as kTrussnessNotComputed are treated as removed.
// `initial_anchors` edges are never candidates and gains are measured on
// top of them.
AnchorResult RunGas(const Graph& g, uint32_t budget,
                    const GreedyControl* control = nullptr,
                    const TrussDecomposition* seed_decomposition = nullptr,
                    const std::vector<bool>* initial_anchors = nullptr);

}  // namespace atr

#endif  // ATR_CORE_GAS_H_
