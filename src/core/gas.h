// GAS (Algorithm 6): the full greedy solver combining the upward-route
// follower search (Algorithm 3) with the truss-component tree (Algorithm 4)
// and cross-round result reuse (Algorithm 5).
//
// Per round:
//  1. every candidate edge e keeps a cache F[e][TN.I] of follower counts per
//     subtree-adjacent tree node; only entries for "dirty" nodes (the ES set
//     of Algorithm 5) are recomputed, the rest are reused;
//  2. the best candidate x is committed through the incremental engine
//     (truss/incremental.h, which updates the decomposition in place), the
//     component tree is rebuilt, and the dirty-node set for the next round
//     is derived from the edges whose (trussness, layer) changed plus x's
//     subtree-adjacency sla(x).
//
// This ES is a superset of the paper's Algorithm 5 set, built for
// exactness first. Besides the nodes x's followers leave and join, a
// commit changes cached counts in three more ways: an edge whose trussness
// stays can still change layer, which reorders ≺ and so the routes and
// effective triangles through it; x itself becomes an always-countable
// partner in every node triangle-adjacent to it at or above t(x), i.e.
// sla(x); and a node renames, with unchanged members, when its minimum
// edge (its TN.I) is anchored or moves away. So ES holds the old and new
// node of every edge whose (t, l) or node id changed, sla(x), and x's old
// node. Extra dirty nodes cost reuse, never exactness: their counts are
// recomputed from the committed state.
//
// Every per-edge triangle walk of a solve — the candidate sweep's follower
// searches, the seed and sla(x) walks, the per-round tree rebuild, the
// engine's follower recount at each commit — reads one full-graph
// TriangleIndex built when the solve starts. The sweep's workers claim
// candidate blocks from a shared cursor (CandidateCursor in
// core/greedy_internal.h) and only the claiming worker touches an edge's
// cache; the tree rebuild fills its level buckets in parallel too. What
// stays serial per round is the commit itself and the tree's union-find
// sweep.
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
// callback, a cancellation flag, and a wall-clock limit.
// `seed_decomposition`, when non-null, must be the decomposition of `g`
// under `initial_anchors` (no anchors when null) and replaces the round-1
// computation (the api layer passes its cached copy); edges it reports as
// kTrussnessNotComputed are treated as removed. `initial_anchors` edges
// are never candidates and gains are measured on top of them.
AnchorResult RunGas(const Graph& g, uint32_t budget,
                    const GreedyControl* control = nullptr,
                    const TrussDecomposition* seed_decomposition = nullptr,
                    const std::vector<bool>* initial_anchors = nullptr);

}  // namespace atr

#endif  // ATR_CORE_GAS_H_
