// AKT baseline — the anchored k-truss vertex-anchoring approach of Zhang et
// al. (ICDE 2018), reimplemented from its published semantics for the
// paper's Exp-4 / Exp-9 comparisons.
//
// Semantics: for a fixed k, anchoring a vertex exempts its incident edges
// from peeling during the k-truss computation (their support is treated as
// infinite). This can retain edges of trussness k-1 inside the k-truss; a
// vertex's followers are the (k-1)-trussness edges that join the anchored
// k-truss, each contributing +1 trussness gain (the paper notes AKT can
// only lift (k-1)-edges, by at most 1). The greedy picks b vertices, each
// round choosing the vertex with the largest marginal follower gain among
// the endpoints of (k-1)-hull edges.

#ifndef ATR_CORE_AKT_H_
#define ATR_CORE_AKT_H_

#include <cstdint>
#include <vector>

#include "core/atr_problem.h"
#include "graph/graph.h"
#include "truss/decomposition.h"

namespace atr {

// Runs the AKT greedy ("akt:<k>") for one k >= 3 against `decomp`, the
// anchor-free decomposition of `g`. `options` must pass
// ValidateVertexSolverOptions (api/solver.h); the budget is further capped
// at the number of candidate vertices, and the run gains nothing when the
// (k-1)-hull is empty. gain_at_checkpoint reads the cumulative gain after
// each checkpoint's round (the last round's for checkpoints past it). The
// cancel flag and wall-clock limit are checked between rounds.
SolveResult RunAkt(const Graph& g, const TrussDecomposition& decomp,
                   uint32_t k, const SolverOptions& options);

// Follower edges (trussness k-1, in the anchored k-truss) for a given
// anchor-vertex set; exposed for tests and the Fig. 7 case study.
std::vector<EdgeId> AktFollowers(const Graph& g,
                                 const TrussDecomposition& decomp, uint32_t k,
                                 const std::vector<VertexId>& anchors);

}  // namespace atr

#endif  // ATR_CORE_AKT_H_
