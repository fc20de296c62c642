// Randomized baselines of the paper's effectiveness experiments:
//  * Rand — b anchors uniform over all edges;
//  * Sup  — b anchors uniform over the top 20% of edges by support;
//  * Tur  — b anchors uniform over the top 20% by upward-route size.
// Each runs `trials` independent draws and reports the best trussness gain
// found (the paper uses 2000 trials and reports the maximum). A draw is
// scored on a per-worker IncrementalTruss (ScoreAnchorSet), so it costs
// its anchors' follower searches and localized updates, every checkpoint
// prefix included, instead of one whole re-decomposition per checkpoint;
// the re-decomposition of truss/gain.h is the tests' oracle for them.

#ifndef ATR_CORE_RANDOM_BASELINES_H_
#define ATR_CORE_RANDOM_BASELINES_H_

#include <cstdint>
#include <vector>

#include "core/atr_problem.h"
#include "graph/graph.h"
#include "graph/triangle_index.h"
#include "truss/decomposition.h"
#include "util/status.h"

namespace atr {

enum class RandomPoolKind {
  kAllEdges,       // Rand
  kTopSupport,     // Sup: top 20% by support
  kTopRouteSize,   // Tur: top 20% by upward-route size
};

// Runs the baseline ("rand", "sup" or "tur", after `kind`) against `base`,
// the anchor-free decomposition of `g`, and `triangles`, its full-graph
// triangle index (BuildTriangleIndex(g)): `options.trials` independent draws
// of `options.budget` anchors each, reporting the best draw and, per
// effective checkpoint, the best gain of any draw's prefix, so one call
// serves a whole Fig. 6 sweep. `options` must pass ValidateSolverOptions
// (api/solver.h); on top of that this returns InvalidArgument when
// `trials` is zero or the budget exceeds the candidate pool (the top-20%
// pools of Sup/Tur). Deterministic in `options.seed` (trials are
// independent streams; parallelized with ordered reduction) as long as
// the cancel flag and the wall-clock limit, checked between trials on
// every worker, do not stop the run; a stopped run reports the trials
// finished by then. The progress callback gets one completion event,
// whose return value is ignored.
StatusOr<SolveResult> RunRandomBaseline(const Graph& g,
                                        const TrussDecomposition& base,
                                        const TriangleIndex& triangles,
                                        RandomPoolKind kind,
                                        const SolverOptions& options);

// The candidate pool used by `kind` (exposed for tests): all edges, or the
// top-20% edge ids under the respective score, descending score order.
// `triangles`, the full-graph triangle index of `g`, gives the supports;
// with `base`, the anchor-free decomposition of `g`, it scores the route
// sizes.
std::vector<EdgeId> BaselinePool(const Graph& g,
                                 const TrussDecomposition& base,
                                 const TriangleIndex& triangles,
                                 RandomPoolKind kind);

// Number of candidates in the pool `kind` draws from — |E| for Rand, the
// top-20% count for Sup/Tur — without computing the pool. This is the
// budget ceiling RunRandomBaseline enforces, exposed so harnesses can
// clamp environment-supplied budgets instead of tripping the validation.
uint32_t BaselinePoolCapacity(const Graph& g, RandomPoolKind kind);

}  // namespace atr

#endif  // ATR_CORE_RANDOM_BASELINES_H_
