// Trussness-gain oracle (Definition 4) computed by full anchored truss
// decomposition. This is the ground truth the fast follower machinery is
// verified against, and the engine behind the BASE algorithm (the paper's
// brute-force reference). Exact and the randomized baselines score their
// sets on the incremental engine instead
// (IncrementalTruss::ScoreAnchorSet), which the test suites check against
// these oracles.

#ifndef ATR_TRUSS_GAIN_H_
#define ATR_TRUSS_GAIN_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "truss/decomposition.h"

namespace atr {

// TG(A, G): total trussness increase over non-anchored edges when the edges
// in `anchor_set` are anchored, measured against `base` (the decomposition
// of G with `base_anchored` anchors, which must be a subset of the new
// anchor state). `base_anchored` may be empty.
//
// Equivalently: decompose with anchors = base_anchored ∪ anchor_set, sum
// t_new(e) - t_base(e) over edges that are unanchored in the new state.
uint64_t TrussnessGain(const Graph& g, const TrussDecomposition& base,
                       const std::vector<bool>& base_anchored,
                       const std::vector<EdgeId>& anchor_set);

// Followers of a single anchor `x` (edges whose trussness strictly
// increases), computed by brute-force re-decomposition. Ground truth for
// FollowerSearch. `anchored` is the pre-existing anchor mask (may be empty);
// `base` must be the decomposition for that mask.
std::vector<EdgeId> BruteForceFollowers(const Graph& g,
                                        const TrussDecomposition& base,
                                        const std::vector<bool>& anchored,
                                        EdgeId x);

}  // namespace atr

#endif  // ATR_TRUSS_GAIN_H_
