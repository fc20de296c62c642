// Flat SoA truss peel — the kBsp / kBspCoreThenTruss engines.
//
// Same round-synchronous batch-peel semantics as truss/parallel_peel.h
// (Definition 5 deletion layers, byte-identical to the serial oracle at
// any worker count), rebuilt on MaxTruss-style flat buffers:
//
//  * oriented half-edges packed into zipped uint64_t arrays
//    (graph/flat_view.h) — one forward oriented sweep intersects raw
//    words (no FindEdge binary searches) and builds the alive-subset
//    TriangleIndex (graph/triangle_index.h): per edge, its triangles'
//    other two edge ids zipped into uint64_t pairs. Peel rounds then touch
//    exactly the stored pairs of their dying edges — O(1) per triangle
//    visit — instead of re-intersecting the endpoints' adjacency lists,
//    which on hub-heavy graphs costs orders of magnitude more than the
//    triangle count. This index lives only for the call; the solvers
//    build their own full-graph index once per solve;
//  * edge support / edge id in flat SoA arrays ordered by a bin-sort
//    bucket structure (sorted / pos / bin_start): a support decrement is
//    an O(1) swap with its bin's front, and each phase's frontier is a
//    contiguous slice — no per-round bucket re-scan like the serial
//    engine's scan of buckets[0..threshold];
//  * optional k-core prefilter (truss/core_decompose.h): edges outside
//    the 2-core of the alive subgraph close no alive triangle, so they are
//    retired with their forced result (trussness 2, layer 1 — exactly what
//    the oracle assigns) before any support is counted.
//
// Plan knobs (truss/plan.h): chunk_size fixes the fan-out chunk length,
// fanout_cutoff overrides the minimum frontier that fans out. Both change
// scheduling only; results are invariant.

#ifndef ATR_TRUSS_FLAT_PEEL_H_
#define ATR_TRUSS_FLAT_PEEL_H_

#include <vector>

#include "graph/flat_view.h"
#include "graph/graph.h"
#include "truss/decomposition.h"
#include "truss/plan.h"

namespace atr {

// Flat-engine counterpart of ComputeTrussDecompositionSerial. Builds a
// FlatGraphView internally; callers that decompose the same snapshot
// repeatedly should build one view and use the overload below.
TrussDecomposition ComputeTrussDecompositionFlat(
    const Graph& g, const std::vector<bool>& anchored,
    const DecompositionPlan& plan);

// As above with a prebuilt view; `view` must be FlatGraphView::Build(g)
// of this exact graph.
TrussDecomposition ComputeTrussDecompositionFlat(
    const Graph& g, const FlatGraphView& view,
    const std::vector<bool>& anchored, const DecompositionPlan& plan);

// Flat-engine counterpart of ComputeTrussDecompositionOnSubsetSerial:
// edges outside `edge_subset` keep kTrussnessNotComputed.
TrussDecomposition ComputeTrussDecompositionOnSubsetFlat(
    const Graph& g, const std::vector<bool>& anchored,
    const std::vector<EdgeId>& edge_subset, const DecompositionPlan& plan);

TrussDecomposition ComputeTrussDecompositionOnSubsetFlat(
    const Graph& g, const FlatGraphView& view,
    const std::vector<bool>& anchored,
    const std::vector<EdgeId>& edge_subset, const DecompositionPlan& plan);

}  // namespace atr

#endif  // ATR_TRUSS_FLAT_PEEL_H_
