// Flat SoA truss peel — the engine behind ComputeTrussDecomposition and
// ComputeTrussDecompositionOnSubset (truss/decomposition.h).
//
// Round-synchronous batch peel (Definition 5 deletion layers): round r of
// phase k removes every surviving edge whose support dropped to <= k-2
// after the removals of rounds 1..r-1. Within one round no removed edge
// observes another's removal, so each round's frontier fans out across
// ParallelFor chunks that record support decrements into per-chunk
// buffers, folded on one thread in chunk index order. Decrements are
// commutative counts, frontier membership depends only on the folded
// supports, and (k, round) assignment is position-independent within a
// round, so trussness, layer and max_trussness are byte-identical to the
// serial Algorithm 1 peel (ComputeTrussDecompositionSerial) at any worker
// count. tests/parallel_decomposition_test.cc asserts this across a thread
// sweep on hundreds of seeded graphs.
//
// The buffers are MaxTruss-style flat arrays:
//
//  * oriented half-edges packed into zipped uint64_t arrays
//    (graph/flat_view.h) — the one serial forward oriented sweep,
//    ForEachTriangle (graph/triangles.h), intersects them with no FindEdge
//    binary searches and builds the alive-subset TriangleIndex
//    (graph/triangle_index.h): per edge, its triangles' other two edge ids
//    zipped into uint64_t pairs. Peel rounds then touch exactly the stored
//    pairs of their dying edges — O(1) per triangle visit — instead of
//    re-intersecting the endpoints' adjacency lists, which on hub-heavy
//    graphs costs orders of magnitude more than the triangle count. This
//    index lives only for the call; the greedy solvers read a full-graph
//    index built at most once per graph version;
//  * edge support / edge id in flat SoA arrays ordered by a bin-sort
//    bucket structure (sorted / pos / bin_start): a support decrement is
//    an O(1) swap with its bin's front, and each phase's frontier is a
//    contiguous slice — no per-round bucket re-scan like the serial
//    engine's scan of buckets[0..threshold].

#ifndef ATR_TRUSS_FLAT_PEEL_H_
#define ATR_TRUSS_FLAT_PEEL_H_

#include <cstddef>

namespace atr {
namespace internal {

// Frontier size below which a peel round runs inline: spawning workers
// for a handful of edges costs more than the work itself. The
// differential tests lower it to 1 to force the fan-out path on small
// graphs. Returns the previous value.
size_t SetParallelPeelMinFrontierForTest(size_t min_frontier);

}  // namespace internal
}  // namespace atr

#endif  // ATR_TRUSS_FLAT_PEEL_H_
