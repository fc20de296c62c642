// Truss decomposition with peeling layers and anchored-edge support
// (Algorithm 1 of the paper, extended as §II requires for anchored graphs).
//
// For every edge the decomposition produces:
//  * trussness t(e): the largest k such that a k-truss contains e, and
//  * layer l(e): the batch-peeling round within e's k-hull in which e was
//    removed (Definition 5 context; L^i_k in the paper). Layers drive the
//    deletion order `≺` that the upward-route machinery relies on.
//
// Anchored edges have infinite support by definition, are never peeled, and
// report the kAnchoredTrussness sentinel; because peeling rounds are
// per-triangle-connected-component by construction, layers computed on a
// component in isolation equal the layers computed on the whole graph, which
// is what makes the GAS local-rebuild (Algorithm 5) exact.

#ifndef ATR_TRUSS_DECOMPOSITION_H_
#define ATR_TRUSS_DECOMPOSITION_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "graph/graph.h"
#include "util/binary_io.h"
#include "util/status.h"

namespace atr {

// Sentinel trussness for anchored edges: compares greater than any real
// trussness so anchors sort last in the deletion order.
inline constexpr uint32_t kAnchoredTrussness = 0xffffffffu;

// Sentinel for edges outside the requested edge subset (equivalently:
// removed from the maintained subgraph). The value 0 can never alias a
// real trussness: every edge that participates in a decomposition has
// trussness >= 2 — even a triangle-free edge sits in the trivial 2-truss.
// Subset consumers must therefore test for this sentinel explicitly
// (TrussDecomposition::IsComputed) and must NOT treat 0 as "trussness-2
// edge" or fold it into hull/gain arithmetic: a sentinel read where a real
// trussness was expected means the caller queried an edge it previously
// removed. Precedes/StrictlyPrecedes DCHECK against such queries, and
// HullSizes and the gain oracles of truss/gain.h reject or skip them.
inline constexpr uint32_t kTrussnessNotComputed = 0;

// Decomposition result; indexed by EdgeId.
struct TrussDecomposition {
  std::vector<uint32_t> trussness;
  std::vector<uint32_t> layer;
  // Maximum trussness over non-anchored edges (>= 2 when any edge exists).
  uint32_t max_trussness = 2;

  bool IsAnchored(EdgeId e) const {
    return trussness[e] == kAnchoredTrussness;
  }

  // Whether `e` participated in this decomposition: false means the edge
  // was outside the requested subset (or removed) and its trussness reads
  // the kTrussnessNotComputed sentinel, not a real value.
  bool IsComputed(EdgeId e) const {
    return trussness[e] != kTrussnessNotComputed;
  }

  // The paper's total order contribution: e1 "is deleted no later than" e2.
  // e1 ≺ e2  iff  t(e1) < t(e2), or t(e1) == t(e2) and l(e1) <= l(e2).
  // Anchors compare as +inf trussness (never deleted). Both edges must be
  // in the decomposed subset — comparing a removed edge's sentinel would
  // silently sort it before genuine trussness-2 edges.
  bool Precedes(EdgeId e1, EdgeId e2) const {
    ATR_DCHECK(IsComputed(e1) && IsComputed(e2));
    const uint32_t t1 = trussness[e1];
    const uint32_t t2 = trussness[e2];
    if (t1 != t2) return t1 < t2;
    return layer[e1] <= layer[e2];
  }

  // Strict variant used for seed condition (i) of Lemma 2:
  // t(e1) < t(e2) or (equal trussness and l(e1) < l(e2)).
  bool StrictlyPrecedes(EdgeId e1, EdgeId e2) const {
    ATR_DCHECK(IsComputed(e1) && IsComputed(e2));
    const uint32_t t1 = trussness[e1];
    const uint32_t t2 = trussness[e2];
    if (t1 != t2) return t1 < t2;
    return layer[e1] < layer[e2];
  }
};

// Shared-ownership handle to an immutable decomposition snapshot. The
// service layer (api/service.h) computes one decomposition per graph and
// hands every concurrent job this handle: jobs read the same bytes, and
// the snapshot outlives graph eviction while any job still holds it.
using SharedTrussDecomposition = std::shared_ptr<const TrussDecomposition>;

// ComputeTrussDecomposition wrapped in a shared snapshot handle.
SharedTrussDecomposition ComputeSharedTrussDecomposition(
    const Graph& g, const std::vector<bool>& anchored = {});

// Full-graph decomposition. `anchored` is either empty (no anchors) or a
// size-m mask; anchored edges are retained throughout peeling.
//
// Implemented by the flat SoA peel (truss/flat_peel.h), whose peel rounds
// fan out across the calling thread's ScopedParallelism / ATR_THREADS
// workers. Trussness, layer and max_trussness are byte-identical to the
// serial oracle below at any thread count, so callers never observe the
// worker count.
TrussDecomposition ComputeTrussDecomposition(
    const Graph& g, const std::vector<bool>& anchored = {});

// Restricted decomposition over the subgraph formed by `edge_subset`
// (anchored edges that the caller wants present must be listed too).
// Edges outside the subset get trussness kTrussnessNotComputed and do not
// participate in triangles. Used by the incremental engine's from-scratch
// fallback. Same engine as ComputeTrussDecomposition.
TrussDecomposition ComputeTrussDecompositionOnSubset(
    const Graph& g, const std::vector<bool>& anchored,
    const std::vector<EdgeId>& edge_subset);

// The serial Algorithm 1 peel, always single-threaded. This is the
// reference oracle the flat peel is differentially tested against;
// production callers should use the entry points above.
TrussDecomposition ComputeTrussDecompositionSerial(
    const Graph& g, const std::vector<bool>& anchored = {});
TrussDecomposition ComputeTrussDecompositionOnSubsetSerial(
    const Graph& g, const std::vector<bool>& anchored,
    const std::vector<EdgeId>& edge_subset);

// Sizes of each k-hull H_k(G) = {e : t(e) == k}, indexed by k (size
// max_trussness + 1). Anchors are excluded.
std::vector<uint32_t> HullSizes(const TrussDecomposition& decomp);

// The edge subset `decomp` was computed over: every edge whose trussness is
// not kTrussnessNotComputed (anchored edges carry the anchored sentinel and
// are included). Returns an EMPTY vector when all edges participate, so
// callers can branch between ComputeTrussDecomposition and the subset
// variant without materializing the trivial subset.
std::vector<EdgeId> AliveSubsetOf(const TrussDecomposition& decomp);

// --- Binary serialization (src/persist/ snapshot files) -------------------
// Appends `decomp` to `writer`: max_trussness, then the trussness and layer
// arrays in edge-id order. The byte image is exact — a restored snapshot
// serves the identical decomposition without recomputing anything.
void SerializeTrussDecomposition(const TrussDecomposition& decomp,
                                 ByteWriter& writer);

// Mirror of SerializeTrussDecomposition. `num_edges` is the edge count of
// the graph the decomposition belongs to (from the already-decoded graph
// section); array lengths must match it exactly. Fails with
// kInvalidArgument on truncation or mismatched lengths — untrusted-bytes
// boundary, never aborts.
StatusOr<TrussDecomposition> DeserializeTrussDecomposition(
    ByteReader& reader, uint32_t num_edges);

}  // namespace atr

#endif  // ATR_TRUSS_DECOMPOSITION_H_
