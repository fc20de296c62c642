// GAS (Algorithm 6): the greedy solver that combines the upward-route
// follower search (Algorithm 3) with cross-round result reuse
// (Algorithm 5).
//
// Each candidate edge keeps its follower count from its last search and
// the edges that search processed (popped). Round 1 searches every
// candidate. Each later round re-searches only the candidates whose
// search could have read an edge the previous commit wrote, and reuses
// every other count as is.
//
// The rule and why it is exact. A commit's written set C is the edges
// whose (trussness, layer, anchored) state ApplyAnchor wrote: the anchor,
// its followers, and edges whose layer moved, as
// IncrementalTruss::ForEachWrite lists them. CountFollowers(x) reads x and
// its partners (the other two edges of each triangle through x) to collect
// seeds; for every edge r it pops, it reads r's own state and, of each
// partner p of r, only whether p is anchored, whether t(p) is below, equal
// to or above t(r), and l(p) when t(p) = t(r) (route/follower_search.h).
// So a written edge c that moved from trussness t0 to t1 (anchored counts
// as +inf) looks different only to popped edges r with t(r) in
// [min(t0, t1), max(t0, t1)]. After a commit, candidate x is stale when
//   * x is in C, or an edge of C is now one of x's seeds, or
//   * one of x's processed edges r is in C, or is a partner of some c in C
//     with t(r) in c's interval.
// Every seed is popped, so a seed x lost, or one that stayed but changed,
// is a processed edge in C and the second case catches it; the first case
// needs only the seeds x gained. A search that reads the same inputs pops
// the same edges and returns the same count, so every other cached count
// equals a fresh search, and by induction over rounds so does its stored
// processed set. MarkCommitWrites and FlagStaleCandidates
// (core/greedy_internal.h) are the rule; follower_search_test checks it
// against fresh searches. The level interval and the seed test keep the
// rule narrow: marking every partner of C instead re-searches whole search
// regions on dense graphs.
//
// This replaces the paper's reuse at truss-component-tree granularity:
// the rule localizes reuse at candidate granularity, so GAS builds no
// TrussComponentTree. Its reuse counters report candidates: fully
// reusable (cached count used) and non-reusable (re-searched); none is
// partially reusable.
//
// Every per-edge triangle walk of a solve — the candidate searches, the
// commit marking, the engine's region re-peel and follower recount at each
// commit — reads one full-graph TriangleIndex that the caller passes in.
// The api layer builds it once per graph version and hands the same index
// to every solve on that version (api/solver.h). The sweep's
// workers claim candidate blocks from a shared cursor (CandidateCursor in
// core/greedy_internal.h), and only the worker that claims a block reads
// or rewrites its cache. Each worker keeps one FollowerSearch for the
// whole solve. What stays serial per round is the commit and its marking.
//
// The cache, per claim block. Besides each candidate's count, a block
// keeps every edge its candidates' last searches popped, each tagged with
// a one-byte owner (the candidate's offset in the block, so a block holds
// at most 256 candidates), and its best eligible candidate under
// BetterCandidate. A later round passes once over each block's candidate
// marks and tagged reads (FlagStaleCandidates) and rewrites only the
// blocks that hold a stale candidate (the last anchor is in C, so its
// block is one): it drops the stale candidates' reads, appends the reads
// of their fresh searches and finds the block's best again. The anchor is
// the best of the block maxima. So a later round costs one flat pass over the marks and the
// cached reads plus its re-searches, not a walk of every candidate's
// eligibility, read span and count. GAS never removes an edge, so the
// eligible pool is round 1's count less one per commit, and
// fully_reusable is that pool less the candidates re-searched.
//
// GAS must select exactly the same anchor sequence as BASE and BASE+ (the
// reuse is exact); the property tests enforce this.

#ifndef ATR_CORE_GAS_H_
#define ATR_CORE_GAS_H_

#include "core/atr_problem.h"
#include "graph/graph.h"
#include "graph/triangle_index.h"
#include "truss/decomposition.h"

namespace atr {

// Runs GAS ("gas") from `seed`, the anchor-free decomposition of `g`.
// `triangles` must be BuildTriangleIndex(g); the solve only reads it.
// `options` must pass ValidateSolverOptions (api/solver.h); the cancel
// flag and wall-clock limit are checked between rounds.
SolveResult RunGas(const Graph& g, const TrussDecomposition& seed,
                   const TriangleIndex& triangles,
                   const SolverOptions& options);

}  // namespace atr

#endif  // ATR_CORE_GAS_H_
