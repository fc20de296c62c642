// Follower computation for a single anchor edge — Algorithm 3 of the paper
// (upward-route search with the effective-triangle support check and the
// retract cascade), plus the route-size probe used by Table IV and the Tur
// baseline.
//
// Given the current decomposition (t(e), l(e)) of the anchored graph, the
// followers F(x) of anchoring edge x are exactly the edges whose trussness
// rises (each by 1, Lemma 1). The search:
//   1. seeds with the neighbor-edges of x satisfying Lemma 2 condition (i)
//      (t > t(x), or equal trussness and strictly later layer),
//   2. processes each trussness level independently with a min-heap keyed by
//      layer (pops are nondecreasing in layer, which is what makes the
//      optimistic support counting consistent),
//   3. counts s+(e), the effective triangles of Definition 8: a triangle
//      counts when both partner edges are "countable" — the hypothetical
//      anchor, an existing anchor, a higher-trussness edge, or a same-level
//      edge that is not eliminated and either survived or ordered no earlier
//      than e (e ≺ partner),
//   4. survives e when s+(e) >= t(e) - 1 (Lemma 3 threshold), expanding the
//      route to same-level neighbor-edges with e ≺ e'; otherwise eliminates
//      e and retracts: survived edges that counted a triangle through the
//      eliminated edge lose it and may cascade.
//
// Levels are independent because a level-k follower rises to exactly k+1 and
// is therefore not in T_{k+2}.
//
// What a search reads. CountFollowers(x) reads the state of x and of x's
// partners (the other two edges of each triangle through x) to collect
// seeds. For every edge r it pops, it reads r's own (trussness, layer) and,
// of each partner p of r, only three things: whether p is anchored, whether
// t(p) is below, equal to or above t(r), and l(p) when t(p) = t(r). The
// optional `processed` output of CountFollowers lists the popped edges, so
// a caller holding it knows every input the count depended on: a later
// state that agrees with the old one on those inputs gives the same count
// and pops the same edges. GAS's cross-round reuse rests on this contract
// (core/greedy_internal.h).
//
// Every per-edge triangle walk — seed collection, s+ counting, the retract
// scan, route expansion, RouteSize — reads a full-graph TriangleIndex
// (graph/triangle_index.h): the triangles of an edge are one contiguous
// scan instead of an adjacency walk with a FindEdge binary search per
// neighbor. The greedy solvers are given the graph version's one index
// (built at most once per version, api/solver.h) and share it read-only
// across their per-worker searches; a search constructed from the graph
// alone builds and owns its index. All scratch state is epoch-stamped, so
// one FollowerSearch instance can be reused across the m candidate
// evaluations of a greedy round with O(route) cost per call instead of
// O(m).

#ifndef ATR_ROUTE_FOLLOWER_SEARCH_H_
#define ATR_ROUTE_FOLLOWER_SEARCH_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "graph/graph.h"
#include "graph/triangle_index.h"
#include "truss/decomposition.h"

namespace atr {

class FollowerSearch {
 public:
  // Builds and owns a full-graph triangle index of `g`.
  explicit FollowerSearch(const Graph& g);

  // Shares `triangles`, which must be BuildTriangleIndex(g) and outlive the
  // search. Concurrent searches may share one index (it is only read).
  FollowerSearch(const Graph& g, const TriangleIndex& triangles);

  FollowerSearch(const FollowerSearch&) = delete;
  FollowerSearch& operator=(const FollowerSearch&) = delete;

  // Binds the current decomposition and anchor mask. Both must outlive the
  // subsequent calls and reflect the same anchored graph. `anchored` may be
  // null when no anchors exist yet.
  void SetState(const TrussDecomposition* decomp,
                const std::vector<bool>* anchored);

  // Computes F(x): all followers of hypothetically anchoring `x`. When
  // `followers` is non-null it receives the follower edge ids (unsorted but
  // deterministic). When `processed` is non-null it receives every edge the
  // search popped, each once, in pop order (see "What a search reads"
  // above). Returns |F(x)|, i.e. TG({x}) by Lemma 1.
  uint32_t CountFollowers(EdgeId x, std::vector<EdgeId>* followers = nullptr,
                          std::vector<EdgeId>* processed = nullptr);

  // Size of the upward-route candidate set of `x` (Table IV / Tur): the
  // number of distinct edges reachable from the Lemma 2 seeds along
  // same-trussness routes with nondecreasing deletion order, with no
  // support check applied.
  uint32_t RouteSize(EdgeId x);

 private:
  enum Status : uint8_t {
    kUnchecked = 0,
    kInHeap = 1,
    kSurvived = 2,
    kEliminated = 3,
  };

  Status GetStatus(EdgeId e) const {
    return epoch_[e] == current_epoch_ ? static_cast<Status>(status_[e])
                                       : kUnchecked;
  }
  void SetStatus(EdgeId e, Status s) {
    epoch_[e] = current_epoch_;
    status_[e] = static_cast<uint8_t>(s);
  }

  // Whether partner `p` can support a level-`level` candidate `e` in an
  // effective triangle (Definition 8), given current statuses.
  bool Countable(EdgeId p, EdgeId e, uint32_t level) const;

  // Effective-triangle count s+(e) for candidate `e` at its own level.
  uint32_t ComputeSPlus(EdgeId e, uint32_t level) const;

  // Eliminates `e` (which had `was_survived` status) and cascades
  // (Algorithm 3's Retract), updating stored s+ of survived edges.
  void Retract(EdgeId e, bool was_survived, uint32_t level);

  // Marks `r` eliminated and, atomically with that state change, queues a
  // decrement for every survived partner that was counting a triangle
  // through `r`.
  void EliminateAndScan(EdgeId r, bool was_survived, uint32_t level);

  // Runs one level batch given seeds already marked kInHeap and pushed onto
  // heap_. Survivors are appended to survivors_, and every popped edge to
  // `processed` when it is non-null.
  void ProcessLevel(uint32_t level, std::vector<EdgeId>* processed);

  // Collects the Lemma 2 condition (i) seeds of x into seeds_.
  void CollectSeeds(EdgeId x);

  bool IsAnchoredEdge(EdgeId e) const {
    return anchored_ != nullptr && !anchored_->empty() && (*anchored_)[e];
  }

  const Graph& g_;
  // Set only by the graph-only constructor; declared before triangles_ so
  // it is built first.
  std::unique_ptr<const TriangleIndex> owned_triangles_;
  const TriangleIndex& triangles_;
  const TrussDecomposition* decomp_ = nullptr;
  const std::vector<bool>* anchored_ = nullptr;

  EdgeId current_anchor_ = kInvalidEdge;
  uint32_t current_epoch_ = 0;

  std::vector<uint32_t> epoch_;
  std::vector<uint8_t> status_;
  std::vector<uint32_t> splus_;

  // Min-heap of (layer << 32 | edge) for the level being processed.
  std::vector<uint64_t> heap_;
  std::vector<EdgeId> seeds_;
  std::vector<EdgeId> survivors_;
  std::vector<EdgeId> decrement_queue_;
};

}  // namespace atr

#endif  // ATR_ROUTE_FOLLOWER_SEARCH_H_
