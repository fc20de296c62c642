#include "core/gas.h"

#include <algorithm>
#include <memory>

#include "core/greedy_internal.h"
#include "graph/triangle_index.h"
#include "route/follower_search.h"
#include "tree/component_tree.h"
#include "truss/decomposition.h"
#include "truss/incremental.h"
#include "util/macros.h"
#include "util/parallel_for.h"
#include "util/timer.h"

namespace atr {
namespace {

// One cached follower partition for a candidate: nonzero follower counts per
// tree-node id, sorted by node id. A clean node id absent from the cache has
// zero followers (only nonzero counts are stored).
using NodeCounts = std::vector<std::pair<uint32_t, uint32_t>>;

struct CandidateOutcome {
  uint64_t gain = 0;
  // Reuse classification for Exp-8: 0 = FR, 1 = PR, 2 = NR.
  int reuse_class = 0;
};

// Per-candidate evaluation with reuse. `dirty_nodes` is the sorted ES set;
// `full_recompute` forces recomputation of every group (round 1 or the
// candidate's own (t, l) changed).
//
// The candidate's seed nodes are grouped by trussness level: same-level
// nodes can be coupled through the candidate's own triangles (see
// FollowerSearch::FollowersByNode), so a level group is recomputed as a
// whole whenever any of its nodes is dirty, and reused as a whole when all
// are clean.
CandidateOutcome EvaluateCandidate(
    const TriangleIndex& triangles, const TrussDecomposition& decomp,
    const TrussComponentTree& tree, const std::vector<uint32_t>& dirty_nodes,
    bool full_recompute, EdgeId e, FollowerSearch& search, NodeCounts& cache,
    std::vector<std::pair<uint32_t, uint32_t>>& scratch) {
  // Seed nodes of e as (level, node) pairs: nodes of neighbor-edges
  // satisfying Lemma 2 condition (i).
  scratch.clear();
  const std::vector<uint32_t>& edge_node = tree.edge_node_ids();
  triangles.ForEachTriangleOf(e, [&](EdgeId e1, EdgeId e2) {
    for (const EdgeId p : {e1, e2}) {
      if (edge_node[p] == kNoTreeNode) continue;  // anchors have no node
      if (!decomp.StrictlyPrecedes(e, p)) continue;
      scratch.emplace_back(decomp.trussness[p], edge_node[p]);
    }
  });
  std::sort(scratch.begin(), scratch.end());
  scratch.erase(std::unique(scratch.begin(), scratch.end()), scratch.end());

  CandidateOutcome outcome;
  if (scratch.empty()) {
    // No seeds: no followers possible; trivially reusable.
    cache.clear();
    outcome.reuse_class = full_recompute ? 2 : 0;
    return outcome;
  }

  // Walk the level groups and collect the nodes to recompute.
  std::vector<uint32_t> recompute_nodes;
  uint32_t groups_total = 0;
  uint32_t groups_dirty = 0;
  size_t i = 0;
  while (i < scratch.size()) {
    const uint32_t level = scratch[i].first;
    const size_t group_begin = i;
    bool dirty = full_recompute;
    while (i < scratch.size() && scratch[i].first == level) {
      dirty = dirty || std::binary_search(dirty_nodes.begin(),
                                          dirty_nodes.end(),
                                          scratch[i].second);
      ++i;
    }
    ++groups_total;
    if (dirty) {
      ++groups_dirty;
      for (size_t j = group_begin; j < i; ++j) {
        recompute_nodes.push_back(scratch[j].second);
      }
    }
  }
  std::sort(recompute_nodes.begin(), recompute_nodes.end());
  recompute_nodes.erase(
      std::unique(recompute_nodes.begin(), recompute_nodes.end()),
      recompute_nodes.end());
  outcome.reuse_class =
      groups_dirty == 0 ? 0 : (groups_dirty == groups_total ? 2 : 1);

  if (full_recompute) {
    cache.clear();
  } else {
    // Drop entries that are about to be recomputed or whose node is dirty
    // (dead ids are always dirty, so stale entries cannot survive here).
    cache.erase(
        std::remove_if(cache.begin(), cache.end(),
                       [&](const std::pair<uint32_t, uint32_t>& c) {
                         return std::binary_search(dirty_nodes.begin(),
                                                   dirty_nodes.end(),
                                                   c.first) ||
                                std::binary_search(recompute_nodes.begin(),
                                                   recompute_nodes.end(),
                                                   c.first);
                       }),
        cache.end());
  }

  if (!recompute_nodes.empty()) {
    NodeCounts fresh;
    search.FollowersByNode(e, edge_node, recompute_nodes, &fresh);
    cache.insert(cache.end(), fresh.begin(), fresh.end());
    std::sort(cache.begin(), cache.end());
  }
  for (const auto& [node, count] : cache) outcome.gain += count;
  return outcome;
}

}  // namespace

AnchorResult RunGas(const Graph& g, uint32_t budget,
                    const GreedyControl* control,
                    const TrussDecomposition* seed_decomposition,
                    const std::vector<bool>* initial_anchors) {
  const uint32_t m = g.NumEdges();
  AnchorResult result;
  if (m == 0) return result;
  budget = std::min<uint32_t>(budget, m);

  WallTimer timer;
  // Shared (decomposition, anchors) state: recomputed from scratch after
  // each commit (classic), or maintained by the incremental engine. The
  // candidate evaluation and reuse logic read the same state either way.
  const bool use_incremental =
      control != nullptr && control->use_incremental;
  std::unique_ptr<IncrementalTruss> engine;
  GreedySeedState state;
  const TrussDecomposition* current = nullptr;
  const std::vector<bool>* anchored_view = nullptr;
  if (use_incremental) {
    engine = std::make_unique<IncrementalTruss>(
        MakeGreedyEngine(g, seed_decomposition, initial_anchors));
    current = &engine->decomposition();
    anchored_view = &engine->anchored();
  } else {
    state = MakeGreedySeedState(g, seed_decomposition, initial_anchors);
    current = &state.current;
    anchored_view = &state.anchored;
  }
  // The topology never changes during a solve, so one full-graph triangle
  // index serves every walk of every round: the candidate sweep's
  // per-worker searches, the seed and sla(x) walks, and the tree rebuilds.
  const TriangleIndex triangles = BuildTriangleIndex(g);
  TrussComponentTree tree;
  tree.Build(g, triangles, *current, *anchored_view);

  std::vector<NodeCounts> caches(m);
  std::vector<uint32_t> dirty_nodes;  // sorted ES node ids for this round
  // Edges whose own (t, l) state is new this round: their seed sets and ≺
  // comparisons changed, so every cached entry is invalid. Round 1: all.
  std::vector<uint8_t> needs_full(m, 1);
  FollowerSearch main_search(g, triangles);

  while (result.anchors.size() < budget) {
    if (control != nullptr && control->ShouldStop(timer.ElapsedSeconds())) {
      result.stopped_early = true;
      break;
    }
    struct Best {
      uint64_t gain = 0;
      EdgeId edge = kInvalidEdge;
      uint32_t fr = 0;
      uint32_t pr = 0;
      uint32_t nr = 0;
    };
    // Each worker evaluates the blocks it claims into a stack-local best and
    // publishes it once at the end (adjacent slots would false-share); only
    // the claiming worker touches caches[e].
    const int workers = ParallelChunkCount(m);
    std::vector<Best> bests(workers);
    CandidateCursor cursor(m);
    ParallelForChunked(workers, [&](int worker, int64_t, int64_t) {
      FollowerSearch search(g, triangles);
      search.SetState(current, anchored_view);
      std::vector<std::pair<uint32_t, uint32_t>> scratch;
      Best local;
      int64_t begin = 0;
      int64_t end = 0;
      while (cursor.Claim(&begin, &end)) {
        for (int64_t i = begin; i < end; ++i) {
          const EdgeId e = static_cast<EdgeId>(i);
          if (!EligibleCandidate(*current, *anchored_view, e)) continue;
          const CandidateOutcome outcome =
              EvaluateCandidate(triangles, *current, tree, dirty_nodes,
                                needs_full[e] != 0, e, search, caches[e],
                                scratch);
          local.fr += outcome.reuse_class == 0;
          local.pr += outcome.reuse_class == 1;
          local.nr += outcome.reuse_class == 2;
          if (local.edge == kInvalidEdge ||
              BetterCandidate(outcome.gain, e, local.gain, local.edge)) {
            local.gain = outcome.gain;
            local.edge = e;
          }
        }
      }
      bests[worker] = local;
    });
    Best best;
    for (const Best& b : bests) {
      best.fr += b.fr;
      best.pr += b.pr;
      best.nr += b.nr;
      if (b.edge == kInvalidEdge) continue;
      if (best.edge == kInvalidEdge ||
          BetterCandidate(b.gain, b.edge, best.gain, best.edge)) {
        best.gain = b.gain;
        best.edge = b.edge;
      }
    }
    if (best.edge == kInvalidEdge) break;  // no eligible candidate left
    const EdgeId x = best.edge;

    AnchorRound round;
    round.anchor = x;
    round.gain = static_cast<uint32_t>(best.gain);
    round.fully_reusable = best.fr;
    round.partially_reusable = best.pr;
    round.non_reusable = best.nr;

    // Followers of the chosen anchor (for follower-trussness stats and as a
    // cross-check that the cached gain is exact).
    std::vector<EdgeId> followers;
    main_search.SetState(current, anchored_view);
    const uint32_t recount = main_search.CountFollowers(x, &followers);
    ATR_CHECK_MSG(recount == best.gain, "reused gain diverged from recount");
    for (EdgeId f : followers) {
      round.follower_trussness.push_back(current->trussness[f]);
    }

    // sla(x) under the *old* tree: every node currently triangle-adjacent to
    // x from above. These become dirty because x turns into an
    // always-countable partner inside them (DESIGN.md §4 deviation).
    std::vector<uint32_t> next_dirty;
    const uint32_t tx = current->trussness[x];
    {
      const std::vector<uint32_t>& edge_node = tree.edge_node_ids();
      triangles.ForEachTriangleOf(x, [&](EdgeId e1, EdgeId e2) {
        for (const EdgeId p : {e1, e2}) {
          if (edge_node[p] == kNoTreeNode) continue;
          if (current->trussness[p] >= tx) next_dirty.push_back(edge_node[p]);
        }
      });
      if (tree.NodeIdOf(x) != kNoTreeNode) {
        next_dirty.push_back(tree.NodeIdOf(x));
      }
    }

    // Apply the anchor and rebuild decomposition + tree. The incremental
    // path must copy the pre-anchor state (the engine updates in place);
    // the classic path moves it out before recomputing.
    TrussDecomposition previous;
    const std::vector<uint32_t> previous_nodes = tree.edge_node_ids();
    if (use_incremental) {
      previous = *current;
      const uint32_t committed = engine->ApplyAnchor(x);
      ATR_CHECK(committed == best.gain);
      engine->ClearUndoLog();
    } else {
      previous = std::move(state.current);
      state.anchored[x] = true;
      state.current = RecomputeGreedyState(g, state.anchored, state.alive);
    }
    tree.Build(g, triangles, *current, *anchored_view);

    // ES: nodes (old and new) of every edge whose (t, l) changed — this
    // covers follower nodes, merged/renumbered nodes, and layer shifts —
    // plus sla(x) and x's old node collected above. Candidates whose own
    // (t, l) changed lose their whole cache (seeds and ≺ comparisons depend
    // on it).
    const std::vector<uint32_t>& new_nodes = tree.edge_node_ids();
    for (EdgeId e = 0; e < m; ++e) {
      const bool own_changed =
          e == x || previous.trussness[e] != current->trussness[e] ||
          previous.layer[e] != current->layer[e];
      needs_full[e] = own_changed ? 1 : 0;
      if (own_changed) caches[e].clear();
      // A node whose identity changed is dirty under both ids. This covers
      // renames with unchanged member state — e.g. the anchored edge was
      // the node's minimum edge id, so the node's TN.I moves even though no
      // member's (t, l) changed — as well as merges and follower moves.
      if (own_changed || previous_nodes[e] != new_nodes[e]) {
        if (previous_nodes[e] != kNoTreeNode) {
          next_dirty.push_back(previous_nodes[e]);
        }
        if (new_nodes[e] != kNoTreeNode) next_dirty.push_back(new_nodes[e]);
      }
    }
    std::sort(next_dirty.begin(), next_dirty.end());
    next_dirty.erase(std::unique(next_dirty.begin(), next_dirty.end()),
                     next_dirty.end());
    dirty_nodes = std::move(next_dirty);

    round.cumulative_seconds = timer.ElapsedSeconds();
    result.total_gain += best.gain;
    result.anchors.push_back(x);
    result.rounds.push_back(std::move(round));
    if (!NotifyRound(control, budget, result)) break;
  }
  return result;
}

}  // namespace atr
