#include "core/base_plus.h"

#include "core/greedy_internal.h"
#include "graph/triangle_index.h"
#include "route/follower_search.h"
#include "truss/decomposition.h"
#include "truss/incremental.h"
#include "util/macros.h"
#include "util/parallel_for.h"
#include "util/timer.h"

namespace atr {

SolveResult RunBasePlus(const Graph& g, const TrussDecomposition& seed,
                        const TriangleIndex& triangles,
                        const SolverOptions& options) {
  const uint32_t m = g.NumEdges();
  const uint32_t budget = options.budget;
  WallTimer timer;
  SolveResult result;
  result.solver = "base+";
  // The committed (decomposition, anchors) state, updated in place by each
  // commit; the workers' searches read it between commits.
  IncrementalTruss engine(g, seed, &triangles);
  const TrussDecomposition* current = &engine.decomposition();
  const std::vector<bool>* anchored = &engine.anchored();

  while (result.anchor_edges.size() < budget) {
    if (StopRequested(options, timer.ElapsedSeconds())) {
      result.stopped_early = true;
      break;
    }
    struct Best {
      uint64_t gain = 0;
      EdgeId edge = kInvalidEdge;
    };
    const int workers = ParallelChunkCount(m);
    std::vector<Best> bests(workers);
    CandidateCursor cursor(m);
    ParallelForChunked(workers, [&](int worker, int64_t, int64_t) {
      // Worker-local search state (epoch-stamped scratch arrays).
      FollowerSearch search(g, triangles);
      search.SetState(current, anchored);
      Best local;
      int64_t begin = 0;
      int64_t end = 0;
      while (cursor.Claim(&begin, &end)) {
        for (int64_t i = begin; i < end; ++i) {
          const EdgeId e = static_cast<EdgeId>(i);
          if (!EligibleCandidate(*current, *anchored, e)) continue;
          const uint64_t gain = search.CountFollowers(e);
          if (local.edge == kInvalidEdge ||
              BetterCandidate(gain, e, local.gain, local.edge)) {
            local = Best{gain, e};
          }
        }
      }
      bests[worker] = local;
    });
    Best best;
    for (const Best& b : bests) {
      if (b.edge == kInvalidEdge) continue;
      if (best.edge == kInvalidEdge ||
          BetterCandidate(b.gain, b.edge, best.gain, best.edge)) {
        best = b;
      }
    }
    if (best.edge == kInvalidEdge) break;  // no eligible candidate left

    AnchorRound round;
    round.anchor = best.edge;
    round.gain = static_cast<uint32_t>(best.gain);
    std::vector<EdgeId> followers;
    const uint32_t recount = engine.ApplyAnchor(best.edge, &followers);
    ATR_CHECK(recount == best.gain);
    for (const EdgeId f : followers) {
      // Each follower rose by exactly 1; recover the pre-anchor value.
      round.follower_trussness.push_back(current->trussness[f] - 1);
    }
    engine.ClearUndoLog();
    round.cumulative_seconds = timer.ElapsedSeconds();
    if (!RecordRound(options, budget, std::move(round), result)) break;
  }
  FinishGreedyResult(options, timer.ElapsedSeconds(), result);
  return result;
}

}  // namespace atr
