#include "core/base_plus.h"

#include <memory>

#include "core/greedy_internal.h"
#include "graph/triangle_index.h"
#include "route/follower_search.h"
#include "truss/decomposition.h"
#include "truss/incremental.h"
#include "util/macros.h"
#include "util/parallel_for.h"
#include "util/timer.h"

namespace atr {

AnchorResult RunBasePlus(const Graph& g, uint32_t budget,
                         const GreedyControl* control,
                         const TrussDecomposition* seed_decomposition,
                         const std::vector<bool>* initial_anchors) {
  const uint32_t m = g.NumEdges();
  AnchorResult result;
  if (m == 0) return result;
  budget = std::min<uint32_t>(budget, m);

  WallTimer timer;
  // Two ways to keep the shared (decomposition, anchors) state current:
  // recompute from scratch after each commit (classic), or maintain it with
  // the incremental engine. Candidate evaluation reads the same state
  // either way, so the selected anchors are identical.
  const bool use_incremental =
      control != nullptr && control->use_incremental;
  std::unique_ptr<IncrementalTruss> engine;
  GreedySeedState state;
  const TrussDecomposition* current = nullptr;
  const std::vector<bool>* anchored = nullptr;
  if (use_incremental) {
    engine = std::make_unique<IncrementalTruss>(
        MakeGreedyEngine(g, seed_decomposition, initial_anchors));
    current = &engine->decomposition();
    anchored = &engine->anchored();
  } else {
    state = MakeGreedySeedState(g, seed_decomposition, initial_anchors);
    current = &state.current;
    anchored = &state.anchored;
  }
  // One full-graph triangle index for the whole solve, shared read-only by
  // every worker's search.
  const TriangleIndex triangles = BuildTriangleIndex(g);
  FollowerSearch main_search(g, triangles);

  while (result.anchors.size() < budget) {
    if (control != nullptr && control->ShouldStop(timer.ElapsedSeconds())) {
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
    if (use_incremental) {
      std::vector<EdgeId> followers;
      const uint32_t recount = engine->ApplyAnchor(best.edge, &followers);
      ATR_CHECK(recount == best.gain);
      for (const EdgeId f : followers) {
        // Each follower rose by exactly 1; recover the pre-anchor value.
        round.follower_trussness.push_back(current->trussness[f] - 1);
      }
      engine->ClearUndoLog();
    } else {
      std::vector<EdgeId> followers;
      main_search.SetState(current, anchored);
      const uint32_t recount =
          main_search.CountFollowers(best.edge, &followers);
      ATR_CHECK(recount == best.gain);
      for (const EdgeId f : followers) {
        round.follower_trussness.push_back(current->trussness[f]);
      }
      state.anchored[best.edge] = true;
      state.current = RecomputeGreedyState(g, state.anchored, state.alive);
    }
    round.cumulative_seconds = timer.ElapsedSeconds();
    result.total_gain += best.gain;
    result.anchors.push_back(best.edge);
    result.rounds.push_back(std::move(round));
    if (!NotifyRound(control, budget, result)) break;
  }
  return result;
}

}  // namespace atr
