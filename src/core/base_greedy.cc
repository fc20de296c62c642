#include "core/base_greedy.h"

#include <mutex>

#include "core/greedy_internal.h"
#include "truss/decomposition.h"
#include "truss/gain.h"
#include "util/macros.h"
#include "util/parallel_for.h"
#include "util/timer.h"

namespace atr {
namespace {

struct Best {
  uint64_t gain = 0;
  EdgeId edge = kInvalidEdge;
};

Best MergeBests(const std::vector<Best>& bests) {
  Best best;
  for (const Best& b : bests) {
    if (b.edge == kInvalidEdge) continue;
    if (best.edge == kInvalidEdge ||
        BetterCandidate(b.gain, b.edge, best.gain, best.edge)) {
      best = b;
    }
  }
  return best;
}

// The round state BASE carries between commits. Every commit recomputes
// the decomposition from scratch, as the paper's Algorithm 2 does.
struct GreedySeedState {
  std::vector<bool> anchored;
  TrussDecomposition current;
  // Edges participating in the decomposition; empty = all of them. Fixed
  // for the whole run (anchoring never removes edges).
  std::vector<EdgeId> alive;
};

GreedySeedState MakeGreedySeedState(const Graph& g,
                                    const TrussDecomposition* seed,
                                    const std::vector<bool>* initial_anchors) {
  GreedySeedState state;
  state.anchored = initial_anchors != nullptr
                       ? *initial_anchors
                       : std::vector<bool>(g.NumEdges(), false);
  ATR_CHECK(state.anchored.size() == g.NumEdges());
  state.current =
      seed != nullptr ? *seed : ComputeTrussDecomposition(g, state.anchored);
  state.alive = AliveSubsetOf(state.current);
  return state;
}

TrussDecomposition RecomputeGreedyState(const Graph& g,
                                        const std::vector<bool>& anchored,
                                        const std::vector<EdgeId>& alive) {
  return alive.empty() ? ComputeTrussDecomposition(g, anchored)
                       : ComputeTrussDecompositionOnSubset(g, anchored, alive);
}

}  // namespace

AnchorResult RunBaseGreedy(const Graph& g, uint32_t budget,
                           const GreedyControl* control,
                           const TrussDecomposition* seed_decomposition,
                           const std::vector<bool>* initial_anchors) {
  const uint32_t m = g.NumEdges();
  AnchorResult result;
  if (m == 0) return result;
  budget = std::min<uint32_t>(budget, m);

  WallTimer timer;
  GreedySeedState state =
      MakeGreedySeedState(g, seed_decomposition, initial_anchors);
  std::vector<bool>& anchored = state.anchored;
  TrussDecomposition& current = state.current;

  while (result.anchors.size() < budget) {
    if (control != nullptr && control->ShouldStop(timer.ElapsedSeconds())) {
      result.stopped_early = true;
      break;
    }
    // Chunk-local winners merged deterministically by (gain, edge id).
    std::vector<Best> bests;
    std::mutex mu;
    ParallelFor(m, [&](int64_t begin, int64_t end) {
      Best local;
      for (int64_t i = begin; i < end; ++i) {
        const EdgeId e = static_cast<EdgeId>(i);
        if (!EligibleCandidate(current, anchored, e)) continue;
        const uint64_t gain = TrussnessGain(g, current, anchored, {e});
        if (local.edge == kInvalidEdge ||
            BetterCandidate(gain, e, local.gain, local.edge)) {
          local = Best{gain, e};
        }
      }
      std::lock_guard<std::mutex> lock(mu);
      bests.push_back(local);
    });
    const Best best = MergeBests(bests);
    if (best.edge == kInvalidEdge) break;  // no eligible candidate left

    // Record the followers' trussness before applying the anchor.
    AnchorRound round;
    round.anchor = best.edge;
    round.gain = static_cast<uint32_t>(best.gain);
    for (EdgeId f : BruteForceFollowers(g, current, anchored, best.edge)) {
      round.follower_trussness.push_back(current.trussness[f]);
    }

    anchored[best.edge] = true;
    current = RecomputeGreedyState(g, anchored, state.alive);
    round.cumulative_seconds = timer.ElapsedSeconds();
    result.total_gain += best.gain;
    result.anchors.push_back(best.edge);
    result.rounds.push_back(std::move(round));
    if (!NotifyRound(control, budget, result)) break;
  }
  return result;
}

}  // namespace atr
