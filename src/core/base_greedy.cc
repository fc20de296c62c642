#include "core/base_greedy.h"

#include <mutex>

#include "core/greedy_internal.h"
#include "truss/decomposition.h"
#include "truss/gain.h"
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

}  // namespace

SolveResult RunBaseGreedy(const Graph& g, const TrussDecomposition& seed,
                          const SolverOptions& options) {
  const uint32_t m = g.NumEdges();
  const uint32_t budget = options.budget;
  WallTimer timer;
  SolveResult result;
  result.solver = "base";
  std::vector<bool> anchored(m, false);
  TrussDecomposition current = seed;

  while (result.anchor_edges.size() < budget) {
    if (StopRequested(options, timer.ElapsedSeconds())) {
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
    current = ComputeTrussDecomposition(g, anchored);
    round.cumulative_seconds = timer.ElapsedSeconds();
    if (!RecordRound(options, budget, std::move(round), result)) break;
  }
  FinishGreedyResult(options, timer.ElapsedSeconds(), result);
  return result;
}

}  // namespace atr
