#include "core/gas.h"

#include <algorithm>
#include <memory>
#include <span>

#include "core/greedy_internal.h"
#include "graph/triangle_index.h"
#include "route/follower_search.h"
#include "truss/decomposition.h"
#include "truss/incremental.h"
#include "util/macros.h"
#include "util/parallel_for.h"
#include "util/timer.h"

namespace atr {
namespace {

// The read sets of one CandidateCursor block's candidates: candidate
// begin + i popped edges[end[i - 1], end[i]) in its last search (from 0
// for i = 0). Only the worker that claims the block reads or writes it.
struct BlockReads {
  std::vector<uint32_t> end;
  std::vector<EdgeId> edges;

  std::span<const EdgeId> Of(int64_t i) const {
    const uint32_t from = i == 0 ? 0 : end[i - 1];
    return {edges.data() + from, end[i] - from};
  }
};

}  // namespace

SolveResult RunGas(const Graph& g, const TrussDecomposition& seed,
                   const TriangleIndex& triangles,
                   const SolverOptions& options) {
  const uint32_t m = g.NumEdges();
  const uint32_t budget = options.budget;
  WallTimer timer;
  SolveResult result;
  result.solver = "gas";
  // The committed (decomposition, anchors) state, updated in place by each
  // commit; the sweeps read it between commits.
  IncrementalTruss engine(g, seed, &triangles);
  const TrussDecomposition& current = engine.decomposition();
  const std::vector<bool>& anchored = engine.anchored();

  // Per candidate: its cached follower count and, per claim block, the
  // edges its last search popped. `marks` starts all-kNear, so round 1
  // searches every candidate; after each commit MarkCommitWrites rewrites
  // it for the next sweep.
  constexpr int64_t kBlock = CandidateCursor::kBlock;
  std::vector<uint32_t> gain(m, 0);
  std::vector<BlockReads> blocks((m + kBlock - 1) / kBlock);
  for (size_t b = 0; b < blocks.size(); ++b) {
    const int64_t first = static_cast<int64_t>(b) * kBlock;
    blocks[b].end.assign(std::min<int64_t>(kBlock, m - first), 0);
  }
  std::vector<uint8_t> marks(m, kNear);

  // One search per sweep worker for the whole solve; each reads the
  // engine's state in place.
  const int workers = ParallelChunkCount(m);
  std::vector<std::unique_ptr<FollowerSearch>> searches(workers);
  for (std::unique_ptr<FollowerSearch>& search : searches) {
    search = std::make_unique<FollowerSearch>(g, triangles);
    search->SetState(&current, &anchored);
  }

  while (result.anchor_edges.size() < budget) {
    if (StopRequested(options, timer.ElapsedSeconds())) {
      result.stopped_early = true;
      break;
    }
    struct Best {
      uint64_t gain = 0;
      EdgeId edge = kInvalidEdge;
      uint32_t reused = 0;
      uint32_t searched = 0;
    };
    // Each worker evaluates the blocks it claims into a stack-local best and
    // publishes it once at the end (adjacent slots would false-share).
    std::vector<Best> bests(workers);
    CandidateCursor cursor(m);
    ParallelForChunked(workers, [&](int worker, int64_t, int64_t) {
      FollowerSearch& search = *searches[worker];
      bool redo[kBlock];
      BlockReads rebuilt;
      std::vector<EdgeId> popped;
      Best local;
      int64_t begin = 0;
      int64_t end = 0;
      while (cursor.Claim(&begin, &end)) {
        BlockReads& block = blocks[begin / kBlock];
        bool any = false;
        for (int64_t i = begin; i < end; ++i) {
          const EdgeId e = static_cast<EdgeId>(i);
          redo[i - begin] = EligibleCandidate(current, anchored, e) &&
                            ReadsCommitWrites(marks, e, block.Of(i - begin));
          any = any || redo[i - begin];
        }
        if (any) {
          // Rewrite the block: fresh read sets for the re-searched
          // candidates, the cached ones for the rest; ineligible
          // candidates keep none.
          rebuilt.end.clear();
          rebuilt.edges.clear();
          for (int64_t i = begin; i < end; ++i) {
            const EdgeId e = static_cast<EdgeId>(i);
            if (redo[i - begin]) {
              gain[e] = search.CountFollowers(e, nullptr, &popped);
              rebuilt.edges.insert(rebuilt.edges.end(), popped.begin(),
                                   popped.end());
            } else if (EligibleCandidate(current, anchored, e)) {
              const std::span<const EdgeId> cached = block.Of(i - begin);
              rebuilt.edges.insert(rebuilt.edges.end(), cached.begin(),
                                   cached.end());
            }
            rebuilt.end.push_back(
                static_cast<uint32_t>(rebuilt.edges.size()));
          }
          // Copy rather than swap: a block's buffers then never outgrow its
          // own largest read sets.
          block.end = rebuilt.end;
          block.edges = rebuilt.edges;
        }
        for (int64_t i = begin; i < end; ++i) {
          const EdgeId e = static_cast<EdgeId>(i);
          if (!EligibleCandidate(current, anchored, e)) continue;
          if (redo[i - begin]) {
            ++local.searched;
          } else {
            ++local.reused;
          }
          if (local.edge == kInvalidEdge ||
              BetterCandidate(gain[e], e, local.gain, local.edge)) {
            local.gain = gain[e];
            local.edge = e;
          }
        }
      }
      bests[worker] = local;
    });
    Best best;
    for (const Best& b : bests) {
      best.reused += b.reused;
      best.searched += b.searched;
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
    round.fully_reusable = best.reused;
    round.partially_reusable = 0;
    round.non_reusable = best.searched;

    // Commit x. ApplyAnchor starts with a fresh CountFollowers of x, which
    // checks the cached gain; each follower then sits exactly 1 above its
    // pre-anchor trussness. The undo log then holds exactly this commit's
    // writes, which mark the candidates the next sweep must re-search.
    std::vector<EdgeId> followers;
    const uint32_t recount = engine.ApplyAnchor(x, &followers);
    ATR_CHECK_MSG(recount == best.gain, "reused gain diverged from recount");
    for (const EdgeId f : followers) {
      round.follower_trussness.push_back(current.trussness[f] - 1);
    }
    if (result.anchor_edges.size() + 1 < budget) {
      MarkCommitWrites(engine, triangles, &marks);
    }
    engine.ClearUndoLog();

    round.cumulative_seconds = timer.ElapsedSeconds();
    if (!RecordRound(options, budget, std::move(round), result)) break;
  }
  FinishGreedyResult(options, timer.ElapsedSeconds(), result);
  return result;
}

}  // namespace atr
