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

// One CandidateCursor block's cache. `reads` holds every edge its
// candidates' last searches popped, each tagged in `owners` with the
// popping candidate's offset in the block; `best` is the block's best
// eligible candidate under BetterCandidate (kInvalidEdge when it has
// none). Only the worker that claims the block reads or writes it.
struct BlockCache {
  std::vector<EdgeId> reads;
  std::vector<uint8_t> owners;
  uint32_t best_gain = 0;
  EdgeId best = kInvalidEdge;
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

  // Per candidate its cached follower count, and per claim block its
  // tagged reads and best. Round 1 searches every eligible candidate;
  // after each commit MarkCommitWrites rewrites `marks` for the next
  // sweep. GAS never removes an edge, so a commit takes only its anchor
  // out of the `eligible` pool.
  constexpr int64_t kBlock = CandidateCursor::kBlock;
  static_assert(kBlock <= 256, "a read's owner tag is one byte");
  std::vector<uint32_t> gain(m, 0);
  std::vector<BlockCache> blocks((m + kBlock - 1) / kBlock);
  std::vector<uint8_t> marks(m, 0);
  uint32_t eligible = 0;

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
      uint32_t searched = 0;
    };
    const bool first_round = result.anchor_edges.empty();
    // Each worker folds the bests of the blocks it claims into a
    // stack-local best and publishes it once at the end (adjacent slots
    // would false-share).
    std::vector<Best> bests(workers);
    CandidateCursor cursor(m);
    ParallelForChunked(workers, [&](int worker, int64_t, int64_t) {
      FollowerSearch& search = *searches[worker];
      bool stale_flags[kBlock] = {};
      std::vector<EdgeId> popped;
      std::vector<EdgeId> fresh;
      std::vector<uint8_t> fresh_owners;
      Best local;
      int64_t begin = 0;
      int64_t end = 0;
      while (cursor.Claim(&begin, &end)) {
        BlockCache& block = blocks[begin / kBlock];
        const std::span<bool> stale(stale_flags, end - begin);
        bool rewrite = true;
        if (first_round) {
          std::fill(stale.begin(), stale.end(), true);
        } else {
          rewrite = FlagStaleCandidates(marks, begin, block.reads,
                                        block.owners, stale);
        }
        if (rewrite) {
          // Search the stale candidates again and find the block's best
          // again. The last anchor is in the commit's written set, so its
          // kNear mark flags it and its block is rewritten; it is no longer
          // eligible, so it is not searched and keeps no reads.
          fresh.clear();
          fresh_owners.clear();
          block.best = kInvalidEdge;
          for (int64_t i = begin; i < end; ++i) {
            const EdgeId e = static_cast<EdgeId>(i);
            if (!EligibleCandidate(current, anchored, e)) continue;
            if (stale[i - begin]) {
              gain[e] = search.CountFollowers(e, nullptr, &popped);
              fresh.insert(fresh.end(), popped.begin(), popped.end());
              fresh_owners.insert(fresh_owners.end(), popped.size(),
                                  static_cast<uint8_t>(i - begin));
              ++local.searched;
            }
            if (block.best == kInvalidEdge ||
                BetterCandidate(gain[e], e, block.best_gain, block.best)) {
              block.best_gain = gain[e];
              block.best = e;
            }
          }
          // Drop the stale candidates' reads in place and append the fresh
          // ones. The exact reserve keeps a block's buffers to its own
          // largest read set; growing them by doubling raised gas_large's
          // peak RSS by ~3%.
          size_t kept = 0;
          for (size_t j = 0; j < block.reads.size(); ++j) {
            if (stale[block.owners[j]]) continue;
            block.reads[kept] = block.reads[j];
            block.owners[kept] = block.owners[j];
            ++kept;
          }
          block.reads.resize(kept);
          block.owners.resize(kept);
          block.reads.reserve(kept + fresh.size());
          block.owners.reserve(kept + fresh.size());
          block.reads.insert(block.reads.end(), fresh.begin(), fresh.end());
          block.owners.insert(block.owners.end(), fresh_owners.begin(),
                              fresh_owners.end());
        }
        if (block.best != kInvalidEdge &&
            (local.edge == kInvalidEdge ||
             BetterCandidate(block.best_gain, block.best, local.gain,
                             local.edge))) {
          local.gain = block.best_gain;
          local.edge = block.best;
        }
      }
      bests[worker] = local;
    });
    Best best;
    for (const Best& b : bests) {
      best.searched += b.searched;
      if (b.edge == kInvalidEdge) continue;
      if (best.edge == kInvalidEdge ||
          BetterCandidate(b.gain, b.edge, best.gain, best.edge)) {
        best.gain = b.gain;
        best.edge = b.edge;
      }
    }
    if (first_round) eligible = best.searched;
    if (best.edge == kInvalidEdge) break;  // no eligible candidate left
    const EdgeId x = best.edge;

    AnchorRound round;
    round.anchor = x;
    round.gain = static_cast<uint32_t>(best.gain);
    round.fully_reusable = eligible - best.searched;
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
    --eligible;

    round.cumulative_seconds = timer.ElapsedSeconds();
    if (!RecordRound(options, budget, std::move(round), result)) break;
  }
  FinishGreedyResult(options, timer.ElapsedSeconds(), result);
  return result;
}

}  // namespace atr
