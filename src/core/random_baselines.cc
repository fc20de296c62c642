#include "core/random_baselines.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <numeric>
#include <string>

#include "route/follower_search.h"
#include "truss/decomposition.h"
#include "truss/incremental.h"
#include "util/macros.h"
#include "util/parallel_for.h"
#include "util/prng.h"
#include "util/timer.h"

namespace atr {
namespace {

// Keep fraction of the Sup/Tur pools. BaselinePoolCapacity must stay in
// lockstep with the truncation below.
constexpr double kTopPoolFraction = 0.2;

size_t TopPoolKeepCount(size_t total) {
  return std::max<size_t>(
      1, static_cast<size_t>(kTopPoolFraction * static_cast<double>(total)));
}

std::vector<EdgeId> TopFractionByScore(const std::vector<uint64_t>& score) {
  std::vector<EdgeId> order(score.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&score](EdgeId a, EdgeId b) {
    return score[a] != score[b] ? score[a] > score[b] : a < b;
  });
  order.resize(std::min(order.size(), TopPoolKeepCount(order.size())));
  return order;
}

// The registry name of the solver that draws from `kind`'s pool.
const char* PoolSolverName(RandomPoolKind kind) {
  switch (kind) {
    case RandomPoolKind::kAllEdges:
      return "rand";
    case RandomPoolKind::kTopSupport:
      return "sup";
    case RandomPoolKind::kTopRouteSize:
      return "tur";
  }
  return "";
}

}  // namespace

uint32_t BaselinePoolCapacity(const Graph& g, RandomPoolKind kind) {
  const uint32_t m = g.NumEdges();
  if (kind == RandomPoolKind::kAllEdges || m == 0) return m;
  return static_cast<uint32_t>(TopPoolKeepCount(m));
}

std::vector<EdgeId> BaselinePool(const Graph& g,
                                 const TrussDecomposition& base,
                                 const TriangleIndex& triangles,
                                 RandomPoolKind kind) {
  const uint32_t m = g.NumEdges();
  ATR_CHECK(triangles.NumEdges() == m);
  switch (kind) {
    case RandomPoolKind::kAllEdges: {
      std::vector<EdgeId> all(m);
      std::iota(all.begin(), all.end(), 0u);
      return all;
    }
    case RandomPoolKind::kTopSupport: {
      // An edge's support is the length of its triangle list.
      std::vector<uint64_t> score(m);
      for (EdgeId e = 0; e < m; ++e) {
        score[e] = triangles.offsets[e + 1] - triangles.offsets[e];
      }
      return TopFractionByScore(score);
    }
    case RandomPoolKind::kTopRouteSize: {
      std::vector<uint64_t> score(m, 0);
      ParallelFor(m, [&](int64_t begin, int64_t end) {
        FollowerSearch search(g, triangles);
        search.SetState(&base, nullptr);
        for (int64_t i = begin; i < end; ++i) {
          score[i] = search.RouteSize(static_cast<EdgeId>(i));
        }
      });
      return TopFractionByScore(score);
    }
  }
  return {};
}

StatusOr<SolveResult> RunRandomBaseline(const Graph& g,
                                        const TrussDecomposition& base,
                                        const TriangleIndex& triangles,
                                        RandomPoolKind kind,
                                        const SolverOptions& options) {
  if (options.trials == 0) {
    return Status::InvalidArgument("random baseline: trials must be >= 1");
  }
  // `seconds` and the wall-clock limit both count the pool build.
  WallTimer timer;
  const std::vector<uint32_t> checkpoints = EffectiveCheckpoints(options);
  const uint32_t budget = checkpoints.back();
  const std::vector<EdgeId> pool = BaselinePool(g, base, triangles, kind);
  ATR_CHECK(!pool.empty());
  // Sup/Tur draw from the top-20% pool, so their effective budget ceiling
  // is the pool size — reject rather than silently drawing fewer anchors
  // than requested.
  if (budget > pool.size()) {
    return Status::InvalidArgument(
        "random baseline: budget " + std::to_string(budget) +
        " exceeds the candidate pool size " + std::to_string(pool.size()) +
        " for this pool kind");
  }

  struct TrialBest {
    uint64_t gain = 0;
    uint32_t trial = 0xffffffffu;
    std::vector<EdgeId> anchors;
    std::vector<uint64_t> checkpoint_gain;
  };
  std::vector<TrialBest> partials;
  std::mutex mu;
  std::atomic<bool> stopped{false};
  std::atomic<uint32_t> trials_done{0};

  ParallelFor(options.trials, [&](int64_t begin, int64_t end) {
    IncrementalTruss engine(g, base, &triangles);
    std::vector<uint64_t> gains(checkpoints.size());
    TrialBest local;
    local.checkpoint_gain.assign(checkpoints.size(), 0);
    for (int64_t trial = begin; trial < end; ++trial) {
      if (StopRequested(options, timer.ElapsedSeconds())) {
        stopped.store(true, std::memory_order_relaxed);
        break;
      }
      trials_done.fetch_add(1, std::memory_order_relaxed);
      // Independent deterministic stream per trial.
      Rng rng(options.seed ^ (0x9e3779b97f4a7c15ULL * (trial + 1)));
      std::vector<uint32_t> picks = rng.SampleWithoutReplacement(
          static_cast<uint32_t>(pool.size()), budget);
      rng.Shuffle(picks);  // checkpoint prefixes must be a random order
      std::vector<EdgeId> anchors;
      anchors.reserve(budget);
      for (uint32_t p : picks) anchors.push_back(pool[p]);

      // Score every checkpoint prefix; the last one is the whole draw.
      engine.ScoreAnchorSet(anchors, checkpoints, gains);
      for (size_t c = 0; c < checkpoints.size(); ++c) {
        local.checkpoint_gain[c] = std::max(local.checkpoint_gain[c], gains[c]);
      }
      const uint64_t gain = gains.back();
      const uint32_t t32 = static_cast<uint32_t>(trial);
      if (gain > local.gain || (gain == local.gain && t32 < local.trial)) {
        local.gain = gain;
        local.trial = t32;
        local.anchors = std::move(anchors);
      }
    }
    std::lock_guard<std::mutex> lock(mu);
    partials.push_back(std::move(local));
  });

  SolveResult result;
  result.solver = PoolSolverName(kind);
  result.trials = trials_done.load(std::memory_order_relaxed);
  result.stopped_early = stopped.load(std::memory_order_relaxed);
  result.gain_at_checkpoint.assign(checkpoints.size(), 0);
  uint32_t best_trial = 0xffffffffu;
  for (const TrialBest& p : partials) {
    for (size_t c = 0; c < result.gain_at_checkpoint.size(); ++c) {
      result.gain_at_checkpoint[c] =
          std::max(result.gain_at_checkpoint[c], p.checkpoint_gain[c]);
    }
    if (p.trial == 0xffffffffu) continue;
    if (p.gain > result.total_gain ||
        (p.gain == result.total_gain && p.trial < best_trial)) {
      result.total_gain = p.gain;
      result.anchor_edges = p.anchors;
      best_trial = p.trial;
    }
  }
  result.seconds = timer.ElapsedSeconds();
  // The run has finished, so the callback's answer changes nothing.
  NotifyRound(options, result,
              static_cast<uint32_t>(result.gain_at_checkpoint.size()),
              options.budget, result.seconds);
  return result;
}

}  // namespace atr
