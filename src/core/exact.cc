#include "core/exact.h"

#include <mutex>

#include "route/follower_search.h"
#include "truss/decomposition.h"
#include "truss/incremental.h"
#include "util/macros.h"
#include "util/parallel_for.h"
#include "util/timer.h"

namespace atr {
namespace {

struct BestSet {
  uint64_t gain = 0;
  std::vector<EdgeId> anchors;
  uint64_t evaluated = 0;

  void Consider(uint64_t candidate_gain, const std::vector<EdgeId>& set) {
    ++evaluated;
    if (anchors.empty() || candidate_gain > gain ||
        (candidate_gain == gain && set < anchors)) {
      gain = candidate_gain;
      anchors = set;
    }
  }

  void Merge(const BestSet& other) {
    evaluated += other.evaluated;
    if (other.anchors.empty()) return;
    if (anchors.empty() || other.gain > gain ||
        (other.gain == gain && other.anchors < anchors)) {
      gain = other.gain;
      anchors = other.anchors;
    }
  }
};

// One worker's depth-first walk over the subsets of its first-element
// range. `engine` holds the anchors of `prefix` applied on top of `base`,
// and `search` reads the engine's state.
struct SubsetWalk {
  SubsetWalk(const Graph& g, const TrussDecomposition& base,
             const TriangleIndex& triangles)
      : base(base), engine(g, base, &triangles), search(g, triangles) {
    search.SetState(&engine.decomposition(), &engine.anchored());
  }

  // Scores every subset that extends `prefix`, whose Definition-4 gain is
  // `running`, by edge `e` and then `remaining` more edges with larger
  // ids. Anchoring e adds its follower count and drops its own rise since
  // `base` from the sum, as IncrementalTruss::ScoreAnchorSet does.
  void Extend(EdgeId e, uint64_t running, uint32_t remaining) {
    const uint32_t rise =
        engine.decomposition().trussness[e] - base.trussness[e];
    prefix.push_back(e);
    if (remaining == 0) {
      best.Consider(running + search.CountFollowers(e) - rise, prefix);
    } else {
      const IncrementalTruss::Checkpoint cp = engine.MarkRollbackPoint();
      const uint64_t gain = running + engine.ApplyAnchor(e) - rise;
      const uint32_t m = engine.graph().NumEdges();
      for (EdgeId next = e + 1; next + remaining <= m; ++next) {
        Extend(next, gain, remaining - 1);
      }
      engine.RollbackTo(cp);
    }
    prefix.pop_back();
  }

  const TrussDecomposition& base;
  IncrementalTruss engine;
  FollowerSearch search;
  std::vector<EdgeId> prefix;
  BestSet best;
};

// The best `budget`-subset of all C(m, budget).
BestSet BestSubset(const Graph& g, const TrussDecomposition& base,
                   const TriangleIndex& triangles, uint32_t budget) {
  const uint32_t m = g.NumEdges();
  ATR_CHECK(budget >= 1 && budget <= m);
  std::vector<BestSet> partials;
  std::mutex mu;
  // Parallelize over the first subset element; each worker enumerates the
  // completions of its first-element range, in lexicographic order.
  ParallelFor(m, [&](int64_t begin, int64_t end) {
    SubsetWalk walk(g, base, triangles);
    for (int64_t i = begin; i < end; ++i) {
      const EdgeId first = static_cast<EdgeId>(i);
      if (first + budget > m) continue;  // not enough ids left to complete
      walk.Extend(first, 0, budget - 1);
    }
    std::lock_guard<std::mutex> lock(mu);
    partials.push_back(std::move(walk.best));
  });

  BestSet best;
  for (const BestSet& p : partials) best.Merge(p);
  ATR_CHECK(!best.anchors.empty());
  return best;
}

}  // namespace

SolveResult RunExact(const Graph& g, const TrussDecomposition& base,
                     const TriangleIndex& triangles,
                     const SolverOptions& options) {
  WallTimer timer;
  SolveResult result;
  result.solver = "exact";
  const std::vector<uint32_t> checkpoints = EffectiveCheckpoints(options);
  for (size_t c = 0; c < checkpoints.size(); ++c) {
    // The first checkpoint always runs unless cancelled.
    if (StopRequested(options, c == 0 ? 0.0 : timer.ElapsedSeconds())) {
      result.stopped_early = true;
      break;
    }
    BestSet best = BestSubset(g, base, triangles, checkpoints[c]);
    result.gain_at_checkpoint.push_back(best.gain);
    result.subsets_evaluated += best.evaluated;
    result.anchor_edges = std::move(best.anchors);
    result.total_gain = best.gain;
    if (!NotifyRound(options, result, static_cast<uint32_t>(c + 1),
                     options.budget, timer.ElapsedSeconds())) {
      result.stopped_early = true;
      break;
    }
  }
  result.seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace atr
