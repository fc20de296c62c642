#include "core/exact.h"

#include <mutex>

#include "truss/decomposition.h"
#include "truss/gain.h"
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

// Enumerates all extensions of `prefix` with `remaining` more edges drawn
// from ids > prefix.back().
void Enumerate(const Graph& g, const TrussDecomposition& base,
               std::vector<EdgeId>& prefix, uint32_t remaining,
               BestSet& best) {
  if (remaining == 0) {
    best.Consider(TrussnessGain(g, base, {}, prefix), prefix);
    return;
  }
  const EdgeId start = prefix.empty() ? 0 : prefix.back() + 1;
  // Leave room for the rest of the subset.
  for (EdgeId e = start; e + remaining <= g.NumEdges(); ++e) {
    prefix.push_back(e);
    Enumerate(g, base, prefix, remaining - 1, best);
    prefix.pop_back();
  }
}

// The best `budget`-subset of all C(m, budget).
BestSet BestSubset(const Graph& g, const TrussDecomposition& base,
                   uint32_t budget) {
  const uint32_t m = g.NumEdges();
  ATR_CHECK(budget >= 1 && budget <= m);
  std::vector<BestSet> partials;
  std::mutex mu;
  // Parallelize over the first subset element; each worker enumerates the
  // completions of its first-element range.
  ParallelFor(m, [&](int64_t begin, int64_t end) {
    BestSet local;
    std::vector<EdgeId> prefix;
    for (int64_t i = begin; i < end; ++i) {
      const EdgeId first = static_cast<EdgeId>(i);
      if (first + budget > m) continue;  // not enough ids left to complete
      prefix.assign(1, first);
      Enumerate(g, base, prefix, budget - 1, local);
    }
    std::lock_guard<std::mutex> lock(mu);
    partials.push_back(std::move(local));
  });

  BestSet best;
  for (const BestSet& p : partials) best.Merge(p);
  ATR_CHECK(!best.anchors.empty());
  return best;
}

}  // namespace

SolveResult RunExact(const Graph& g, const TrussDecomposition& base,
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
    BestSet best = BestSubset(g, base, checkpoints[c]);
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
