#include "core/akt.h"

#include <algorithm>
#include <mutex>
#include <string>

#include "graph/triangles.h"
#include "util/macros.h"
#include "util/parallel_for.h"
#include "util/timer.h"

namespace atr {
namespace {

// Peeling engine for the anchored k-truss restricted to the (k-1)-truss.
// Edges with t >= k never leave the k-truss (they self-support within it),
// so only (k-1)-hull edges are peelable; supports are counted within the
// t >= k-1 subgraph. An engine instance is reusable across candidate
// evaluations (touched state is restored after each run).
class AnchoredKTrussEngine {
 public:
  AnchoredKTrussEngine(const Graph& g, const TrussDecomposition& decomp,
                       uint32_t k)
      : g_(g), decomp_(decomp), k_(k) {
    const uint32_t m = g.NumEdges();
    in_scope_.assign(m, false);
    for (EdgeId e = 0; e < m; ++e) {
      const uint32_t t = decomp.trussness[e];
      if (t != kAnchoredTrussness && t >= k - 1) in_scope_[e] = true;
      if (decomp.trussness[e] == k - 1) hull_.push_back(e);
    }
    // Scope-restricted supports from one whole-graph sweep.
    base_support_ = ComputeSupport(g, in_scope_);
    support_ = base_support_;
    removed_.assign(m, false);
  }

  const std::vector<EdgeId>& hull() const { return hull_; }

  // Number of (k-1)-hull edges retained in the anchored k-truss when the
  // vertices in `anchored_vertex` (a mask) are anchored. When `followers`
  // is non-null the retained hull edges are appended.
  //
  // Exemption semantics (Zhang et al., cf. the paper's Example 1): an edge
  // incident to an anchored vertex keeps infinite support as long as it
  // still closes at least one triangle in the remaining subgraph — it is
  // only peeled when its support reaches zero.
  uint32_t Evaluate(const std::vector<bool>& anchored_vertex,
                    std::vector<EdgeId>* followers = nullptr) {
    auto exempt = [&](EdgeId e) {
      const EdgeEndpoints ends = g_.Edge(e);
      return anchored_vertex[ends.u] || anchored_vertex[ends.v];
    };
    auto peelable = [&](EdgeId e) {
      return exempt(e) ? support_[e] == 0 : support_[e] < k_ - 2;
    };
    // Edges are marked removed one at a time when popped, never in batch: a
    // triangle whose two other edges both die must decrement the third
    // exactly once, which requires the second death to still see the first
    // edge dead but happen *after* the first death's scan.
    std::vector<EdgeId> frontier;
    for (EdgeId e : hull_) {
      if (peelable(e)) frontier.push_back(e);
    }
    while (!frontier.empty()) {
      const EdgeId e = frontier.back();
      frontier.pop_back();
      if (removed_[e] || !peelable(e)) continue;
      removed_[e] = true;
      touched_removed_.push_back(e);
      ForEachTriangleOfEdge(g_, e, [&](VertexId, EdgeId e1, EdgeId e2) {
        if (!Alive(e1) || !Alive(e2)) return;
        for (const EdgeId p : {e1, e2}) {
          // Only hull edges can be peeled; t >= k edges self-support.
          if (decomp_.trussness[p] != k_ - 1) continue;
          if (support_[p] == base_support_[p]) touched_support_.push_back(p);
          --support_[p];
          if (!removed_[p] && peelable(p)) frontier.push_back(p);
        }
      });
    }
    uint32_t retained = 0;
    for (EdgeId e : hull_) {
      if (!removed_[e]) {
        ++retained;
        if (followers != nullptr) followers->push_back(e);
      }
    }
    // Restore scratch state.
    for (EdgeId e : touched_support_) support_[e] = base_support_[e];
    for (EdgeId e : touched_removed_) removed_[e] = false;
    touched_support_.clear();
    touched_removed_.clear();
    return retained;
  }

 private:
  bool Alive(EdgeId e) const { return in_scope_[e] && !removed_[e]; }

  const Graph& g_;
  const TrussDecomposition& decomp_;
  const uint32_t k_;
  std::vector<EdgeId> hull_;
  std::vector<uint32_t> base_support_;
  std::vector<uint32_t> support_;
  std::vector<bool> in_scope_;
  std::vector<bool> removed_;
  std::vector<EdgeId> touched_support_;
  std::vector<EdgeId> touched_removed_;
};

}  // namespace

std::vector<EdgeId> AktFollowers(const Graph& g,
                                 const TrussDecomposition& decomp, uint32_t k,
                                 const std::vector<VertexId>& anchors) {
  ATR_CHECK(k >= 3);
  AnchoredKTrussEngine engine(g, decomp, k);
  std::vector<bool> mask(g.NumVertices(), false);
  for (VertexId v : anchors) mask[v] = true;
  std::vector<EdgeId> followers;
  engine.Evaluate(mask, &followers);
  return followers;
}

SolveResult RunAkt(const Graph& g, const TrussDecomposition& decomp,
                   uint32_t k, const SolverOptions& options) {
  ATR_CHECK(k >= 3);
  WallTimer timer;
  SolveResult result;
  result.solver = "akt:" + std::to_string(k);

  // Candidate vertices: endpoints of (k-1)-hull edges.
  AnchoredKTrussEngine probe(g, decomp, k);
  std::vector<VertexId> candidates;
  for (EdgeId e : probe.hull()) {
    candidates.push_back(g.Edge(e).u);
    candidates.push_back(g.Edge(e).v);
  }
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());

  std::vector<bool> anchored_vertex(g.NumVertices(), false);
  std::vector<uint64_t> gain_after;  // cumulative gain after each round
  const uint32_t budget =
      std::min<uint32_t>(options.budget, candidates.size());
  for (uint32_t round = 0; round < budget; ++round) {
    if (StopRequested(options, timer.ElapsedSeconds())) {
      result.stopped_early = true;
      break;
    }
    struct Best {
      uint64_t gain = 0;
      VertexId vertex = kInvalidVertex;
    };
    std::vector<Best> bests;
    std::mutex mu;
    ParallelFor(candidates.size(), [&](int64_t begin, int64_t end) {
      AnchoredKTrussEngine engine(g, decomp, k);
      std::vector<bool> mask = anchored_vertex;
      Best local;
      for (int64_t i = begin; i < end; ++i) {
        const VertexId v = candidates[i];
        if (anchored_vertex[v]) continue;
        mask[v] = true;
        const uint64_t gain = engine.Evaluate(mask);
        mask[v] = false;
        if (local.vertex == kInvalidVertex || gain > local.gain ||
            (gain == local.gain && v < local.vertex)) {
          local = Best{gain, v};
        }
      }
      std::lock_guard<std::mutex> lock(mu);
      bests.push_back(local);
    });
    Best best;
    for (const Best& b : bests) {
      if (b.vertex == kInvalidVertex) continue;
      if (best.vertex == kInvalidVertex || b.gain > best.gain ||
          (b.gain == best.gain && b.vertex < best.vertex)) {
        best = b;
      }
    }
    ATR_CHECK(best.vertex != kInvalidVertex);
    anchored_vertex[best.vertex] = true;
    result.anchor_vertices.push_back(best.vertex);
    result.total_gain = best.gain;
    gain_after.push_back(best.gain);
    if (!NotifyRound(options, result, round + 1, budget,
                     timer.ElapsedSeconds())) {
      result.stopped_early = true;
      break;
    }
  }
  for (uint32_t c : EffectiveCheckpoints(options)) {
    result.gain_at_checkpoint.push_back(
        gain_after.empty()
            ? 0
            : gain_after[std::min<size_t>(c, gain_after.size()) - 1]);
  }
  result.seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace atr
