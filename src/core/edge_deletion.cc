#include "core/edge_deletion.h"

#include <algorithm>
#include <numeric>

#include "truss/incremental.h"
#include "util/macros.h"
#include "util/parallel_for.h"

namespace atr {

EdgeDeletionResult RunEdgeDeletionBaseline(const Graph& g, uint32_t budget) {
  const uint32_t m = g.NumEdges();
  EdgeDeletionResult result;
  if (m == 0 || budget == 0) return result;
  budget = std::min<uint32_t>(budget, m);

  IncrementalTruss engine(g);

  // Deletion impact of each edge: the trussness lost by the *other* edges
  // when it is removed. Impacts are independent per candidate, so the
  // "greedy" selection is the top-b ranking. Each candidate is scored by a
  // speculative RemoveEdge + rollback on a per-worker clone of the
  // incremental engine — one localized update per candidate instead of one
  // full decomposition, and the rollback guarantees the next candidate of
  // the chunk never sees stale support state from the previous one.
  std::vector<uint64_t> impact(m, 0);
  ParallelFor(m, [&](int64_t begin, int64_t end) {
    IncrementalTruss local(engine);
    for (int64_t i = begin; i < end; ++i) {
      const EdgeId e = static_cast<EdgeId>(i);
      const IncrementalTruss::Checkpoint cp = local.MarkRollbackPoint();
      impact[e] = local.RemoveEdge(e);
      local.RollbackTo(cp);
    }
  });

  std::vector<EdgeId> order(m);
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&impact](EdgeId a, EdgeId b) {
    return impact[a] != impact[b] ? impact[a] > impact[b] : a < b;
  });
  result.anchors.assign(order.begin(), order.begin() + budget);
  const uint32_t whole_set[] = {budget};
  uint64_t gain[1];
  engine.ScoreAnchorSet(result.anchors, whole_set, gain);
  result.total_gain = gain[0];
  return result;
}

}  // namespace atr
