// Edge-deletion baseline of the paper's Fig. 7 case study: greedily pick
// the b edges whose *removal* would reduce global trussness the most, then
// anchor those edges and measure the resulting trussness gain. The paper
// uses it to show that deletion-criticality targets high-trussness edges,
// which are poor anchors (an anchor only lifts edges at its own level or
// above).

#ifndef ATR_CORE_EDGE_DELETION_H_
#define ATR_CORE_EDGE_DELETION_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace atr {

struct EdgeDeletionResult {
  std::vector<EdgeId> anchors;  // selection order
  uint64_t total_gain = 0;      // TG of anchoring the selected edges
};

// Ranks every edge by a speculative RemoveEdge + rollback on the
// incremental engine, then scores the top `budget` as one anchor set on the
// same engine (IncrementalTruss::ScoreAnchorSet); intended for the
// case-study-sized graphs only.
EdgeDeletionResult RunEdgeDeletionBaseline(const Graph& g, uint32_t budget);

}  // namespace atr

#endif  // ATR_CORE_EDGE_DELETION_H_
