// Construction of the NP-hardness reduction (Theorem 1 / Fig. 2 of the
// paper): a maximum-coverage instance becomes an ATR instance whose optimal
// b-anchor gain equals the optimal b-set coverage. Used by the validation
// suite to exercise the problem structure end-to-end.
//
// Layout: a hub vertex h; per set T_i a "set edge" a_i = (h, A_i); per
// element e_j an "element edge" f_j = (h, F_j). For every (i, j) with e_j
// in T_i, a (t+3)-clique containing A_i and F_j closes the triangle
// {a_i, f_j, (A_i, F_j)}. Each f_j additionally gets t triangles against
// 2t private (t+3)-cliques, pinning t(f_j) = t+2 so that anchoring a_i
// lifts exactly its covered element edges by one.

#ifndef ATR_CORE_MAX_COVERAGE_GADGET_H_
#define ATR_CORE_MAX_COVERAGE_GADGET_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace atr {

struct MaxCoverageGadget {
  Graph graph;
  // Edge id of a_i for each input set.
  std::vector<EdgeId> set_edges;
  // Edge id of f_j for each element.
  std::vector<EdgeId> element_edges;
  uint32_t num_elements = 0;
};

// `sets` lists, per set, the element indices it covers (elements are
// 0..num_elements-1; every element must appear in at least one set).
MaxCoverageGadget BuildMaxCoverageGadget(
    const std::vector<std::vector<uint32_t>>& sets, uint32_t num_elements);

}  // namespace atr

#endif  // ATR_CORE_MAX_COVERAGE_GADGET_H_
