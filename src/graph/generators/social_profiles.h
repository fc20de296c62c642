// Named synthetic stand-ins for the paper's eight SNAP datasets.
//
// Table III of the paper evaluates on College, Facebook, Brightkite,
// Gowalla, Youtube, Google, Patents, Pokec. Offline, we substitute each with
// a deterministic generator whose family matches the original's structural
// profile (documented per profile by the provenance strings
// SocialProfileSpecs() returns), scaled to laptop size. `scale` in (0, 1]
// shrinks vertex counts proportionally so the scalability experiments can
// sweep sizes.

#ifndef ATR_GRAPH_GENERATORS_SOCIAL_PROFILES_H_
#define ATR_GRAPH_GENERATORS_SOCIAL_PROFILES_H_

#include <string>
#include <vector>

#include "graph/graph.h"

namespace atr {

struct DatasetSpec {
  // Stand-in name, lower-case, mirroring the paper's dataset order.
  std::string name;
  // Which SNAP dataset this profile substitutes and why the family matches.
  std::string provenance;
};

// The eight dataset specs in the paper's Table III order.
std::vector<DatasetSpec> SocialProfileSpecs();

// Builds stand-in dataset `name` at the given scale. Aborts on unknown
// names (programming error: names come from SocialProfileSpecs()).
Graph MakeSocialProfile(const std::string& name, double scale, uint64_t seed);

}  // namespace atr

#endif  // ATR_GRAPH_GENERATORS_SOCIAL_PROFILES_H_
