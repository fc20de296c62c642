// The fixed name table of the solvers (api/solver.h); api/solvers.cc
// holds it.
//
// Names:
//   "base"    — greedy with brute-force gain computation (Algorithm 2)
//   "base+"   — greedy with upward-route follower search (paper §IV)
//   "gas"     — greedy with follower search + read-set reuse (Alg. 6)
//   "exact"   — exhaustive b-subset enumeration (Exp-2)
//   "rand"    — best of N uniform draws over all edges
//   "sup"     — best of N draws over the top-20% edges by support
//   "tur"     — best of N draws over the top-20% edges by route size
//   "akt:<k>" — AKT vertex anchoring at level k (Zhang et al., ICDE 2018),
//               e.g. "akt:5"; k must be an integer >= 3
//
// base, base+ and gas select identical anchors. base recomputes the
// decomposition after every commit and is the reference the other two are
// checked against; base+ and gas commit each round's anchor through the
// incremental engine (truss/incremental.h).
//
// Names are case-sensitive. The table is immutable, so both entry points
// may be called concurrently from any thread.

#ifndef ATR_API_REGISTRY_H_
#define ATR_API_REGISTRY_H_

#include <memory>
#include <string>
#include <vector>

#include "api/solver.h"
#include "util/status.h"

namespace atr {

class SolverRegistry {
 public:
  // Creates the solver named `name`. Unknown names return NotFound listing
  // the known solvers; malformed parameterized names (e.g. "akt:x") return
  // InvalidArgument.
  static StatusOr<std::unique_ptr<Solver>> Create(const std::string& name);

  // The known names, sorted; the AKT family is listed as "akt:<k>".
  static std::vector<std::string> KnownSolvers();
};

}  // namespace atr

#endif  // ATR_API_REGISTRY_H_
