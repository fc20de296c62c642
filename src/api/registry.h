// String-keyed factory for the unified solvers (api/solver.h).
//
// Built-in names:
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
// Additional solvers can be registered at runtime (Register /
// RegisterPrefix); names are case-sensitive and registration of a taken
// name replaces the previous factory.
//
// Thread-safety: all four entry points may be called concurrently from any
// thread. The registry state is mutex-protected and the builtin set is
// installed through std::call_once on first lookup, so concurrent
// first-touch Create calls each see the full builtin table
// (tests/api_test.cc, Registry.ConcurrentCreateAndRegisterAreSafe).
// Factories themselves run outside the lock and must be thread-safe if
// shared.

#ifndef ATR_API_REGISTRY_H_
#define ATR_API_REGISTRY_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "api/solver.h"
#include "util/status.h"

namespace atr {

class SolverRegistry {
 public:
  // Receives the full requested name (so prefix factories can parse their
  // parameter, e.g. the k of "akt:5").
  using Factory =
      std::function<StatusOr<std::unique_ptr<Solver>>(const std::string&)>;

  // Creates the solver registered under `name`. Exact-name matches win;
  // otherwise the longest matching registered prefix handles the name.
  // Unknown names return NotFound listing the known solvers; malformed
  // parameterized names (e.g. "akt:x") return InvalidArgument.
  static StatusOr<std::unique_ptr<Solver>> Create(const std::string& name);

  // The registered names, sorted; prefix entries are listed with a
  // "<k>"-style placeholder (e.g. "akt:<k>").
  static std::vector<std::string> KnownSolvers();

  // Registers `factory` under an exact name / a name prefix.
  static void Register(const std::string& name, Factory factory);
  static void RegisterPrefix(const std::string& prefix, Factory factory);
};

}  // namespace atr

#endif  // ATR_API_REGISTRY_H_
