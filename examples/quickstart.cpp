// Quickstart: build a small social graph, wrap it in an AtrEngine, and
// anchor the b most valuable edges with GAS through the unified solver
// API — with a progress callback streaming per-round updates.
//
//   ./examples/quickstart [budget]

#include <cstdio>
#include <cstdlib>

#include "api/engine.h"
#include "api/registry.h"
#include "graph/generators/generators.h"

int main(int argc, char** argv) {
  const uint32_t budget = argc > 1 ? std::atoi(argv[1]) : 5;

  // A clustered social network: 2000 users, power-law friendships with
  // strong triadic closure.
  atr::Graph g = atr::HolmeKimGraph(2000, 6, 0.8, /*seed=*/7);
  std::printf("graph: %u vertices, %u edges\n", g.NumVertices(), g.NumEdges());

  // The engine owns the graph and caches its truss decomposition; every
  // registered solver ("base", "base+", "gas", "exact", "rand", "sup",
  // "tur", "akt:<k>") runs against that shared state.
  atr::AtrEngine engine(std::move(g));
  std::printf("max trussness: %u\n", engine.MaxTrussness());

  atr::SolverOptions options;
  options.budget = budget;
  options.progress = [](const atr::SolveProgress& progress) {
    std::fprintf(stderr, "  [%s] round %u/%u  total gain %llu  (%.3fs)\n",
                 progress.solver.c_str(), progress.round, progress.budget,
                 static_cast<unsigned long long>(progress.total_gain),
                 progress.elapsed_seconds);
    return true;  // returning false would cancel the run
  };

  const atr::StatusOr<atr::SolveResult> result = engine.Run("gas", options);
  if (!result.ok()) {
    std::fprintf(stderr, "error: %s\n", result.status().message().c_str());
    return 1;
  }

  std::printf("\nGAS selected %zu anchor edges (total trussness gain %llu):\n",
              result->anchor_edges.size(),
              static_cast<unsigned long long>(result->total_gain));
  for (size_t i = 0; i < result->rounds.size(); ++i) {
    const atr::AnchorRound& round = result->rounds[i];
    const atr::EdgeEndpoints ends = engine.graph().Edge(round.anchor);
    std::printf("  round %zu: anchor (%u, %u)  gain +%u  [%.3fs]\n", i + 1,
                ends.u, ends.v, round.gain, round.cumulative_seconds);
  }
  return 0;
}
