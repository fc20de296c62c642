// AtrEngine — solver facade over one graph.
//
// An engine owns a Graph plus the lazily-computed, cached anchor-free
// truss decomposition and triangle index (a SolverContext), and runs any
// registered solver against that shared state:
//
//   AtrEngine engine(std::move(graph));
//   StatusOr<SolveResult> gas = engine.Run("gas", options);
//   StatusOr<SolveResult> akt = engine.Run("akt:5", options);  // reuses
//                                                 // the cached decomposition
//
// Budget sweeps (the paper's Fig. 5/6/8 experiments) run one solve at the
// largest budget and report every intermediate checkpoint:
//
//   StatusOr<SolveResult> sweep = engine.RunSweep("gas", {20, 40, 60});
//
// Every solve starts from the anchor-free decomposition of the whole
// graph; the engine never changes it.
//
// Engines are not thread-safe and are cheap to create (nothing is computed
// until a solver needs it). For many concurrent callers against a few
// shared graphs, use AtrService (api/service.h): it serves every job from
// one immutable snapshot per graph.

#ifndef ATR_API_ENGINE_H_
#define ATR_API_ENGINE_H_

#include <memory>
#include <string>
#include <vector>

#include "api/solver.h"
#include "graph/graph.h"
#include "util/status.h"

namespace atr {

class AtrEngine {
 public:
  // Owning: the engine holds the graph for its lifetime.
  explicit AtrEngine(Graph graph)
      : owned_graph_(std::move(graph)),
        graph_(&owned_graph_),
        context_(owned_graph_) {}

  // Borrowing: `graph` must outlive the engine (benchmark DatasetInstances
  // already own one). `decomposition` primes the cache with a precomputed
  // anchor-free decomposition, so the engine never recomputes it.
  AtrEngine(const Graph& graph, TrussDecomposition decomposition);

  // Snapshot: the engine keeps a service snapshot's graph alive and primes
  // its cache with the shared immutable decomposition; nothing is copied.
  AtrEngine(std::shared_ptr<const Graph> graph,
            SharedTrussDecomposition decomposition);

  // Engines hold a self-referencing context; copying/moving is disabled.
  AtrEngine(const AtrEngine&) = delete;
  AtrEngine& operator=(const AtrEngine&) = delete;

  const Graph& graph() const { return *graph_; }

  // Creates solver `name` via SolverRegistry and solves against the shared
  // context. Errors (unknown name, invalid options) flow back as Status.
  StatusOr<SolveResult> Run(const std::string& solver,
                            const SolverOptions& options);

  // One solve at checkpoints.back() reporting the gain at every
  // checkpoint (SolveResult::gain_at_checkpoint). `options.budget` and
  // `options.budget_checkpoints` are overwritten from `checkpoints`.
  StatusOr<SolveResult> RunSweep(const std::string& solver,
                                 const std::vector<uint32_t>& checkpoints,
                                 SolverOptions options = {});

  // Cached shared state (computed on first use).
  const TrussDecomposition& Decomposition() { return context_.Decomposition(); }
  uint32_t MaxTrussness() { return context_.MaxTrussness(); }

  // Cache instrumentation, forwarded from the context.
  uint32_t decomposition_builds() const {
    return context_.decomposition_builds();
  }
  uint32_t decomposition_reuses() const {
    return context_.decomposition_reuses();
  }
  // 1 once this engine's first BASE+ or GAS run built the triangle index;
  // 0 before that.
  uint32_t triangle_index_builds() const {
    return context_.triangle_index_builds();
  }

 private:
  Graph owned_graph_;    // empty in borrowing / snapshot mode
  std::shared_ptr<const Graph> shared_graph_;  // snapshot keep-alive
  const Graph* graph_;   // &owned_graph_, the borrowed graph, or the snapshot
  SolverContext context_;
};

}  // namespace atr

#endif  // ATR_API_ENGINE_H_
