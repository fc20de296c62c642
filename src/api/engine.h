// AtrEngine — session facade over one graph.
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
// Mutable session mode: anchors can be committed (and edges removed)
// directly on the engine. The cached decomposition is NOT invalidated —
// it is updated in place by the incremental maintenance engine
// (truss/incremental.h), and later greedy solver runs start from the
// committed state:
//
//   StatusOr<uint32_t> gain = engine.ApplyAnchor(e);   // trussness gain
//   AtrEngine::SessionCheckpoint cp = engine.MarkRollbackPoint();
//   engine.ApplyAnchor(f);                              // speculate...
//   engine.RollbackTo(cp);                              // ...and undo
//   StatusOr<SolveResult> more = engine.Run("gas", options);  // residual
//
// Engines are single-session objects: not thread-safe, cheap to create
// (nothing is computed until a solver needs it). For many concurrent
// callers against a few shared graphs, use AtrService (api/service.h): it
// serves every job from one immutable snapshot per graph and hands out
// engines like this one as copy-on-write session checkouts.

#ifndef ATR_API_ENGINE_H_
#define ATR_API_ENGINE_H_

#include <memory>
#include <string>
#include <vector>

#include "api/solver.h"
#include "graph/graph.h"
#include "truss/incremental.h"
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

  // Snapshot checkout (AtrService::CheckoutSession): the engine keeps the
  // shared graph alive and primes its cache with the shared immutable
  // decomposition — nothing is copied until the first mutable-session
  // commit, which copy-on-writes the decomposition into the session's
  // incremental engine. Readers of the originating snapshot are never
  // blocked or affected. `triangles`, when non-null, is the snapshot's
  // triangle index holder, shared with the service's jobs; otherwise the
  // engine keeps its own.
  AtrEngine(std::shared_ptr<const Graph> graph,
            SharedTrussDecomposition decomposition,
            std::shared_ptr<LazyTriangleIndex> triangles = nullptr);

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

  // Cached shared state (computed on first use). In mutable session mode
  // this reflects every committed mutation without ever being rebuilt.
  const TrussDecomposition& Decomposition() { return context_.Decomposition(); }
  uint32_t MaxTrussness() { return context_.MaxTrussness(); }

  // --- Mutable session mode ---------------------------------------------
  // Commits `e` as an anchor of the session graph; the cached decomposition
  // is updated incrementally. Returns the trussness gain of the commit.
  // Errors (out of range, removed, already anchored) flow back as Status.
  StatusOr<uint32_t> ApplyAnchor(EdgeId e);

  // Removes edge `e` from the session graph (its trussness reads
  // kTrussnessNotComputed afterwards). Returns the total trussness lost by
  // the other edges.
  StatusOr<uint64_t> RemoveEdge(EdgeId e);

  // Streaming arrival: (re-)inserts edge {u, v} into the session graph.
  // The topology must have a slot for it (kNotFound otherwise — only
  // edges removed earlier in the session, or pre-declared dead by a
  // primed subset decomposition, can arrive; new topology needs a new
  // snapshot via Graph::ApplyEdits / AtrService::UpdateGraph). A failed
  // probe leaves the engine pristine (HasSessionMutations() stays false).
  // Returns the trussness the inserted edge settles at.
  StatusOr<uint32_t> InsertEdge(VertexId u, VertexId v);

  // Undo-log cursor over the session mutations. MarkRollbackPoint() before
  // any mutation returns the pristine checkpoint (0); RollbackTo() restores
  // the session state byte-identically.
  using SessionCheckpoint = IncrementalTruss::Checkpoint;
  SessionCheckpoint MarkRollbackPoint() const;
  Status RollbackTo(SessionCheckpoint checkpoint);

  // Whether any session mutation was ever committed (a rolled-back session
  // still counts: non-greedy solvers reject it conservatively).
  bool HasSessionMutations() const { return session_ != nullptr; }

  // The incremental engine backing the session (stats, anchor mask, alive
  // set); nullptr before the first mutation.
  const IncrementalTruss* session() const { return session_.get(); }

  // Cache instrumentation, forwarded from the context.
  uint32_t decomposition_builds() const {
    return context_.decomposition_builds();
  }
  uint32_t decomposition_reuses() const {
    return context_.decomposition_reuses();
  }
  // 1 once this engine's first BASE+ or GAS run built the triangle index;
  // 0 before that, and for a checkout whose holder was built elsewhere.
  uint32_t triangle_index_builds() const {
    return context_.triangle_index_builds();
  }

 private:
  // Creates the session engine from the cached decomposition and binds it
  // to the context (idempotent).
  IncrementalTruss& EnsureSession();

  Graph owned_graph_;    // empty in borrowing / snapshot mode
  std::shared_ptr<const Graph> shared_graph_;  // snapshot-checkout keep-alive
  const Graph* graph_;   // &owned_graph_, the borrowed graph, or the snapshot
  SolverContext context_;
  std::unique_ptr<IncrementalTruss> session_;
};

}  // namespace atr

#endif  // ATR_API_ENGINE_H_
