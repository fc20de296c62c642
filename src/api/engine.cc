#include "api/engine.h"

#include <memory>
#include <utility>

#include "api/registry.h"

namespace atr {

AtrEngine::AtrEngine(const Graph& graph, TrussDecomposition decomposition)
    : graph_(&graph), context_(graph) {
  context_.PrimeDecomposition(std::move(decomposition));
}

AtrEngine::AtrEngine(std::shared_ptr<const Graph> graph,
                     SharedTrussDecomposition decomposition,
                     std::shared_ptr<LazyTriangleIndex> triangles)
    : shared_graph_(std::move(graph)),
      graph_(shared_graph_.get()),
      context_(*shared_graph_) {
  context_.PrimeDecomposition(std::move(decomposition));
  if (triangles != nullptr) context_.PrimeTriangles(std::move(triangles));
}

StatusOr<SolveResult> AtrEngine::Run(const std::string& solver,
                                     const SolverOptions& options) {
  StatusOr<std::unique_ptr<Solver>> instance = SolverRegistry::Create(solver);
  if (!instance.ok()) return instance.status();
  return (*instance)->Solve(context_, options);
}

StatusOr<SolveResult> AtrEngine::RunSweep(
    const std::string& solver, const std::vector<uint32_t>& checkpoints,
    SolverOptions options) {
  if (checkpoints.empty()) {
    return Status::InvalidArgument("RunSweep: checkpoints must be non-empty");
  }
  options.budget = checkpoints.back();
  options.budget_checkpoints = checkpoints;
  return Run(solver, options);
}

IncrementalTruss& AtrEngine::EnsureSession() {
  if (session_ == nullptr) {
    // Seed from the cached decomposition (a build if this is the first
    // consumer, a reuse otherwise); from here on the session keeps that
    // state current in place.
    session_ = std::make_unique<IncrementalTruss>(*graph_,
                                                  context_.Decomposition());
    context_.BindSession(&session_->decomposition(), &session_->anchored());
  }
  return *session_;
}

StatusOr<uint32_t> AtrEngine::ApplyAnchor(EdgeId e) {
  if (e >= graph_->NumEdges()) {
    return Status::InvalidArgument("ApplyAnchor: edge id out of range");
  }
  IncrementalTruss& session = EnsureSession();
  if (!session.IsAlive(e)) {
    return Status::InvalidArgument("ApplyAnchor: edge was removed");
  }
  if (session.IsAnchored(e)) {
    return Status::InvalidArgument("ApplyAnchor: edge is already anchored");
  }
  return session.ApplyAnchor(e);
}

StatusOr<uint64_t> AtrEngine::RemoveEdge(EdgeId e) {
  if (e >= graph_->NumEdges()) {
    return Status::InvalidArgument("RemoveEdge: edge id out of range");
  }
  IncrementalTruss& session = EnsureSession();
  if (!session.IsAlive(e)) {
    return Status::InvalidArgument("RemoveEdge: edge was already removed");
  }
  if (session.IsAnchored(e)) {
    return Status::InvalidArgument(
        "RemoveEdge: anchored edges cannot be removed");
  }
  return session.RemoveEdge(e);
}

StatusOr<uint32_t> AtrEngine::InsertEdge(VertexId u, VertexId v) {
  // A pristine engine rejects failed probes without creating a session:
  // the documented fall-back-to-ApplyEdits flow must not pay the
  // session's decomposition copy or mark the engine as mutated for later
  // solvers. Without a session the edge is alive unless a primed
  // decomposition seeds it dead (the pre-declared-arrival flow) — and a
  // never-built cache cannot seed anything dead, so the probe never
  // triggers the lazy build either.
  if (session_ == nullptr) {
    const EdgeId e = graph_->FindEdge(u, v);
    if (e == kInvalidEdge) {
      return Status::NotFound(
          "InsertEdge: the topology has no {" + std::to_string(u) + ", " +
          std::to_string(v) +
          "} slot; materialize a new snapshot with Graph::ApplyEdits");
    }
    if (!context_.HasCachedDecomposition() ||
        context_.Decomposition().IsComputed(e)) {
      return Status::FailedPrecondition(
          "InsertEdge: edge {" + std::to_string(u) + ", " +
          std::to_string(v) + "} is already alive");
    }
  }
  StatusOr<EdgeId> inserted = EnsureSession().InsertEdge(u, v);
  if (!inserted.ok()) return inserted.status();
  return session_->decomposition().trussness[*inserted];
}

AtrEngine::SessionCheckpoint AtrEngine::MarkRollbackPoint() const {
  return session_ == nullptr ? SessionCheckpoint{}
                             : session_->MarkRollbackPoint();
}

Status AtrEngine::RollbackTo(SessionCheckpoint checkpoint) {
  if (session_ == nullptr) {
    if (checkpoint.position != 0) {
      return Status::InvalidArgument("RollbackTo: unknown checkpoint");
    }
    return Status::Ok();
  }
  if (!session_->IsValidCheckpoint(checkpoint)) {
    // Out of range, or invalidated by a deeper rollback after which the
    // log regrew — restoring it would land mid-mutation.
    return Status::InvalidArgument(
        "RollbackTo: stale or unknown session checkpoint");
  }
  session_->RollbackTo(checkpoint);
  return Status::Ok();
}

}  // namespace atr
