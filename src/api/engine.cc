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
                     SharedTrussDecomposition decomposition)
    : shared_graph_(std::move(graph)),
      graph_(shared_graph_.get()),
      context_(*shared_graph_) {
  context_.PrimeDecomposition(std::move(decomposition));
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

}  // namespace atr
