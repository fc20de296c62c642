#include "api/solver.h"

#include <string>

namespace atr {

const TrussDecomposition& SolverContext::Decomposition() {
  if (decomposition_ == nullptr) {
    decomposition_ = ComputeSharedTrussDecomposition(*graph_);
    ++decomposition_builds_;
  } else {
    ++decomposition_reuses_;
  }
  return *decomposition_;
}

uint32_t SolverContext::MaxTrussness() { return Decomposition().max_trussness; }

const TriangleIndex& SolverContext::Triangles() {
  if (triangles_ == nullptr) triangles_ = std::make_shared<LazyTriangleIndex>();
  bool built = false;
  const TriangleIndex& index = triangles_->Get(*graph_, &built);
  if (built) ++triangle_index_builds_;
  return index;
}

void SolverContext::PrimeTriangles(
    std::shared_ptr<LazyTriangleIndex> triangles) {
  ATR_CHECK(triangles != nullptr);
  triangles_ = std::move(triangles);
}

void SolverContext::PrimeDecomposition(TrussDecomposition decomposition) {
  decomposition_ =
      std::make_shared<const TrussDecomposition>(std::move(decomposition));
}

void SolverContext::PrimeDecomposition(SharedTrussDecomposition decomposition) {
  ATR_CHECK(decomposition != nullptr);
  decomposition_ = std::move(decomposition);
}

namespace {

Status ValidateOptionsWithBudgetLimit(const Graph& g,
                                      const SolverOptions& options,
                                      uint32_t budget_limit,
                                      const char* limit_name);

}  // namespace

Status ValidateSolverOptions(const Graph& g, const SolverOptions& options) {
  return ValidateOptionsWithBudgetLimit(g, options, g.NumEdges(), "|E|");
}

Status ValidateVertexSolverOptions(const Graph& g,
                                   const SolverOptions& options) {
  return ValidateOptionsWithBudgetLimit(g, options, g.NumVertices(), "|V|");
}

namespace {

Status ValidateOptionsWithBudgetLimit(const Graph& g,
                                      const SolverOptions& options,
                                      uint32_t budget_limit,
                                      const char* limit_name) {
  if (g.NumEdges() == 0) {
    return Status::InvalidArgument("solver options: graph has no edges");
  }
  if (options.budget < 1 || options.budget > budget_limit) {
    return Status::InvalidArgument(
        "solver options: budget must satisfy 1 <= budget <= " +
        std::string(limit_name) + " (budget = " +
        std::to_string(options.budget) + ", " + limit_name + " = " +
        std::to_string(budget_limit) + ")");
  }
  const std::vector<uint32_t>& cps = options.budget_checkpoints;
  if (!cps.empty()) {
    for (size_t i = 1; i < cps.size(); ++i) {
      if (cps[i] <= cps[i - 1]) {
        return Status::InvalidArgument(
            "solver options: budget_checkpoints must be strictly ascending");
      }
    }
    if (cps.front() < 1) {
      return Status::InvalidArgument(
          "solver options: budget_checkpoints must start at >= 1");
    }
    if (cps.back() != options.budget) {
      return Status::InvalidArgument(
          "solver options: the last checkpoint (" +
          std::to_string(cps.back()) + ") must equal budget (" +
          std::to_string(options.budget) + ")");
    }
  }
  if (options.threads < 0) {
    return Status::InvalidArgument("solver options: threads must be >= 0");
  }
  if (options.wall_clock_limit_seconds < 0.0) {
    return Status::InvalidArgument(
        "solver options: wall_clock_limit_seconds must be >= 0");
  }
  return Status::Ok();
}

}  // namespace

StatusOr<SolveResult> Solver::Solve(const Graph& g,
                                    const SolverOptions& options) const {
  SolverContext context(g);
  return Solve(context, options);
}

}  // namespace atr
