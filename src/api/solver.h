// The solver interface for the ATR problem family.
//
// Every selection algorithm in the repository — the greedy family (BASE,
// BASE+, GAS), the exhaustive Exact solver, the randomized baselines
// (Rand/Sup/Tur), and the AKT vertex-anchoring baseline — is an
// atr::Solver that takes one options struct and returns one result struct
// (SolverOptions, SolveResult: core/atr_problem.h), so benches, examples,
// and services call every algorithm the same way:
//
//   StatusOr<std::unique_ptr<Solver>> solver = SolverRegistry::Create("gas");
//   SolverOptions options;
//   options.budget = 100;
//   StatusOr<SolveResult> result = (*solver)->Solve(graph, options);
//
// A Solver validates its options, installs SolverOptions::threads and
// fetches its inputs from the SolverContext; the core entry it calls does
// the rest. Solvers report recoverable failures through atr::Status and
// never abort on bad options. Long-running solves can be observed and
// cancelled through SolverOptions::progress / ::cancel, and bounded with
// ::wall_clock_limit_seconds.
//
// SolverContext carries the lazily-computed, cached anchor-free truss
// decomposition of a graph and its full-graph triangle index. AtrEngine
// (api/engine.h) keeps one context alive across Run() calls so
// cross-solver comparisons and budget sweeps (the paper's Fig. 5/6/8,
// Table III/V experiments) share that state instead of recomputing it per
// call.

#ifndef ATR_API_SOLVER_H_
#define ATR_API_SOLVER_H_

#include <cstdint>
#include <memory>
#include <string>

#include "core/atr_problem.h"
#include "graph/graph.h"
#include "graph/triangle_index.h"
#include "truss/decomposition.h"
#include "util/status.h"

namespace atr {

// Shared per-graph state handed to solvers: the graph plus its
// lazily-computed, cached anchor-free truss decomposition and full-graph
// triangle index. The context never recomputes: the first accessor call
// builds, every later call reuses (instrumented via decomposition_builds /
// decomposition_reuses and triangle_index_builds, which the cache tests
// assert on).
//
// The cached decomposition is held through a SharedTrussDecomposition
// handle, so contexts can be forked cheaply from one immutable snapshot:
// the service layer (api/service.h) computes a graph's decomposition once
// and primes a fresh per-job context with the shared handle for every
// concurrent solve. The triangle index is shared the same way, through a
// LazyTriangleIndex holder that one version owns and its jobs' contexts
// adopt. A context itself is single-job state (the counters and lazy
// decomposition build are unsynchronized) — share the snapshot, not the
// context.
//
// The referenced Graph must outlive the context.
class SolverContext {
 public:
  explicit SolverContext(const Graph& g) : graph_(&g) {}

  const Graph& graph() const { return *graph_; }

  // Anchor-free decomposition of the graph; built on first call.
  const TrussDecomposition& Decomposition();
  // max_trussness of Decomposition() (builds it when needed).
  uint32_t MaxTrussness();

  // Seeds the cache with a precomputed anchor-free decomposition of the
  // graph; later Decomposition() calls count as reuses, not builds. The
  // shared overload adopts an existing immutable snapshot without copying
  // — the per-job fork path.
  void PrimeDecomposition(TrussDecomposition decomposition);
  void PrimeDecomposition(SharedTrussDecomposition decomposition);

  // Full-graph triangle index of the graph, read by every solver but BASE
  // and AKT; built through the context's holder on first call. Without a
  // primed holder the context makes its own.
  const TriangleIndex& Triangles();

  // Adopts a shared holder (the service's per-version one); whichever
  // context sharing it calls Triangles() first builds the index. Call
  // before the first Triangles().
  void PrimeTriangles(std::shared_ptr<LazyTriangleIndex> triangles);

  // Cache instrumentation: how many times the decomposition was computed
  // (at most 1) vs. served from cache, and how many times this context's
  // Triangles() built the index (at most 1; 0 when a context sharing its
  // holder built it).
  uint32_t decomposition_builds() const { return decomposition_builds_; }
  uint32_t decomposition_reuses() const { return decomposition_reuses_; }
  uint32_t triangle_index_builds() const { return triangle_index_builds_; }

 private:
  const Graph* graph_;
  SharedTrussDecomposition decomposition_;
  std::shared_ptr<LazyTriangleIndex> triangles_;
  uint32_t decomposition_builds_ = 0;
  uint32_t decomposition_reuses_ = 0;
  uint32_t triangle_index_builds_ = 0;
};

// Validates the fields of `options` every solver agrees on: budget within
// [1, |E|], checkpoints (when provided) strictly ascending within [1,
// budget] and ending at `budget`, threads >= 0. Solver-specific fields
// (trials) are validated by the solver itself.
Status ValidateSolverOptions(const Graph& g, const SolverOptions& options);

// Variant for vertex-anchoring solvers (AKT): the budget is bounded by |V|
// instead of |E|.
Status ValidateVertexSolverOptions(const Graph& g,
                                   const SolverOptions& options);

// The solver interface. Implementations are stateless and cheap to create;
// all per-run state lives in the SolverContext and on the stack.
class Solver {
 public:
  virtual ~Solver() = default;

  // Registry name of this solver ("gas", "akt:5", ...).
  virtual std::string Name() const = 0;

  // Solves against shared context state (preferred: AtrEngine keeps one
  // context per graph so the decomposition is computed once).
  virtual StatusOr<SolveResult> Solve(SolverContext& context,
                                      const SolverOptions& options) const = 0;

  // One-shot convenience: solves with a throwaway context.
  StatusOr<SolveResult> Solve(const Graph& g,
                              const SolverOptions& options) const;
};

}  // namespace atr

#endif  // ATR_API_SOLVER_H_
