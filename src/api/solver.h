// Unified solver API for the ATR problem family.
//
// Every selection algorithm in the repository — the greedy family (BASE,
// BASE+, GAS), the exhaustive Exact solver, the randomized baselines
// (Rand/Sup/Tur), and the AKT vertex-anchoring baseline — is exposed as an
// atr::Solver behind one options struct and one result struct, so benches,
// examples, and services call every algorithm the same way:
//
//   StatusOr<std::unique_ptr<Solver>> solver = SolverRegistry::Create("gas");
//   SolverOptions options;
//   options.budget = 100;
//   StatusOr<SolveResult> result = (*solver)->Solve(graph, options);
//
// Solvers validate their inputs and report recoverable failures through
// atr::Status; they never abort on bad options. Long-running solves can be
// observed and cancelled through SolverOptions::progress / ::cancel, and
// bounded with ::wall_clock_limit_seconds.
//
// SolverContext carries the lazily-computed, cached anchor-free truss
// decomposition of a graph and its full-graph triangle index. AtrEngine
// (api/engine.h) keeps one context alive across Run() calls so
// cross-solver comparisons and budget sweeps (the paper's Fig. 5/6/8,
// Table III/V experiments) share that state instead of recomputing it per
// call.

#ifndef ATR_API_SOLVER_H_
#define ATR_API_SOLVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/atr_problem.h"
#include "graph/graph.h"
#include "graph/triangle_index.h"
#include "truss/decomposition.h"
#include "util/status.h"

namespace atr {

// Progress event delivered to SolverOptions::progress after each completed
// round of a round-based solver (greedy family, AKT). Exact emits one
// event per finished checkpoint; the randomized baselines emit a single
// completion event (their trials run as one parallel batch, though the
// cancel flag and wall-clock limit are still checked between trials).
struct SolveProgress {
  std::string solver;          // registry name of the running solver
  uint32_t round = 0;          // 1-based round / checkpoint just completed
  uint32_t budget = 0;         // effective budget of the run
  uint64_t total_gain = 0;     // cumulative trussness gain so far
  double elapsed_seconds = 0.0;
};

// Options shared by every solver. Fields a solver does not use are
// ignored (e.g. `trials` outside the randomized baselines); fields it does
// use are validated and rejected with InvalidArgument when out of range.
struct SolverOptions {
  // Number of anchors to select. Must satisfy 1 <= budget <= |E| (AKT:
  // <= |V|).
  uint32_t budget = 1;
  // Optional ascending budgets at which the gain is additionally reported
  // in SolveResult::gain_at_checkpoint. When empty, {budget} is used. When
  // provided, checkpoints must be strictly ascending, start at >= 1, and
  // end exactly at `budget`.
  std::vector<uint32_t> budget_checkpoints;
  // Randomized baselines: deterministic stream seed and number of
  // independent draws (best draw is reported, as in the paper's Exp-1).
  uint64_t seed = 1;
  uint32_t trials = 100;
  // When positive, round-based solvers stop before the next round once the
  // elapsed wall clock exceeds this; the result is a valid greedy prefix
  // with stopped_early set.
  double wall_clock_limit_seconds = 0.0;
  // Worker threads for the parallel inner loops, including the truss
  // decomposition itself (the round-synchronous parallel peel is
  // byte-identical to the serial result at every thread count, so results
  // never depend on this setting); 0 keeps the process-wide default
  // (ATR_THREADS env, else hardware concurrency).
  int threads = 0;
  // Called after every round/checkpoint; returning false cancels the run
  // (result is the prefix selected so far, stopped_early set).
  std::function<bool(const SolveProgress&)> progress;
  // When non-null, setting the flag to true cancels the run between
  // rounds/checkpoints.
  const std::atomic<bool>* cancel = nullptr;
};

// Unified result. Exactly one of anchor_edges / anchor_vertices is
// populated (AKT anchors vertices; everything else anchors edges).
struct SolveResult {
  std::string solver;  // registry name of the solver that produced this

  std::vector<EdgeId> anchor_edges;       // in selection order
  std::vector<VertexId> anchor_vertices;  // AKT only, in selection order
  // One record per selected anchor for the edge-greedy solvers
  // (base/base+/gas): marginal gain, cumulative timing, GAS reuse
  // classification, follower trussness. AnchorRound is edge-typed, so AKT
  // leaves this empty and reports its per-round cumulative gains through
  // gain_at_checkpoint instead.
  std::vector<AnchorRound> rounds;
  uint64_t total_gain = 0;  // TG(A, G) of the full selection

  // Gain at each effective checkpoint (options.budget_checkpoints, or
  // {budget}): greedy/AKT report prefix gains of the one run, randomized
  // baselines the best draw per prefix, Exact one exhaustive run per
  // checkpoint.
  std::vector<uint64_t> gain_at_checkpoint;

  double seconds = 0.0;       // wall-clock time of the whole solve
  bool stopped_early = false; // cancelled / wall-clock limit hit

  // Solver-specific extras (zero elsewhere):
  uint64_t subsets_evaluated = 0;  // Exact: anchor sets scored
  uint32_t trials = 0;             // randomized: draws performed
  // GAS: reuse classification totals over all rounds (Exp-8).
  uint64_t fully_reusable = 0;
  uint64_t partially_reusable = 0;
  uint64_t non_reusable = 0;
};

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

  // Full-graph triangle index of the graph, read by BASE+ and GAS; built
  // through the context's holder on first call. Without a primed holder
  // the context makes its own.
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

// The checkpoint list a solve reports on: options.budget_checkpoints, or
// {options.budget} when none were requested.
std::vector<uint32_t> EffectiveCheckpoints(const SolverOptions& options);

// Gains of the greedy prefixes at each checkpoint: a budget-b greedy walk
// reports every intermediate budget for free (the paper's Fig. 6 sweeps).
// Solo greedy solves and the service's result memo both report through
// it, so a memo hit's gains match its solo run.
std::vector<uint64_t> PrefixGains(const std::vector<AnchorRound>& rounds,
                                  const std::vector<uint32_t>& checkpoints);

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
