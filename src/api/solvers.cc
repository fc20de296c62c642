// Built-in solver adapters: every legacy entry point (RunBaseGreedy,
// RunBasePlus, RunGas, RunExact, RunRandomBaseline, RunAkt) wrapped behind
// the unified Solver interface and registered with SolverRegistry.

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "api/registry.h"
#include "api/solver.h"
#include "core/akt.h"
#include "core/base_greedy.h"
#include "core/base_plus.h"
#include "core/exact.h"
#include "core/gas.h"
#include "core/random_baselines.h"
#include "util/parallel_for.h"
#include "util/timer.h"

namespace atr {
namespace {

bool CancelRequested(const SolverOptions& options) {
  return options.cancel != nullptr &&
         options.cancel->load(std::memory_order_relaxed);
}

// Wires SolverOptions into the core GreedyControl: cancel flag and
// wall-clock limit pass through; the progress callback (when set) is
// adapted from GreedyProgress to SolveProgress under `name`. The returned
// control captures `options` by reference — it must not outlive the Solve
// call.
GreedyControl MakeRoundControl(std::string name,
                               const SolverOptions& options) {
  GreedyControl control;
  control.cancel = options.cancel;
  control.wall_clock_limit_seconds = options.wall_clock_limit_seconds;
  if (options.progress) {
    control.on_round = [name = std::move(name),
                        &options](const GreedyProgress& progress) {
      SolveProgress event;
      event.solver = name;
      event.round = progress.round;
      event.budget = progress.budget;
      event.total_gain = progress.total_gain;
      event.elapsed_seconds = progress.elapsed_seconds;
      return options.progress(event);
    };
  }
  return control;
}

// BASE / BASE+ / GAS behind one adapter: identical contract, different
// gain-computation engine (they must produce identical anchor sequences —
// the api tests re-assert this through the registry).
class GreedySolver : public Solver {
 public:
  enum class Kind { kBase, kBasePlus, kGas };

  GreedySolver(std::string name, Kind kind)
      : name_(std::move(name)), kind_(kind) {}

  std::string Name() const override { return name_; }

  StatusOr<SolveResult> Solve(SolverContext& context,
                              const SolverOptions& options) const override {
    const Graph& g = context.graph();
    Status status = ValidateSolverOptions(g, options);
    if (!status.ok()) return status;

    ScopedParallelism parallelism(options.threads);
    GreedyControl control = MakeRoundControl(name_, options);

    // Round 1 of every greedy equals the cached anchor-free decomposition.
    const TrussDecomposition& seed = context.Decomposition();
    // BASE+ and GAS walk the context's triangle index, which like the
    // decomposition is built once and then reused, so it is fetched before
    // the timer too. BASE walks none.
    const TriangleIndex* triangles =
        kind_ == Kind::kBase ? nullptr : &context.Triangles();
    WallTimer timer;
    AnchorResult run;
    switch (kind_) {
      case Kind::kBase:
        run = RunBaseGreedy(g, options.budget, &control, &seed);
        break;
      case Kind::kBasePlus:
        run = RunBasePlus(g, *triangles, options.budget, &control, &seed);
        break;
      case Kind::kGas:
        run = RunGas(g, *triangles, options.budget, &control, &seed);
        break;
    }

    SolveResult result;
    result.solver = name_;
    result.anchor_edges = std::move(run.anchors);
    result.rounds = std::move(run.rounds);
    result.total_gain = run.total_gain;
    result.stopped_early = run.stopped_early;
    result.seconds = timer.ElapsedSeconds();
    for (const AnchorRound& round : result.rounds) {
      result.fully_reusable += round.fully_reusable;
      result.partially_reusable += round.partially_reusable;
      result.non_reusable += round.non_reusable;
    }
    result.gain_at_checkpoint =
        PrefixGains(result.rounds, EffectiveCheckpoints(options));
    return result;
  }

 private:
  std::string name_;
  Kind kind_;
};

// Exact enumeration. Checkpoints are independent exhaustive runs (a
// b-subset optimum is not a prefix of a (b+1)-subset optimum), which is
// exactly the Fig. 5 usage: RunSweep("exact", {1, 2, 3}). Cancellation and
// the wall-clock limit are checked between checkpoints only — a checkpoint
// in flight always completes.
class ExactSolver : public Solver {
 public:
  std::string Name() const override { return "exact"; }

  StatusOr<SolveResult> Solve(SolverContext& context,
                              const SolverOptions& options) const override {
    const Graph& g = context.graph();
    Status status = ValidateSolverOptions(g, options);
    if (!status.ok()) return status;

    ScopedParallelism parallelism(options.threads);
    // Fetch the shared decomposition before the timer so `seconds` means
    // the same thing for every adapter: solve time on warm shared state.
    const TrussDecomposition& base = context.Decomposition();
    WallTimer timer;
    SolveResult result;
    result.solver = Name();
    const std::vector<uint32_t> checkpoints = EffectiveCheckpoints(options);
    for (size_t c = 0; c < checkpoints.size(); ++c) {
      if (CancelRequested(options) ||
          (options.wall_clock_limit_seconds > 0.0 && c > 0 &&
           timer.ElapsedSeconds() >= options.wall_clock_limit_seconds)) {
        result.stopped_early = true;
        break;
      }
      const ExactResult exact = RunExact(g, checkpoints[c], &base);
      result.gain_at_checkpoint.push_back(exact.gain);
      result.subsets_evaluated += exact.subsets_evaluated;
      result.anchor_edges = exact.anchors;
      result.total_gain = exact.gain;
      if (options.progress) {
        SolveProgress event;
        event.solver = Name();
        event.round = static_cast<uint32_t>(c + 1);
        event.budget = options.budget;
        event.total_gain = exact.gain;
        event.elapsed_seconds = timer.ElapsedSeconds();
        if (!options.progress(event)) {
          result.stopped_early = true;
          break;
        }
      }
    }
    result.seconds = timer.ElapsedSeconds();
    return result;
  }
};

// Rand / Sup / Tur randomized baselines (best of `trials` draws).
class RandomSolver : public Solver {
 public:
  RandomSolver(std::string name, RandomPoolKind kind)
      : name_(std::move(name)), kind_(kind) {}

  std::string Name() const override { return name_; }

  StatusOr<SolveResult> Solve(SolverContext& context,
                              const SolverOptions& options) const override {
    const Graph& g = context.graph();
    Status status = ValidateSolverOptions(g, options);
    if (!status.ok()) return status;

    ScopedParallelism parallelism(options.threads);
    // Trials are not rounds: only the cancel flag and wall-clock limit
    // apply (checked between trials on every worker).
    GreedyControl control;
    control.cancel = options.cancel;
    control.wall_clock_limit_seconds = options.wall_clock_limit_seconds;
    const TrussDecomposition& base = context.Decomposition();
    WallTimer timer;
    StatusOr<RandomBaselineResult> run = RunRandomBaseline(
        g, base, kind_, EffectiveCheckpoints(options), options.trials,
        options.seed, &control);
    if (!run.ok()) return run.status();

    SolveResult result;
    result.solver = name_;
    result.anchor_edges = std::move(run->best_anchors);
    result.total_gain = run->best_gain;
    result.gain_at_checkpoint = std::move(run->gain_at_checkpoint);
    result.trials = run->trials;
    result.stopped_early = run->stopped_early;
    result.seconds = timer.ElapsedSeconds();
    if (options.progress) {
      SolveProgress event;
      event.solver = name_;
      event.round = static_cast<uint32_t>(result.gain_at_checkpoint.size());
      event.budget = options.budget;
      event.total_gain = result.total_gain;
      event.elapsed_seconds = result.seconds;
      options.progress(event);  // run already finished; result unaffected
    }
    return result;
  }

 private:
  std::string name_;
  RandomPoolKind kind_;
};

// AKT vertex anchoring at a fixed level k ("akt:<k>").
class AktSolver : public Solver {
 public:
  explicit AktSolver(uint32_t k) : k_(k) {}

  std::string Name() const override { return "akt:" + std::to_string(k_); }

  StatusOr<SolveResult> Solve(SolverContext& context,
                              const SolverOptions& options) const override {
    const Graph& g = context.graph();
    Status status = ValidateVertexSolverOptions(g, options);
    if (!status.ok()) return status;

    ScopedParallelism parallelism(options.threads);
    const GreedyControl control = MakeRoundControl(Name(), options);

    const TrussDecomposition& base = context.Decomposition();
    WallTimer timer;
    SolveResult result;
    result.solver = Name();
    const AktResult run = RunAkt(g, base, k_, options.budget, &control);
    result.anchor_vertices = run.anchors;
    result.total_gain = run.total_gain;
    result.stopped_early = run.stopped_early;
    for (uint32_t c : EffectiveCheckpoints(options)) {
      const uint64_t gain =
          run.gain_after.empty()
              ? 0
              : run.gain_after[std::min<size_t>(c, run.gain_after.size()) - 1];
      result.gain_at_checkpoint.push_back(gain);
    }
    result.seconds = timer.ElapsedSeconds();
    return result;
  }

 private:
  uint32_t k_;
};

StatusOr<std::unique_ptr<Solver>> MakeAktSolver(const std::string& name) {
  // name is "akt:<k>"; the prefix match guarantees the "akt:" head.
  const std::string param = name.substr(4);
  if (param.empty() ||
      param.find_first_not_of("0123456789") != std::string::npos) {
    return Status::InvalidArgument(
        "akt solver: expected \"akt:<k>\" with integer k >= 3, got \"" +
        name + "\"");
  }
  uint64_t k = 0;
  for (char ch : param) {
    k = k * 10 + static_cast<uint64_t>(ch - '0');
    if (k > 0xffffffffu) {
      return Status::InvalidArgument("akt solver: k out of range in \"" +
                                     name + "\"");
    }
  }
  if (k < 3) {
    return Status::InvalidArgument(
        "akt solver: k must satisfy 3 <= k (got \"" + name + "\")");
  }
  return std::unique_ptr<Solver>(
      std::make_unique<AktSolver>(static_cast<uint32_t>(k)));
}

}  // namespace

void EnsureBuiltinSolversRegistered() {
  static std::once_flag once;
  std::call_once(once, [] {
    auto greedy = [](const char* name, GreedySolver::Kind kind) {
      SolverRegistry::Register(
          name, [name, kind](const std::string&)
                    -> StatusOr<std::unique_ptr<Solver>> {
            return std::unique_ptr<Solver>(
                std::make_unique<GreedySolver>(name, kind));
          });
    };
    greedy("base", GreedySolver::Kind::kBase);
    greedy("base+", GreedySolver::Kind::kBasePlus);
    greedy("gas", GreedySolver::Kind::kGas);

    SolverRegistry::Register(
        "exact",
        [](const std::string&) -> StatusOr<std::unique_ptr<Solver>> {
          return std::unique_ptr<Solver>(std::make_unique<ExactSolver>());
        });

    auto random = [](const char* name, RandomPoolKind kind) {
      SolverRegistry::Register(
          name, [name, kind](const std::string&)
                    -> StatusOr<std::unique_ptr<Solver>> {
            return std::unique_ptr<Solver>(
                std::make_unique<RandomSolver>(name, kind));
          });
    };
    random("rand", RandomPoolKind::kAllEdges);
    random("sup", RandomPoolKind::kTopSupport);
    random("tur", RandomPoolKind::kTopRouteSize);

    SolverRegistry::RegisterPrefix("akt:", MakeAktSolver);
  });
}

}  // namespace atr
